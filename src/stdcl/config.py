"""Flat key=value run configuration and the run manifest.

Config files are plain text: one ``section.key = value`` per line, with
``#`` comments and blank lines ignored.  Every known key has a default,
so a parsed config is always fully materialized; unknown keys and
malformed lines are reported with their line number.  Command-line
flags are applied on top of the file and win.

The manifest written next to run artifacts records the fully resolved
config, the seed, and the artifact paths, so a run can be reproduced
bit-identically from the manifest alone.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields

from .atomic import atomic_path
from .encoder import EncoderConfig
from .errors import ConfigError
from .train import TrainConfig, _is_int

MANIFEST_VERSION = 1

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _parse_bool(raw: str) -> bool:
    token = raw.strip().lower()
    if token in _TRUE:
        return True
    if token in _FALSE:
        return False
    raise ValueError(f"expected a boolean (true/false), got {raw!r}")


def _parse_int_tuple(raw: str) -> tuple:
    token = raw.strip()
    if not token:
        return ()
    return tuple(int(part.strip()) for part in token.split(","))


# dataclass field annotation -> converter of its config key
_CONVERTERS = {"int": int, "float": float, "str": str, "bool": _parse_bool, "tuple": _parse_int_tuple}

# TrainConfig fields that config files spell contrast.<field>; the others are train.<field>
_CONTRAST_FIELDS = ("tau", "n_pos_hard", "n_neg_hard", "n_neg_rand")


def _field_entries(cls, section_of) -> dict:
    """`<section>.<field>` -> (converter, default) for each field of dataclass `cls` that has a default."""
    return {
        f"{section_of(f.name)}.{f.name}": (_CONVERTERS[f.type], f.default)
        for f in fields(cls)
        if f.default is not MISSING
    }


# key -> (converter, default).  Converters raise ValueError on bad input.
# The encoder.*, train.* and contrast.* entries come from the config dataclasses.
CONFIG_SCHEMA: dict = {
    "data.path": (str, ""),
    "data.eval_path": (str, ""),
    "data.frames": (int, 0),  # 0 = keep native frame count, else resample
    **_field_entries(EncoderConfig, lambda name: "encoder"),
    **_field_entries(TrainConfig, lambda name: "contrast" if name in _CONTRAST_FIELDS else "train"),
    "numeric.checked": (_parse_bool, True),
    "numeric.precision": (str, "float64"),
    "out.dir": (str, "runs/default"),
    "out.stem": (str, "model"),
}


# the JSON value a train manifest must hold for each CONFIG_SCHEMA converter
_MANIFEST_TYPES = {
    _parse_int_tuple: ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
    _parse_bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", _is_int),
    float: ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    str: ("a string", lambda v: isinstance(v, str)),
}


def default_config() -> dict:
    return {key: default for key, (_, default) in CONFIG_SCHEMA.items()}


def coerce_value(key: str, raw: str, where: str = "override"):
    if key not in CONFIG_SCHEMA:
        known = ", ".join(sorted(CONFIG_SCHEMA))
        raise ConfigError(f"{where}: unknown config key {key!r} (known keys: {known})")
    converter, _ = CONFIG_SCHEMA[key]
    if converter is str:
        return raw.strip()
    try:
        return converter(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: invalid value for {key}: {exc}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse flat config text onto the defaults; line-numbered errors."""
    resolved = default_config()
    seen: set = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'section.key = value', got {line.rstrip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        resolved[key] = coerce_value(key, raw, where=f"{source}:{lineno}")
    return resolved


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    return parse_config_text(text, source=path)


def apply_overrides(config: dict, overrides: dict) -> dict:
    """Apply already-typed overrides (flags win over the file)."""
    merged = dict(config)
    for key, value in overrides.items():
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = value
    return merged


def parse_set_overrides(pairs: list) -> dict:
    """--set key=value flags, typed through the schema."""
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        overrides[key.strip()] = coerce_value(key.strip(), raw, where=f"--set {pair!r}")
    return overrides


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int
    artifacts: dict = field(default_factory=dict)
    format_version: int = MANIFEST_VERSION


def write_manifest(path: str, manifest: RunManifest) -> None:
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8") as f:
        f.write(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")


def read_manifest(path: str) -> RunManifest:
    try:
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not a valid manifest: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: manifest must be a JSON object, got {type(payload).__name__}")
    if payload.get("format_version") != MANIFEST_VERSION:
        raise ConfigError(
            f"{path}: manifest format version {payload.get('format_version')!r} "
            f"(this build reads {MANIFEST_VERSION})"
        )
    command = payload.get("command", "")
    raw = payload.get("config", {})
    seed = payload.get("seed", 0)
    artifacts = payload.get("artifacts", {})
    if not isinstance(raw, dict) or not isinstance(artifacts, dict) or not _is_int(seed):
        raise ConfigError(f"{path}: manifest needs an object config and artifacts and an integer seed")
    if command == "train":
        # train manifests must round-trip through the config schema so a
        # `--from-manifest` replay starts from the exact same settings
        config = default_config()
        for key, value in raw.items():
            if key not in CONFIG_SCHEMA:
                raise ConfigError(f"{path}: manifest has unknown config key {key!r}")
            expected, matches = _MANIFEST_TYPES[CONFIG_SCHEMA[key][0]]
            if not matches(value):
                raise ConfigError(f"{path}: manifest value for {key} must be {expected}, got {value!r}")
            config[key] = tuple(value) if isinstance(value, list) else value
    else:
        # other commands (gen-data) record their own flag vocabulary
        config = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
    return RunManifest(
        command=command,
        config=config,
        seed=seed,
        artifacts=dict(artifacts),
    )

