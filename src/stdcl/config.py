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
from dataclasses import dataclass, field

from .errors import ConfigError

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


# key -> (converter, default).  Converters raise ValueError on bad input.
CONFIG_SCHEMA: dict = {
    "data.path": (str, ""),
    "data.eval_path": (str, ""),
    "data.frames": (int, 0),  # 0 = keep native frame count, else resample
    "encoder.channels": (int, 32),
    "encoder.temporal_stride": (int, 2),
    "encoder.hidden": (_parse_int_tuple, (16,)),
    "encoder.kernel_size": (int, 5),
    "encoder.joint_mixing": (str, "fixed"),
    "encoder.temporal_padding": (str, "zero"),
    "train.epochs": (int, 20),
    "train.batch_size": (int, 8),
    "train.learning_rate": (float, 0.05),
    "train.momentum": (float, 0.9),
    "train.weight_decay": (float, 1e-4),
    "train.seed": (int, 0),
    "train.framework_enabled": (_parse_bool, True),
    "train.lambda_ce": (float, 1.0),
    "train.lambda_spatial": (float, 1.0),
    "train.lambda_temporal": (float, 1.0),
    "train.loss_form": (str, "exponentiated"),
    "train.lr_decay_epochs": (int, 0),
    "train.lr_decay_gamma": (float, 0.1),
    "train.checkpoint_every": (int, 0),
    "train.eval_every": (int, 1),
    "train.embed_dim": (int, 256),
    "train.reduction": (int, 8),
    "contrast.tau": (float, 0.8),
    "contrast.n_pos_hard": (int, 128),
    "contrast.n_neg_hard": (int, 512),
    "contrast.n_neg_rand": (int, 512),
    "numeric.checked": (_parse_bool, True),
    "numeric.precision": (str, "float64"),
    "out.dir": (str, "runs/default"),
    "out.stem": (str, "model"),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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

    def to_json(self) -> str:
        payload = {
            "format_version": self.format_version,
            "command": self.command,
            "seed": self.seed,
            "config": {k: self._jsonable(v) for k, v in sorted(self.config.items())},
            "artifacts": dict(sorted(self.artifacts.items())),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def _jsonable(value):
        if isinstance(value, tuple):
            return list(value)
        return value


def write_manifest(path: str, manifest: RunManifest) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(manifest.to_json())


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

