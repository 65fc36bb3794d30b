"""Skeleton sequence datasets: containers, file formats, synthetic generator.

A sequence is a (joints, frames, 3) coordinate array with an integer
class label and a stable dataset index (the index doubles as the
sequence's slot in the contrastive memory banks).

The synthetic generator builds sequences from two independent factors:

* a *spatial* factor ``a`` adds a static per-joint offset (a "pose"),
  constructed to have exactly zero mean across joints;
* a *temporal* factor ``b`` adds a motion envelope along a fixed
  direction, constructed to have exactly zero mean across frames.

Because the offsets are frame-constant and joint-centered while the
envelopes are joint-constant and frame-centered, averaging over frames
erases the temporal factor and averaging over joints erases the spatial
factor.  That makes the generator a controlled probe for whether a
model's spatial/temporal embedding branches really separate the two.

The class label fuses both factors: ``label = a * num_temporal + b``.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError, NumericError
from .rng import seeded_rng

BINARY_MAGIC = b"SKL1"


@dataclass
class SkeletonSequence:
    coords: np.ndarray  # (joints, frames, 3) float
    label: int
    index: int

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 3 or self.coords.shape[2] != 3:
            raise DataFormatError(f"sequence coords must be (joints, frames, 3), got {self.coords.shape}")
        if not np.isfinite(self.coords).all():
            raise DataFormatError(f"sequence {self.index}: non-finite coordinates")
        if self.label < 0:
            raise DataFormatError(f"sequence {self.index}: negative label {self.label}")
        if self.index < 0:
            raise DataFormatError(f"negative sequence index {self.index}")

    @property
    def joints(self) -> int:
        return self.coords.shape[0]

    @property
    def frames(self) -> int:
        return self.coords.shape[1]


@dataclass
class SkeletonDataset:
    sequences: list[SkeletonSequence]
    num_classes: int
    name: str = ""

    def __post_init__(self):
        if not self.sequences:
            raise DataFormatError("dataset is empty")
        if self.num_classes < 2:
            raise DataFormatError(f"dataset needs at least 2 classes, got {self.num_classes}")
        shape = (self.sequences[0].joints, self.sequences[0].frames)
        for seq in self.sequences:
            if (seq.joints, seq.frames) != shape:
                raise DataFormatError(
                    f"sequence {seq.index}: shape {(seq.joints, seq.frames)} differs from {shape}"
                )
            if seq.label >= self.num_classes:
                raise DataFormatError(
                    f"sequence {seq.index}: label {seq.label} outside [0, {self.num_classes})"
                )
        indices = sorted(seq.index for seq in self.sequences)
        if indices != list(range(len(self.sequences))):
            raise DataFormatError("sequence indices must be exactly 0..len-1 (bank slots)")

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self):
        return iter(self.sequences)

    def __getitem__(self, i: int) -> SkeletonSequence:
        return self.sequences[i]

    @property
    def joints(self) -> int:
        return self.sequences[0].joints

    @property
    def frames(self) -> int:
        return self.sequences[0].frames

    def labels(self) -> np.ndarray:
        return np.array([seq.label for seq in self.sequences], dtype=np.int64)


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass(frozen=True)
class SyntheticSpec:
    joints: int = 8
    frames: int = 24
    num_spatial: int = 4
    num_temporal: int = 4
    per_class: int = 10
    noise_std: float = 0.1
    motif_scale: float = 0.5

    def __post_init__(self):
        if self.joints < 2:
            raise ConfigError(f"synthetic data needs at least 2 joints, got {self.joints}")
        if self.frames < 4:
            raise ConfigError(f"synthetic data needs at least 4 frames, got {self.frames}")
        if self.num_spatial < 1 or self.num_temporal < 1:
            raise ConfigError("factor counts must be positive")
        if self.num_spatial * self.num_temporal < 2:
            raise ConfigError("need at least 2 classes overall")
        if self.num_spatial > (self.joints - 1) * 3:
            raise ConfigError(
                f"num_spatial={self.num_spatial} exceeds the joint-centered subspace "
                f"dimension {(self.joints - 1) * 3}"
            )
        if self.num_temporal > self.frames // 2:
            raise ConfigError(
                f"num_temporal={self.num_temporal} too large for {self.frames} frames "
                f"(envelopes would alias); need num_temporal <= frames // 2"
            )
        if self.per_class < 1:
            raise ConfigError("per_class must be positive")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be non-negative")
        if self.motif_scale <= 0:
            raise ConfigError("motif_scale must be positive")

    @property
    def num_classes(self) -> int:
        return self.num_spatial * self.num_temporal

    @property
    def length(self) -> int:
        return self.num_classes * self.per_class

    def spatial_factor(self, label: int) -> int:
        return label // self.num_temporal

    def temporal_factor(self, label: int) -> int:
        return label % self.num_temporal


def _spatial_offsets(spec: SyntheticSpec, rng) -> np.ndarray:
    """(num_spatial, joints, 3) offsets: zero-mean across joints, orthonormal, RMS-scaled."""
    raw = rng.standard_normal((spec.num_spatial, spec.joints, 3))
    raw -= raw.mean(axis=1, keepdims=True)
    flat = raw.reshape(spec.num_spatial, -1)
    q, r = np.linalg.qr(flat.T)  # columns span the sampled zero-mean directions
    if np.min(np.abs(np.diag(r))) < 1e-9:
        raise NumericError("degenerate draw while orthonormalizing spatial offsets")
    scale = spec.motif_scale * np.sqrt(spec.joints * 3)
    return (q.T * scale).reshape(spec.num_spatial, spec.joints, 3)


def _temporal_envelopes(spec: SyntheticSpec) -> np.ndarray:
    """(num_temporal, frames) envelopes: exactly zero-mean over frames, unit RMS."""
    u = np.linspace(0.0, 1.0, spec.frames)
    envelopes = np.empty((spec.num_temporal, spec.frames))
    for b in range(spec.num_temporal):
        e = 2.0 * u - 1.0 if b == 0 else np.sin(2.0 * np.pi * b * u)
        e = e - e.mean()
        rms = np.sqrt(np.mean(e * e))
        if rms < 1e-9:
            raise NumericError(f"degenerate temporal envelope for factor {b}")
        envelopes[b] = e / rms
    return envelopes


def generate_synthetic(spec: SyntheticSpec, seed: int = 0, name: str = "synthetic") -> SkeletonDataset:
    base_rng = seeded_rng(seed, "synthetic/base")
    offset_rng = seeded_rng(seed, "synthetic/spatial")
    noise_rng = seeded_rng(seed, "synthetic/noise")

    base = base_rng.standard_normal((spec.joints, 1, 3))
    # unit RMS per element so the temporal term carries the same
    # per-element energy (motif_scale) as the spatial offsets
    direction = base_rng.standard_normal(3)
    direction *= np.sqrt(3.0) / np.linalg.norm(direction)
    offsets = _spatial_offsets(spec, offset_rng)
    envelopes = spec.motif_scale * _temporal_envelopes(spec)

    sequences = []
    index = 0
    for a in range(spec.num_spatial):
        for b in range(spec.num_temporal):
            label = a * spec.num_temporal + b
            for _ in range(spec.per_class):
                coords = (
                    base
                    + offsets[a][:, None, :]
                    + envelopes[b][None, :, None] * direction[None, None, :]
                    + noise_rng.normal(0.0, spec.noise_std, (spec.joints, spec.frames, 3))
                )
                sequences.append(SkeletonSequence(coords=coords, label=label, index=index))
                index += 1
    return SkeletonDataset(sequences=sequences, num_classes=spec.num_classes, name=name)


# ---------------------------------------------------------------------------
# time resampling


def resample_time(coords: np.ndarray, frames: int) -> np.ndarray:
    """Linearly resample a (joints, frames_in, 3) array to a new frame count."""
    coords = np.asarray(coords, dtype=np.float64)
    t_in = coords.shape[1]
    if frames < 2:
        raise ConfigError(f"cannot resample to {frames} frames")
    if t_in == frames:
        return coords.copy()
    old = np.linspace(0.0, 1.0, t_in)
    new = np.linspace(0.0, 1.0, frames)
    out = np.empty((coords.shape[0], frames, 3))
    for j in range(coords.shape[0]):
        for c in range(3):
            out[j, :, c] = np.interp(new, old, coords[j, :, c])
    return out


def resample_dataset(ds: SkeletonDataset, frames: int) -> SkeletonDataset:
    if frames == ds.frames:
        return ds
    sequences = [
        SkeletonSequence(coords=resample_time(seq.coords, frames), label=seq.label, index=seq.index)
        for seq in ds
    ]
    return SkeletonDataset(sequences=sequences, num_classes=ds.num_classes, name=ds.name)


# ---------------------------------------------------------------------------
# file formats


def _round9(values: np.ndarray) -> np.ndarray:
    """``round(float(v), 9)`` of every value, as one array expression.

    For |v * 1e9| < 2**52 the integer rint(v * 1e9) is exact, and dividing
    it by 1e9 rounds correctly to the double nearest the 9-place decimal,
    which is what ``round`` returns, as long as that integer is the right
    one.  It can be wrong only when the rounded product lies near a
    half-way point; those values, and the large ones, go through
    ``round`` itself.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = values * 1e9
        out = np.rint(scaled) / 1e9
        halfway = np.abs(scaled - np.floor(scaled) - 0.5) <= 2 * np.spacing(np.abs(scaled))
        redo = np.flatnonzero(halfway | (np.abs(scaled) >= 2.0**52))
    for i in redo.tolist():
        out[i] = round(float(values[i]), 9)
    return out


# Sequences the JSONL writer formats per numpy pass.  A pass holds about 100
# bytes per coordinate at once, so this bounds the writer's working memory
# (~1 MB at the `stdcl gen-data` shape of 576 coordinates per sequence).
JSONL_CHUNK = 16
_FRAC_DIGITS = 9


def _json_arrays(rows: np.ndarray) -> list[str]:
    """``json.dumps`` of each row of `rows` after ``_round9``, formatted in numpy.

    `repr`, which ``json.dumps`` uses for floats, writes r positionally when
    1e-4 <= |r| < 1e16.  If also |r| < 1e6 and n / 1e9 == |r| for the
    integer n = rint(|r| * 1e9), the 9-place decimal n / 10**9 has at most
    15 significant digits and maps to r.  No other decimal of at most 15
    significant digits maps to the same double, so that decimal without its
    trailing zeros is `repr`'s shortest round-trip string.  Such values are
    written as the digit columns of a byte matrix, one row of columns per
    value (sign, integer digits, ".", 9 fraction digits, ", "), and a
    keep-mask drops the sign of a non-negative value, leading integer zeros,
    trailing fraction zeros but the first, and the ", " after a row's last
    value.  A row holding any other value (tiny, huge or not finite) goes
    through ``json.dumps``.
    """
    rows = np.asarray(rows, dtype=np.float64)
    r = _round9(rows).reshape(rows.shape)
    a = np.abs(r)
    with np.errstate(invalid="ignore"):
        exact = (a == 0.0) | ((a >= 1e-4) & (a < 1e6))
        n = np.rint(np.where(exact, a, 0.0) * 1e9).astype(np.int64)
        exact &= n / 1e9 == a
    whole = (n // 10**_FRAC_DIGITS).astype(np.int32)
    frac = (n - whole.astype(np.int64) * 10**_FRAC_DIGITS).astype(np.int32)
    places = len(str(whole.max(initial=0)))  # integer digits this chunk needs
    template = np.frombuffer(b"-" + b"0" * places + b"." + b"0" * _FRAC_DIGITS + b", ", dtype=np.uint8)
    point, last = places + 1, places + 1 + _FRAC_DIGITS
    text = np.tile(template, r.shape).reshape(r.shape + template.shape)
    keep = np.ones(text.shape, dtype=bool)
    keep[..., 0] = np.signbit(r)
    keep[:, -1:, last + 1:] = False  # no ", " after a row's last value
    nonzero = np.zeros(r.shape, dtype=bool)
    digits = frac
    for col in range(last, 0, -1):  # least significant digit first
        if col == point:
            digits = whole
            continue
        if col < places:  # a digit above the units
            keep[..., col] = digits != 0  # this digit or a higher one is non-zero
        rest = digits // 10
        digit = digits - rest * 10
        if col > point + 1:
            nonzero |= digit != 0
            keep[..., col] = nonzero  # this digit or a lower one is non-zero
        digit += ord("0")
        text[..., col] = digit
        digits = rest
    ends = np.cumsum([np.count_nonzero(k) for k in keep]).tolist()
    body = text[keep]
    del text, keep  # before decoding, to keep the pass's peak memory down
    body = str(body, "ascii")
    out, start = [], 0
    for row, ok, end in zip(r, exact.all(axis=1).tolist(), ends):
        out.append(f"[{body[start:end]}]" if ok else json.dumps(row.tolist()))
        start = end
    return out


def save_jsonl(ds: SkeletonDataset, path: str) -> None:
    seqs = ds.sequences
    with open(path, "w", encoding="utf-8") as f:
        for at in range(0, len(seqs), JSONL_CHUNK):
            chunk = seqs[at:at + JSONL_CHUNK]
            arrays = _json_arrays(np.stack([seq.coords.reshape(-1) for seq in chunk]))
            f.write("".join(
                f'{{"index": {seq.index:d}, "label": {seq.label:d}, "joints": {seq.joints:d}, '
                f'"frames": {seq.frames:d}, "coords": {coords}}}\n'
                for seq, coords in zip(chunk, arrays)
            ))


def _load_jsonl(path: str) -> SkeletonDataset:
    sequences = []
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"{where}: not UTF-8 text: {exc}") from None
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise DataFormatError(f"{where}: record must be a JSON object, got {type(record).__name__}")
            try:
                joints, frames = int(record["joints"]), int(record["frames"])
                coords = np.array(record["coords"], dtype=np.float64)
                if coords.size != joints * frames * 3:
                    raise DataFormatError(
                        f"{where}: expected {joints * frames * 3} coordinates, got {coords.size}"
                    )
                sequences.append(
                    SkeletonSequence(
                        coords=coords.reshape(joints, frames, 3),
                        label=int(record["label"]),
                        index=int(record["index"]),
                    )
                )
            except KeyError as exc:
                raise DataFormatError(f"{where}: missing field {exc}") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataFormatError(f"{where}: malformed record: {exc}") from None
    if not sequences:
        raise DataFormatError(f"{path}: no records")
    num_classes = max(seq.label for seq in sequences) + 1
    return SkeletonDataset(sequences=sequences, num_classes=max(num_classes, 2), name=path)


def save_binary(ds: SkeletonDataset, path: str) -> None:
    ordered = sorted(ds.sequences, key=lambda s: s.index)
    with open(path, "wb") as f:
        f.write(BINARY_MAGIC)
        f.write(struct.pack("<4i", ds.joints, ds.frames, ds.num_classes, len(ds)))
        coords = np.stack([s.coords for s in ordered]).astype("<f4")
        f.write(coords.tobytes())
        f.write(np.array([s.label for s in ordered], dtype="<i4").tobytes())
        f.write(np.array([s.index for s in ordered], dtype="<i4").tobytes())


def _load_binary(path: str) -> SkeletonDataset:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != BINARY_MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:4]!r}, expected {BINARY_MAGIC!r}")
    if len(blob) < 20:
        raise DataFormatError(f"{path}: truncated header")
    joints, frames, num_classes, count = struct.unpack_from("<4i", blob, 4)
    if min(joints, frames, num_classes, count) <= 0:
        raise DataFormatError(f"{path}: invalid header (J={joints}, T={frames}, K={num_classes}, L={count})")
    offset = 20
    coords_bytes = count * joints * frames * 3 * 4
    expected = offset + coords_bytes + count * 4 * 2
    if len(blob) != expected:
        raise DataFormatError(f"{path}: expected {expected} bytes, found {len(blob)}")
    coords = np.frombuffer(blob, dtype="<f4", count=count * joints * frames * 3, offset=offset)
    coords = coords.astype(np.float64).reshape(count, joints, frames, 3)
    offset += coords_bytes
    labels = np.frombuffer(blob, dtype="<i4", count=count, offset=offset)
    offset += count * 4
    indices = np.frombuffer(blob, dtype="<i4", count=count, offset=offset)
    sequences = [
        SkeletonSequence(coords=coords[i], label=int(labels[i]), index=int(indices[i]))
        for i in range(count)
    ]
    return SkeletonDataset(sequences=sequences, num_classes=num_classes, name=path)


def save_dataset(ds: SkeletonDataset, path: str, fmt: str | None = None) -> None:
    """Write `ds` to `path` as a whole: into a temp file beside it, then ``os.replace``.

    If the write fails, the temp file is removed and a file already at
    `path` is left as it was.
    """
    if fmt is None:
        fmt = "binary" if path.endswith((".skl", ".bin")) else "jsonl"
    writers = {"jsonl": save_jsonl, "binary": save_binary}
    if fmt not in writers:
        raise ConfigError(f"unknown dataset format {fmt!r} (expected 'jsonl' or 'binary')")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        writers[fmt](ds, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_dataset(path: str, frames: int | None = None) -> SkeletonDataset:
    try:
        with open(path, "rb") as f:
            magic = f.read(4)
    except OSError as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc.strerror}") from None
    ds = _load_binary(path) if magic == BINARY_MAGIC else _load_jsonl(path)
    if frames is not None:
        ds = resample_dataset(ds, frames)
    return ds
