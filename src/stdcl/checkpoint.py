"""Binary checkpoint container.

Layout (little-endian):

    magic   4 bytes  b"CKPT"
    version u32      format version (currently 1)
    meta    u32 length + UTF-8 JSON blob (run configuration, step, ...)
    count   u32      number of named arrays
    entries repeated count times:
        name   u16 length + UTF-8 bytes
        ndim   u8, then ndim u32 dims
        data   float32 values, C order

Entries are written in sorted name order so identical state produces
identical bytes.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .atomic import atomic_path
from .errors import ConfigError, DataFormatError, NumericError
from .tensor import Tensor

MAGIC = b"CKPT"
VERSION = 1


def save_checkpoint(path: str, arrays: dict, meta: dict) -> None:
    """Write `arrays` as float32, in sorted name order, and `meta` to `path`.

    NumericError, before anything is written, if an array holds a finite
    value beyond float32's range: it would be stored as an infinity, which
    `load_model` refuses.
    """
    payload = [MAGIC, struct.pack("<I", VERSION)]
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    payload.append(struct.pack("<I", len(meta_blob)))
    payload.append(meta_blob)
    payload.append(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        value = arrays[name]
        value = np.asarray(value.data if isinstance(value, Tensor) else value)
        with np.errstate(over="ignore"):  # checked below, naming the array
            data = value.astype("<f4", copy=False)
        if (np.isinf(data) & np.isfinite(value)).any():
            raise NumericError(f"{path}: array {name!r} holds a finite value beyond float32's range")
        name_bytes = name.encode("utf-8")
        payload.append(struct.pack("<H", len(name_bytes)))
        payload.append(name_bytes)
        payload.append(struct.pack("<B", data.ndim))
        payload.append(struct.pack(f"<{data.ndim}I", *data.shape))
        payload.append(data.tobytes(order="C"))
    with atomic_path(path) as tmp, open(tmp, "wb") as f:
        f.write(b"".join(payload))


def load_checkpoint(path: str) -> tuple[dict, dict]:
    """Returns (arrays, meta); arrays come back as float64 ndarrays."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc.strerror}") from None

    def take(fmt: str, offset: int):
        size = struct.calcsize(fmt)
        if offset + size > len(blob):
            raise DataFormatError(f"{path}: truncated checkpoint")
        return struct.unpack_from(fmt, blob, offset), offset + size

    if blob[:4] != MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    (version,), offset = take("<I", 4)
    if version != VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    (meta_len,), offset = take("<I", offset)
    (meta_blob,), offset = take(f"<{meta_len}s", offset)
    try:
        meta = json.loads(meta_blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: corrupt checkpoint metadata: {exc}") from exc
    (count,), offset = take("<I", offset)
    arrays = {}
    for _ in range(count):
        (name_len,), offset = take("<H", offset)
        (name_blob,), offset = take(f"<{name_len}s", offset)
        try:
            name = name_blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: array name is not UTF-8: {exc}") from None
        (ndim,), offset = take("<B", offset)
        dims, offset = take(f"<{ndim}I", offset)
        size = math.prod(dims)  # exact: a fixed-width product could wrap and pass the length check
        nbytes = size * 4
        if offset + nbytes > len(blob):
            raise DataFormatError(f"{path}: truncated checkpoint data for {name!r}")
        try:  # an empty entry can still claim more axes or elements than numpy allows
            data = np.frombuffer(blob, dtype="<f4", count=size, offset=offset).reshape(dims)
        except ValueError as exc:
            raise DataFormatError(f"{path}: array {name!r} has an impossible shape {dims}: {exc}") from None
        with np.errstate(invalid="ignore"):  # a signalling NaN payload widens to a quiet NaN
            arrays[name] = data.astype(np.float64)
        offset += nbytes
    if offset != len(blob):
        raise DataFormatError(f"{path}: {len(blob) - offset} trailing bytes")
    return arrays, meta
