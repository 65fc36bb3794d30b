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
import struct

import numpy as np

from .errors import DataFormatError
from .tensor import Tensor

MAGIC = b"CKPT"
VERSION = 1


def save_checkpoint(path: str, arrays: dict, meta: dict) -> None:
    payload = [MAGIC, struct.pack("<I", VERSION)]
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    payload.append(struct.pack("<I", len(meta_blob)))
    payload.append(meta_blob)
    payload.append(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        value = arrays[name]
        data = np.asarray(value.data if isinstance(value, Tensor) else value, dtype="<f4")
        name_bytes = name.encode("utf-8")
        payload.append(struct.pack("<H", len(name_bytes)))
        payload.append(name_bytes)
        payload.append(struct.pack("<B", data.ndim))
        payload.append(struct.pack(f"<{data.ndim}I", *data.shape))
        payload.append(data.tobytes(order="C"))
    with open(path, "wb") as f:
        f.write(b"".join(payload))


def load_checkpoint(path: str) -> tuple[dict, dict]:
    """Returns (arrays, meta); arrays come back as float64 ndarrays."""
    with open(path, "rb") as f:
        blob = f.read()

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
    if offset + meta_len > len(blob):
        raise DataFormatError(f"{path}: truncated checkpoint")
    try:
        meta = json.loads(blob[offset : offset + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: corrupt checkpoint metadata: {exc}") from exc
    offset += meta_len
    (count,), offset = take("<I", offset)
    arrays = {}
    for _ in range(count):
        (name_len,), offset = take("<H", offset)
        if offset + name_len > len(blob):
            raise DataFormatError(f"{path}: truncated checkpoint")
        try:
            name = blob[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: array name is not UTF-8: {exc}") from None
        offset += name_len
        (ndim,), offset = take("<B", offset)
        dims, offset = take(f"<{ndim}I", offset)
        size = int(np.prod(dims, dtype=np.int64)) if ndim else 1
        nbytes = size * 4
        if offset + nbytes > len(blob):
            raise DataFormatError(f"{path}: truncated checkpoint data for {name!r}")
        data = np.frombuffer(blob, dtype="<f4", count=size, offset=offset).reshape(dims)
        arrays[name] = data.astype(np.float64)
        offset += nbytes
    if offset != len(blob):
        raise DataFormatError(f"{path}: {len(blob) - offset} trailing bytes")
    return arrays, meta
