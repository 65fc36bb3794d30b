"""Whole-file writes: a reader of an artifact sees the old file or the new one, never a part."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_path(path: str):
    """Yield a temp path beside `path` to write; on success ``os.replace`` it onto `path`.

    If the block raises, the temp file is removed and a file already at
    `path` is left as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
