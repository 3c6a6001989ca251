"""Whole-file writes that a crash cannot leave half done.

write_atomic writes to a temp file beside the target and renames it over
the target with os.replace, so a process killed mid-write leaves either the
old file or the new one, never a truncated mix.  It does not fsync: it
guards against an interrupted process, not against a power loss.
"""

from __future__ import annotations

import contextlib
import os
import uuid


def write_atomic(path, data: bytes) -> None:
    """Replace the contents of `path` with `data` in one rename."""
    path = os.fspath(path)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"  # same directory: os.replace is one rename
    try:
        with open(tmp, "xb") as f:  # created with the mode open(path, "w") would give
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
