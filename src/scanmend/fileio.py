"""Whole-file writes that a crash cannot leave half done.

write_atomic writes to a temp file beside the target and renames it over
the target with os.replace, so a process killed mid-write leaves either the
old file or the new one, never a truncated mix.  It does not fsync: it
guards against an interrupted process, not against a power loss.  A
process killed between the write and the rename leaves its temp file,
NAME.<32 hex digits>.tmp; remove_temp_files clears those under a directory
that the caller alone writes to.
"""

from __future__ import annotations

import contextlib
import os
import re
import uuid

_TEMP_NAME = re.compile(r".+\.[0-9a-f]{32}\.tmp")  # the names write_atomic gives its temp files


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


def remove_temp_files(root) -> None:
    """Remove every file under `root` named as write_atomic names its temp
    files.  Only the sole writer under `root` may call this: another
    process's write in flight has a temp file of that name too."""
    for dirpath, _, names in os.walk(root):
        for name in names:
            if _TEMP_NAME.fullmatch(name):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(dirpath, name))
