"""Whole-file writes that a crash cannot leave half done.

write_atomic writes to a temp file beside the target and renames it over
the target with os.replace, so a process killed mid-write leaves either the
old file or the new one, never a truncated mix.  It does not fsync: it
guards against an interrupted process, not against a power loss.  A
process killed between the write and the rename leaves its temp file,
NAME.<writer's PID>.<32 hex digits>.tmp; remove_temp_files clears those
under a directory whose writers have exited, and leaves a live writer's.
"""

from __future__ import annotations

import contextlib
import os
import re
import uuid

_TEMP_NAME = re.compile(r".+\.([0-9]+)\.[0-9a-f]{32}\.tmp")  # write_atomic's; group 1: PID


def process_exited(pid: int) -> bool:
    """Whether no process `pid` exists: a live process, another user's, and a
    pid naming no single process (0 or less, or too large) count as running."""
    if pid <= 0:  # os.kill would signal a process group
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):  # PermissionError: alive, another user's
        return False
    return False


def write_atomic(path, data: bytes) -> None:
    """Replace the contents of `path` with `data` in one rename."""
    path = os.fspath(path)
    # Same directory: os.replace is one rename.  The PID is for remove_temp_files.
    tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
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
    files whose writer has exited.  A live writer's temp file stays: its
    write may still be in flight."""
    for dirpath, _, names in os.walk(root):
        for name in names:
            match = _TEMP_NAME.fullmatch(name)
            if match and process_exited(int(match[1])):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(dirpath, name))
