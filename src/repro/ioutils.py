"""Crash-safe file writing.

A plain ``path.write_text`` truncates the destination before the new
bytes land, so a crash mid-write (power loss, SIGKILL, a full disk)
leaves a corrupt or empty file where a valid one used to be.  Every
artefact the project persists — checkpoints, telemetry dumps, run
results — goes through :func:`atomic_write_bytes` instead: the bytes
are written with ``os.write`` straight onto the descriptor of a
temporary file *in the same directory* (same filesystem, so the final
rename cannot cross a mount boundary), fsynced, and moved over the
destination with :func:`os.replace`, which POSIX guarantees to be
atomic.  A crash at any point leaves either the complete old file or
the complete new file, never a mix, and a failed write removes its
temporary file.  Text and JSON callers encode first and share the
same path; a checkpoint, saved every tick, hands over ready-made bytes
and skips the text layer altogether.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically.

    The bytes are written and fsynced to a sibling temporary file
    before an :func:`os.replace` swings it into place, so a reader (or
    a resumed process) never observes a partially written file and the
    previous contents survive any crash that happens before the
    rename commits.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent or "."
    )
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
    except BaseException:
        # The destination is untouched; drop the orphaned temp file.
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(
    path: str | Path, content: str, encoding: str = "utf-8"
) -> Path:
    """Write ``content`` to ``path`` atomically (see
    :func:`atomic_write_bytes`)."""
    return atomic_write_bytes(path, content.encode(encoding))


def atomic_write_json(path: str | Path, payload: object) -> Path:
    """Serialise ``payload`` as sorted, one-space-indented JSON and
    write it atomically."""
    return atomic_write_text(
        path, json.dumps(payload, indent=1, sort_keys=True) + "\n"
    )
