"""Durable writes: the one write path for state that must survive a crash.

Two shapes cover every durable file in the repo:

* :func:`replace` — rewrite a whole file: write ``<path>.tmp``, check the
  byte count, fsync, then swap it into place.  A reader sees the old
  file or the new one, never a torn mix.  An ``OSError`` removes the
  temp; a simulated crash (:class:`~repro.errors.CrashInjected`) leaves
  it, exactly as ``kill -9`` would, for fsck to find.
* :func:`append` — add a record with one ``O_APPEND`` write, so
  concurrent writers interleave whole records.  No fsync: an append is
  durable on the next flush, and a torn tail is what fsck quarantines.

Both go through the :func:`repro.chaos.fileops` seam, so every fault the
chaos shim injects reaches the same code, and both report a short write
as an ``OSError``.  Callers wrap ``OSError`` in their own error type with
their own context.  ``hdvb-lint`` rule HDVB190 flags any other
write-mode ``open``, ``write_text``/``write_bytes`` or ``json.dump`` in
the benchmark and durable-state packages.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.chaos.fsops import FileOps, crash_point, fileops

#: Suffix of the temp file :func:`replace` writes; a survivor is crash
#: debris that the fsck tools report and delete.
TEMP_SUFFIX = ".tmp"


def _write_all(ops: FileOps, descriptor: int, path: str, data: bytes,
               tear_point: Optional[str] = None) -> None:
    written = ops.write(descriptor, data, path=path, tear_point=tear_point)
    if written != len(data):
        raise OSError(f"short write to {path}: {written}/{len(data)} bytes")


def replace(path: str, data: bytes, *, pre_replace: Optional[str] = None,
            ops: Optional[FileOps] = None) -> None:
    """Atomically make ``data`` the content of ``path``.

    ``pre_replace`` names the crash point hit between the fsync and the
    swap.  ``ops`` overrides the seam; the flight recorder passes the
    passthrough :class:`~repro.chaos.fsops.FileOps` so a post-mortem
    written from inside a chaos crash draws no faults.
    """
    ops = ops or fileops()
    temp = path + TEMP_SUFFIX
    try:
        descriptor = ops.open(temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                              0o644)
        try:
            _write_all(ops, descriptor, temp, data)
            ops.fsync(descriptor)
        finally:
            ops.close(descriptor)
        if pre_replace is not None:
            crash_point(pre_replace, temp)
        ops.replace(temp, path)
    except OSError:     # not CrashInjected: a simulated death leaves debris
        if os.path.exists(temp):
            os.unlink(temp)
        raise


def append(path: str, data: bytes, *,
           tear_point: Optional[str] = None) -> None:
    """Append ``data`` to ``path`` with one ``O_APPEND`` write.

    ``tear_point`` names the crash point that models dying mid-write
    with only a prefix of ``data`` on disk.
    """
    ops = fileops()
    descriptor = ops.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                          0o644)
    try:
        _write_all(ops, descriptor, path, data, tear_point)
    finally:
        ops.close(descriptor)


__all__ = ["TEMP_SUFFIX", "append", "replace"]
