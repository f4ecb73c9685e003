"""Atomic file writes: temp-file-then-rename, so readers never see torn files.

The service harness rewrites its live-state file on a cadence while an
external dashboard polls it, and checkpoints must never be half-written if
the process dies mid-write.  POSIX ``rename(2)`` within one filesystem is
atomic, so the pattern is: write the full payload to a uniquely named
temporary file *in the destination directory* (same filesystem), flush and
fsync it, then ``os.replace`` it over the destination.  A concurrent reader
observes either the old complete file or the new complete file -- never a
prefix.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Union

__all__ = ["atomic_write_text", "atomic_write_json", "compact_json"]

PathLike = Union[str, Path]


def atomic_write_text(text: str, path: PathLike) -> None:
    """Write ``text`` to ``path`` atomically (write-temp-then-rename).

    The temporary file lives in the destination's directory so the final
    ``os.replace`` never crosses a filesystem boundary (cross-device renames
    are not atomic).  On any failure the temporary file is removed and the
    destination is left untouched.
    """
    target = Path(path)
    directory = target.parent if str(target.parent) else Path(".")
    descriptor, temp_name = tempfile.mkstemp(
        prefix=target.name + ".", suffix=".tmp", dir=str(directory)
    )
    try:
        with os.fdopen(descriptor, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def compact_json(payload: Any) -> str:
    """``payload`` as compact, sorted-key JSON text.

    Sorted keys make repeated writes of equal payloads byte-identical, and
    leaving out ``indent`` keeps :func:`json.dumps` on its C encoder (an
    indented dump falls back to the pure-Python one, several times slower
    on fleet-sized payloads).  ``python -m json.tool`` pretty-prints the
    result for reading.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def atomic_write_json(payload: Any, path: PathLike) -> None:
    """Write ``payload`` atomically as :func:`compact_json` text.

    This is the writer for machine-read artifacts -- service checkpoints
    and live state.  Human-facing reports go through
    :func:`repro.io.serialize.save_json`, which pretty-prints.
    """
    atomic_write_text(compact_json(payload), path)
