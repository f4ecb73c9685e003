"""Shared bootstrap for the standalone benchmark scripts.

Every ``bench_*.py`` that runs as a plain script (not under pytest) needs
the same two pieces of boilerplate: put ``src/`` on ``sys.path`` so
``import repro`` works without an installed package, and write its JSON
report atomically so a killed CI job never leaves a truncated artifact.
Both live here so the scripts stay about measurement, not plumbing.

:func:`emit_report` also maintains ``BENCH_summary.json`` next to each
artifact: a single flat dotted-key merge of every sibling ``BENCH_*.json``
(``fleet_scale.scales.1e4.events_per_sec: 41000.0`` and so on), rebuilt
after every write.  One file per CI run answers "what were all the
numbers" without opening each artifact in turn.

Import order matters: call :func:`bootstrap_src` *before* any ``repro``
import in the script body::

    from _common import bootstrap_src, emit_report

    bootstrap_src()

    from repro.core.online import run_online
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: The repository root (the directory holding ``src/`` and ``benchmarks/``).
REPO_ROOT = Path(__file__).resolve().parent.parent

#: The consolidated flat artifact rebuilt after every :func:`emit_report`.
SUMMARY_NAME = "BENCH_summary.json"


def bootstrap_src() -> None:
    """Make ``import repro`` resolve to the in-tree ``src/`` package."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _flatten(value, prefix, out) -> None:
    if isinstance(value, dict):
        for key in value:
            child = f"{prefix}.{key}" if prefix else str(key)
            _flatten(value[key], child, out)
    else:
        # Lists (per-shard timing vectors and the like) stay intact: they
        # are already leaf metrics, not namespaces.
        out[prefix] = value


def write_summary(directory) -> dict:
    """Rebuild ``BENCH_summary.json`` from every ``BENCH_*.json`` sibling.

    Each artifact contributes its metrics under its stem minus the
    ``BENCH_`` prefix, nested keys joined with dots.  Truncated or
    non-object artifacts are skipped rather than failing the run -- the
    summary is a convenience view, never the gate.  Returns the merged
    flat mapping.
    """
    bootstrap_src()
    from repro.io.serialize import save_json

    directory = Path(directory)
    summary: dict = {}
    for artifact in sorted(directory.glob("BENCH_*.json")):
        if artifact.name == SUMMARY_NAME:
            continue
        try:
            payload = json.loads(artifact.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(payload, dict):
            continue
        stem = artifact.stem
        prefix = stem[len("BENCH_") :] if stem.startswith("BENCH_") else stem
        _flatten(payload, prefix, summary)
    save_json(summary, directory / SUMMARY_NAME)
    return summary


def emit_report(report, path) -> None:
    """Atomically write a benchmark report and announce the artifact path."""
    bootstrap_src()
    from repro.io.serialize import save_json

    save_json(report, path)
    print(f"wrote {path}")
    path = Path(path)
    if path.name.startswith("BENCH_") and path.name != SUMMARY_NAME:
        write_summary(path.parent)
