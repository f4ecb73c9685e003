"""README's bench-smoke gate table agrees with the committed baseline.

``benchmarks/bench_baseline.json`` holds the floors (and one ceiling) the
bench-smoke job enforces; the README documents them in a table keyed by
baseline key.  Every gated key must have a row, and every "floor N" or
"ceiling N" a row quotes must be the committed value.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HEADER = "| gate (baseline key) | workload | layer it guards |"


def _baseline():
    baseline = json.loads((ROOT / "benchmarks" / "bench_baseline.json").read_text())
    return {key: value for key, value in baseline.items() if key not in ("benchmark", "note")}


def _gate_rows():
    """Baseline keys -> the README table row naming them."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(HEADER) + 2  # skip the header and its rule
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        gate_cell = line.split("|")[1]
        for key in re.findall(r"`([a-z0-9_]+)`", gate_cell):
            rows[key] = line
    return rows


def test_every_baseline_key_has_a_row():
    rows = _gate_rows()
    assert sorted(set(_baseline()) - set(rows)) == []


def test_quoted_floors_and_ceilings_match_the_baseline():
    baseline = _baseline()
    quoted = {}
    for key, row in _gate_rows().items():
        for value in re.findall(r"\b(?:floor|ceiling) (\d+(?:\.\d+)?)", row):
            quoted[key] = float(value)
    assert quoted, "the gate table quotes no floor or ceiling"
    stale = {
        key: (value, baseline.get(key))
        for key, value in quoted.items()
        if value != baseline.get(key)
    }
    assert stale == {}
