#!/usr/bin/env python
"""Regenerate the flat-core byte-identity goldens.

The goldens pin the *observable protocol behavior* of the online strategy
-- one blake2b hash of each run's canonical ``RunResult`` JSON -- across
every scenario family x {plain, monitoring, escalation, lossy transport,
gossip over the lossy transport}.  The first four were captured on the
loop-based fleet core immediately before the flat-array refactor, so
``tests/properties/test_flat_core_differential.py`` is a machine-checkable
statement that the vectorized construction, the indexed registry, and the
batched dispatch fast path changed *nothing* the protocol can observe.

Regenerate (only after a deliberate, understood behavior change)::

    PYTHONPATH=src python tests/properties/make_flat_core_goldens.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.api import ExperimentEngine
from repro.workloads.library import available_families, family_config

GOLDEN_PATH = Path(__file__).parent / "data" / "flat_core_goldens.json"

SEED = 1
PRESET = "small"

#: (label, solver, family_config keyword overrides) -- the protocol modes the
#: goldens cover.  ``online-broken`` runs the monitoring loop against the
#: family's own failure plan; ``escalation`` widens searches through the cube
#: hierarchy; ``lossy`` runs the seeded-loss transport, which sends nothing
#: without monitoring; ``gossip-lossy`` runs the gossip detector over it, so
#: its hashes pin the edge-keyed loss draws.
MODES = (
    ("plain", "online", {}),
    ("monitoring", "online-broken", {}),
    ("escalation", "online", {"escalation": True}),
    ("lossy", "online", {"transport": {"kind": "lossy", "params": {"loss": 0.05, "seed": 3}}}),
    (
        "gossip-lossy",
        "online-broken",
        {
            "params": {"monitoring": "gossip"},
            "transport": {"kind": "lossy", "params": {"loss": 0.05, "seed": 3}},
        },
    ),
)


def golden_matrix() -> dict:
    engine = ExperimentEngine()
    goldens = {}
    for family in sorted(available_families()):
        for label, solver, overrides in MODES:
            config = family_config(family, solver, seed=SEED, preset=PRESET, **overrides)
            result = engine.run(config)
            digest = hashlib.blake2b(
                result.canonical_json().encode("utf-8"), digest_size=16
            ).hexdigest()
            goldens[f"{family}/{label}"] = digest
    return goldens


def main() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden_matrix(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(json.loads(GOLDEN_PATH.read_text()))} goldens -> {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
