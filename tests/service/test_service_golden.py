"""Golden hashes of one service run, and resume from an old-format checkpoint.

The differential suites compare a service run against another run of the
same code; the values below pin it to committed numbers instead.  The run
is small but exercises the protocol end to end: 81 vehicles on a side-9
grid under gossip monitoring, one dead vehicle that is detected and
replaced, and a checkpoint every two metrics windows.

``data/gossip_side9_checkpoint_indented.json`` is the snapshot taken
after the second checkpoint of that run, written when checkpoints were
still indented JSON.  Checkpoints are now compact, and an older file must
still resume to the uninterrupted run's result.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.api.service import ServiceConfig
from repro.core.demand import DemandMap
from repro.service import resume_service, run_service
from repro.vehicles.fleet import FleetConfig
from repro.workloads.arrivals import alternating_arrivals

SIDE = 9
DEMAND = DemandMap({(x, y): 1.0 for x in range(SIDE) for y in range(SIDE)})
CONFIG = ServiceConfig.from_demand(
    DEMAND,
    omega=3.0,
    fleet=FleetConfig(monitoring="gossip"),
    dead_vehicles=((0, 0),),
    recovery_rounds=4,
    window_jobs=10,
    checkpoint_every=2,
)

GOLDEN_RESULT_HASH = "fff9584122961a17dbb5a7cb65c62c48a4791ebb964e2405459f1560a578ddaf"
GOLDEN_FLEET_DIGEST = "2aa0eabb81b6f87971a53929e7bb101504c2dc63331782da9813f36a157d4c98"

INDENTED_CHECKPOINT = Path(__file__).parent / "data" / "gossip_side9_checkpoint_indented.json"


def _jobs():
    return list(alternating_arrivals(DEMAND).jobs)


def test_uninterrupted_run_matches_the_goldens(tmp_path):
    result = run_service(CONFIG, _jobs(), checkpoint_path=tmp_path / "snap.json")
    assert result.checkpoints_written == 4
    assert result.replacements == 1 and result.detections == 1
    assert result.fleet_digest == GOLDEN_FLEET_DIGEST
    assert result.result_hash() == GOLDEN_RESULT_HASH


def test_indented_checkpoint_resumes_to_the_golden_result():
    assert INDENTED_CHECKPOINT.read_text().startswith('{\n  "churn_applied"')
    resumed = resume_service(str(INDENTED_CHECKPOINT), _jobs())
    assert resumed.resumed
    assert resumed.fleet_digest == GOLDEN_FLEET_DIGEST
    assert resumed.result_hash() == GOLDEN_RESULT_HASH


def test_compact_checkpoint_carries_the_same_snapshot(tmp_path):
    snapshot = tmp_path / "snap.json"
    partial = run_service(
        CONFIG, _jobs(), checkpoint_path=snapshot, stop_after_checkpoints=2
    )
    assert partial.interrupted
    text = snapshot.read_text()
    assert "\n" not in text and ", " not in text
    legacy = json.loads(INDENTED_CHECKPOINT.read_text())
    # The committed file predates the removal of the run RNG: it also
    # carries ``"rng": null`` and a ``seed: null`` config key.
    del legacy["rng"]
    del legacy["config"]["seed"]
    assert json.loads(text) == legacy
