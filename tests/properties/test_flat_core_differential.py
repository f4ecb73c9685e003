"""Byte-identity differential suite for the flat-array fleet core.

The flat core (vectorized construction, indexed registry, batched
dispatch) must change *nothing* the protocol can observe.  The goldens in
``data/flat_core_goldens.json`` are blake2b hashes of the canonical
``RunResult`` JSON of every scenario family x {plain, monitoring,
escalation, lossy transport}, captured on the loop-based implementation
immediately before the refactor; this suite asserts the current code
reproduces every one of them bit for bit, and that the 10^3-vehicle
scale-up preset stays byte-identical serially and over 4 worker processes.

Regenerate the goldens (only after a deliberate, understood behavior
change) with ``PYTHONPATH=src python tests/properties/make_flat_core_goldens.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import ExperimentEngine, RunConfig, ScenarioSpec
from repro.workloads.library import family_config

GOLDEN_PATH = Path(__file__).parent / "data" / "flat_core_goldens.json"
GOLDENS = json.loads(GOLDEN_PATH.read_text())

SEED = 1
PRESET = "small"

#: Must mirror tests/properties/make_flat_core_goldens.py exactly.
MODES = {
    "plain": ("online", {}),
    "monitoring": ("online-broken", {}),
    "escalation": ("online", {"escalation": True}),
    "lossy": (
        "online",
        {"transport": {"kind": "lossy", "params": {"loss": 0.05, "seed": 3}}},
    ),
    "gossip-lossy": (
        "online-broken",
        {
            "params": {"monitoring": "gossip"},
            "transport": {"kind": "lossy", "params": {"loss": 0.05, "seed": 3}},
        },
    ),
}


def _digest(result) -> str:
    return hashlib.blake2b(
        result.canonical_json().encode("utf-8"), digest_size=16
    ).hexdigest()


def _assert_active_set_invariants(fleet) -> None:
    """The incremental engaged set / watch columns equal ground truth.

    The registry's ``engaged`` set and the detector blocks' ``watch_col``
    array are maintained incrementally at every protocol transition; after
    a full run they must equal what a from-scratch recomputation off the
    vehicle objects gives -- any drift means the quiescent fast path
    skipped (or re-visited) a vehicle the per-object protocol would have
    handled differently.
    """
    flat = fleet.flat
    expected = {
        vehicle._index
        for vehicle in fleet.vehicles.values()
        if (
            vehicle._engaged_tag is not None
            or vehicle.escalations
            or vehicle._engaged_rounds
            or vehicle._engaged_tag_seen is not None
        )
    }
    assert flat.engaged == expected, "incremental engaged set drifted"
    blocks = fleet.detector
    if blocks is None:
        return
    for vehicle in fleet.vehicles.values():
        monitored = vehicle._monitored_pair
        col = blocks.watch_col[vehicle._index]
        if monitored is None:
            assert col == -1
        else:
            assert blocks._pairs[blocks.cube_of[vehicle._index]][col] == monitored


@pytest.fixture(scope="module")
def engine():
    return ExperimentEngine()


@pytest.fixture
def captured_fleets(monkeypatch):
    """Record every fleet ``run_online`` provisions during the test."""
    import repro.core.online as online

    fleets = []
    original = online.provision_fleet

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        fleets.append(out[0])
        return out

    monkeypatch.setattr(online, "provision_fleet", wrapper)
    return fleets


class TestGoldenByteIdentity:
    @pytest.mark.parametrize("key", sorted(GOLDENS))
    def test_matches_pre_refactor_golden(self, key, engine, captured_fleets):
        family, label = key.rsplit("/", 1)
        solver, overrides = MODES[label]
        config = family_config(family, solver, seed=SEED, preset=PRESET, **overrides)
        assert _digest(engine.run(config)) == GOLDENS[key], (
            f"{key}: the flat-array core diverged from the pre-refactor "
            "protocol behavior"
        )
        assert captured_fleets, "run_online never provisioned a fleet"
        for fleet in captured_fleets:
            _assert_active_set_invariants(fleet)

    def test_goldens_cover_every_family_and_mode(self):
        from repro.workloads.library import available_families

        expected = {
            f"{family}/{label}"
            for family in available_families()
            for label in MODES
        }
        assert set(GOLDENS) == expected


class TestScaleUpWorkerDeterminism:
    """Serial == 4 worker processes on the 10^3-vehicle preset."""

    @staticmethod
    def _configs():
        spec = ScenarioSpec.from_family("scale-up", seed=0, side=32, per_point=2.0)
        return [
            RunConfig(solver="online", scenario=spec, capacity="theorem"),
            RunConfig(solver="online", scenario=spec, capacity="theorem", escalation=True),
        ]

    @pytest.fixture(scope="class")
    def serial_payload(self):
        engine = ExperimentEngine(workers=1)
        return engine.results_payload(engine.run_many(self._configs()))

    def test_four_processes_byte_identical(self, serial_payload):
        engine = ExperimentEngine(workers=4)
        assert engine.results_payload(engine.run_many(self._configs())) == serial_payload
