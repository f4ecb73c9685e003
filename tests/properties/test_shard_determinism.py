"""Sharding determinism property suite: N shards == 1 shard, byte for byte.

The contract of :mod:`repro.distsim.sharding` is that ``shards`` is an
execution detail, never a behavior knob.  This suite asserts it across
every mechanism:

* **Goldens** -- every scenario family x {plain, monitoring, escalation,
  lossy, gossip-lossy} golden config (the same 50 configs the flat-core
  differential suite pins) run with ``shards=4`` reproduces the committed
  golden digest bit for bit.  Configs without escalation or recovery
  rounds take the worker path; the others exercise the *single-process*
  fallback (one global fleet).
* **Default channel** -- a ring-monitoring run with no transport, through
  :class:`~repro.api.ExperimentEngine`, fans out to workers and matches
  its 1-shard run.
* **Worker engine** -- a shard-local direct ``run_online`` config
  (reliable transport, no failures) is byte-identical across shard counts,
  including the float-sum-sensitive energy totals.  This exercises the
  multi-process worker/merge path.
* **Engine fan-out** -- ``run_service_many`` is byte-identical serially
  and over 4 worker processes, and dedupes duplicate configs.

``config_hash`` and the ``shard_mode`` / ``shard_mode_reason`` extras are
the only fields allowed to differ between a ``shards=4`` and a
``shards=1`` RunResult (the config serializes ``shards`` when > 1, and
sharded runs record which execution mode actually ran -- that is what
keeps all pre-sharding hashes stable), so golden comparisons normalize
them before hashing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import ExperimentEngine
from repro.api.service import ServiceConfig
from repro.core.online import run_online
from repro.vehicles.fleet import FleetConfig
from repro.workloads.arrivals import random_arrivals
from repro.workloads.library import build_family_demand, family_config

GOLDEN_PATH = Path(__file__).parent / "data" / "flat_core_goldens.json"
GOLDENS = json.loads(GOLDEN_PATH.read_text())

SEED = 1
PRESET = "small"
SHARDS = 4

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


def _without_shard_bookkeeping(result, base_hash):
    """``result`` with the 1-shard config hash and no ``shard_mode*`` extras."""
    extras = {
        key: value
        for key, value in result.extras_dict().items()
        if not key.startswith("shard_mode")
    }
    return dataclasses.replace(result, config_hash=base_hash, extras=extras)


@pytest.fixture(scope="module")
def engine():
    return ExperimentEngine()


class TestGoldenShardInvariance:
    """Every golden config, run at shards=4, still hits its golden digest."""

    @pytest.mark.parametrize("key", sorted(GOLDENS))
    def test_sharded_run_matches_golden(self, key, engine):
        family, label = key.rsplit("/", 1)
        solver, overrides = MODES[label]
        config = family_config(
            family, solver, seed=SEED, preset=PRESET, **overrides
        ).replace(shards=SHARDS)
        result = engine.run(config)
        # Shard bookkeeping (mode + fallback reason) is recorded in extras
        # only when shards > 1; like config_hash it is normalized out --
        # golden identity covers the physical result, not the execution
        # mode that produced it.
        normalized = _without_shard_bookkeeping(
            result, config.replace(shards=1).config_hash()
        )
        assert _digest(normalized) == GOLDENS[key], (
            f"{key}: a {SHARDS}-shard run diverged from the 1-shard golden"
        )


class TestDefaultChannelShards:
    """A run with no transport takes the reliable channel, which shards."""

    @pytest.fixture(scope="class")
    def config(self):
        return family_config(
            "scale-up", "online", seed=0, side=12, per_point=1.0,
            params={"monitoring": "ring"},
        ).replace(omega=3.0)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_engine_run_fans_out_and_matches_one_shard(self, config, shards, engine):
        assert config.transport is None
        base = engine.run(config)
        assert base.extras_dict()["transport"] == "reliable"
        sharded = engine.run(config.replace(shards=shards))
        assert sharded.extras_dict()["shard_mode"] == "parallel-lockstep"
        normalized = _without_shard_bookkeeping(sharded, base.config_hash)
        assert normalized.canonical_json() == base.canonical_json()


class TestParallelModeByteIdentity:
    """The multi-process worker path reproduces every observable field."""

    FIELDS = (
        "jobs_total",
        "jobs_served",
        "feasible",
        "max_vehicle_energy",
        "total_travel",
        "total_service",
        "omega",
        "omega_star",
        "capacity",
        "theorem_capacity",
        "replacements",
        "searches",
        "failed_replacements",
        "messages",
        "heartbeat_rounds",
        "vehicle_energies",
        "events_processed",
        "sim_time",
        "transport",
        "messages_dropped",
        "messages_corrupted",
    )

    @pytest.fixture(scope="class")
    def workload(self):
        demand = build_family_demand("scale-up", {"side": 12, "per_point": 2.0})
        return random_arrivals(demand, np.random.default_rng(0))

    @pytest.fixture(scope="class")
    def baseline(self, workload):
        return run_online(
            workload, capacity="theorem", config=FleetConfig()
        )

    @pytest.mark.parametrize("shards", [2, 4, 7])
    def test_identical_across_shard_counts(self, workload, baseline, shards):
        sharded = run_online(
            workload,
            capacity="theorem",
            config=FleetConfig(),
            shards=shards,
        )
        assert sharded.shards == shards
        assert sharded.shard_mode == "parallel-lockstep"
        for field in self.FIELDS:
            assert getattr(sharded, field) == getattr(baseline, field), field

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True])
    def test_shards_validation(self, workload, bad):
        with pytest.raises(ValueError):
            run_online(workload, shards=bad)


class TestEngineServiceFanout:
    """run_service_many: worker determinism + caching, like run_many."""

    @staticmethod
    def _items():
        demand_a = build_family_demand("scale-up", {"side": 8, "per_point": 2.0})
        demand_b = build_family_demand("scale-up", {"side": 10, "per_point": 2.0})
        a = ServiceConfig.from_demand(demand_a)
        b = ServiceConfig.from_demand(demand_b)
        return [(a, 30), (b, 30), (a, 30)]

    @pytest.fixture(scope="class")
    def serial(self):
        engine = ExperimentEngine(workers=1)
        results = engine.run_service_many(self._items())
        return engine, results

    def test_duplicates_solved_once_and_filled(self, serial):
        engine, results = serial
        assert engine.stats.executed == 2
        assert results[0].result_hash() == results[2].result_hash()

    def test_four_processes_byte_identical(self, serial):
        _, base = serial
        engine = ExperimentEngine(workers=4)
        results = engine.run_service_many(self._items())
        assert [r.canonical_json() for r in results] == [
            r.canonical_json() for r in base
        ]

    def test_disk_cache_round_trip(self, serial, tmp_path):
        _, base = serial
        (config, jobs), *_ = self._items()
        first = ExperimentEngine(workers=1, cache_dir=tmp_path)
        a = first.run_service(config, jobs)
        second = ExperimentEngine(workers=1, cache_dir=tmp_path)
        b = second.run_service(config, jobs)
        assert second.stats.executed == 0
        assert second.stats.disk_cache_hits == 1
        assert a.canonical_json() == b.canonical_json()
        assert a.canonical_json() == base[0].canonical_json()
