"""The differential suite's gossip-monitoring axis.

Three relations pin the epidemic detector without any goldens:

* **ring/gossip equivalence** -- on failure-free runs the detector mode
  is pure observation: gossip reaches the same omega*, serves the same
  jobs, and drains the same per-vehicle energies as the classical ring
  (only the message count differs, by exactly the digest traffic);
* **worker-count determinism** -- gossip failure-mode runs are
  byte-identical serially and over 4 worker processes (peer selection
  is keyed-hash, never a shared RNG);
* **shard determinism** -- digests stay inside the sender's cube and
  shards own whole cubes, so a sharded gossip run without recovery rounds
  runs in ``parallel-lockstep`` worker processes, byte-identical to the
  unsharded run at 4 and 8 shards; with recovery rounds it falls back to
  one process for that reason alone, with byte-identical physics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExperimentEngine, FailureSpec, RunConfig, ScenarioSpec
from repro.core.demand import DemandMap, JobSequence
from repro.core.online import run_online
from repro.distsim.failures import FailurePlan
from repro.distsim.transport import TransportSpec
from repro.vehicles.fleet import FleetConfig
from repro.workloads.arrivals import random_arrivals
from repro.workloads.library import build_family_demand

GRID_4 = DemandMap({(x, y): 2.0 for x in range(4) for y in range(4)})
GRID_3 = DemandMap({(x, y): 3.0 for x in range(3) for y in range(3)})

#: (name, demand, omega, capacity, crashed) -- each one cube with enough
#: pairs for the default suspicion threshold and quorum.
SCENARIOS = [
    ("gossip-4x4", GRID_4, 4.0, 64.0, ((0, 0),)),
    ("gossip-3x3", GRID_3, 3.0, 64.0, ((1, 1),)),
]


def _jobs(demand):
    return JobSequence.from_positions(sorted(demand.support()) * 2)


def _physical_fingerprint(result):
    # Everything the fleet *did* -- deliberately excluding message counts,
    # which legitimately differ between ring and gossip (digest traffic).
    return (
        result.jobs_served,
        result.feasible,
        result.max_vehicle_energy,
        result.total_travel,
        result.total_service,
        result.replacements,
        result.searches,
        tuple(sorted(result.vehicle_energies.items())),
    )


class TestRingGossipEquivalence:
    @pytest.mark.parametrize(
        "name,demand,omega,capacity,crashed", SCENARIOS, ids=[s[0] for s in SCENARIOS]
    )
    def test_failure_free_physics_identical(self, name, demand, omega, capacity, crashed):
        jobs = _jobs(demand)
        ring = run_online(
            jobs, omega=omega, capacity=capacity, config=FleetConfig(monitoring=True)
        )
        gossip = run_online(
            jobs,
            omega=omega,
            capacity=capacity,
            config=FleetConfig(monitoring="gossip"),
        )
        assert _physical_fingerprint(ring) == _physical_fingerprint(gossip)
        assert ring.omega_star == gossip.omega_star
        assert gossip.monitoring_mode == "gossip"
        assert gossip.suspicions == 0
        assert gossip.detections == 0

    def test_gossip_messages_exceed_ring_messages(self, ):
        jobs = _jobs(GRID_4)
        ring = run_online(
            jobs, omega=4.0, capacity=64.0, config=FleetConfig(monitoring=True)
        )
        gossip = run_online(
            jobs, omega=4.0, capacity=64.0, config=FleetConfig(monitoring="gossip")
        )
        assert gossip.messages > ring.messages  # digests are real traffic


class TestGossipWorkerDeterminism:
    def _configs(self):
        return [
            RunConfig(
                solver="online-broken",
                scenario=ScenarioSpec.from_demand(demand, name=name, order="sequential"),
                capacity=capacity,
                omega=omega,
                failures=FailureSpec(crashed=crashed),
                recovery_rounds=12,
                params={"monitoring": "gossip"},
            )
            for name, demand, omega, capacity, crashed in SCENARIOS
        ]

    @pytest.fixture(scope="class")
    def serial_payload(self) -> str:
        engine = ExperimentEngine(workers=1)
        return engine.results_payload(engine.run_many(self._configs()))

    def test_four_processes_byte_identical(self, serial_payload):
        engine = ExperimentEngine(workers=4)
        assert engine.results_payload(engine.run_many(self._configs())) == serial_payload

    def test_rerun_byte_identical(self, serial_payload):
        engine = ExperimentEngine(workers=1)
        assert engine.results_payload(engine.run_many(self._configs())) == serial_payload


class TestGossipShardDeterminism:
    def _run(self, shards):
        return run_online(
            _jobs(GRID_4),
            omega=4.0,
            capacity=64.0,
            config=FleetConfig(monitoring="gossip"),
            dead_vehicles=[(0, 0)],
            recovery_rounds=12,
            shards=shards,
        )

    def test_sharded_run_is_byte_identical_to_unsharded(self):
        unsharded = self._run(1)
        sharded = self._run(4)
        assert _physical_fingerprint(sharded) == _physical_fingerprint(unsharded)
        assert sharded.messages == unsharded.messages
        assert sharded.suspicions == unsharded.suspicions
        assert sharded.detection_p50 == unsharded.detection_p50

    def test_recovery_rounds_keep_the_run_single_process(self):
        sharded = self._run(4)
        assert sharded.shard_mode == "single-process"
        assert sharded.shard_mode_reason.startswith("recovery_rounds")


def _cube(cx, cy):
    return [(x, y) for x in range(3 * cx, 3 * cx + 3) for y in range(3 * cy, 3 * cy + 3)]


class TestGossipParallelLockstep:
    """A side-12 lossy gossip crash run without recovery rounds shards."""

    SHARDS = (1, 4, 8)

    @staticmethod
    def _run(shards):
        demand = build_family_demand("scale-up", {"side": 12, "per_point": 1.0})
        plan = FailurePlan()
        plan.mark_byzantine_watcher(_cube(2, 2)[-1])
        return run_online(
            random_arrivals(demand, np.random.default_rng(0)),
            omega=3.0,
            capacity="theorem",
            config=FleetConfig(monitoring="gossip"),
            # Six dead in the first cube, two in a middle and two in the last.
            dead_vehicles=_cube(0, 0)[:6] + _cube(2, 2)[:2] + _cube(3, 3)[:2],
            failure_plan=plan,
            transport=TransportSpec("lossy", {"loss": 0.05, "delay": 0.02, "seed": 3}),
            recovery_rounds=0,
            shards=shards,
            shard_workers=2,
        )

    @staticmethod
    def _fingerprint(result):
        return _physical_fingerprint(result) + (
            result.failed_replacements,
            result.messages,
            result.messages_dropped,
            result.suspicions,
            result.heartbeat_rounds,
            result.events_processed,
            result.sim_time,
        )

    @pytest.fixture(scope="class")
    def runs(self):
        return {shards: self._run(shards) for shards in self.SHARDS}

    def test_unsharded_run_detects_and_replaces(self, runs):
        assert runs[1].suspicions > 0 and runs[1].replacements > 0
        assert runs[1].messages_dropped > 0

    @pytest.mark.parametrize("shards", SHARDS[1:])
    def test_sharded_run_is_parallel_and_byte_identical(self, runs, shards):
        assert runs[shards].shard_mode == "parallel-lockstep"
        assert self._fingerprint(runs[shards]) == self._fingerprint(runs[1])
