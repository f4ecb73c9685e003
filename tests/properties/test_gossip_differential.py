"""The differential suite's gossip-monitoring axis.

Three relations pin the epidemic detector without any goldens:

* **ring/gossip equivalence** -- on failure-free runs the detector mode
  is pure observation: gossip reaches the same omega*, serves the same
  jobs, and drains the same per-vehicle energies as the classical ring
  (only the message count differs, by exactly the digest traffic);
* **worker-count determinism** -- gossip failure-mode runs are
  byte-identical across 1 thread, 4 threads, and 4 processes (peer
  selection is keyed-hash, never a shared RNG);
* **shard determinism** -- a sharded gossip run falls back to the
  single-process lockstep engine (digest fanout is fleet-wide, so every
  round crosses cube -- hence shard -- boundaries), recording a
  ``shard_mode_reason`` that names gossip, with byte-identical physics.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentEngine, FailureSpec, RunConfig, ScenarioSpec
from repro.core.demand import DemandMap, JobSequence
from repro.core.online import run_online
from repro.vehicles.fleet import FleetConfig

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

    def test_four_threads_byte_identical(self, serial_payload):
        engine = ExperimentEngine(workers=4)
        assert engine.results_payload(engine.run_many(self._configs())) == serial_payload

    def test_four_processes_byte_identical(self, serial_payload):
        engine = ExperimentEngine(workers=4, use_processes=True)
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

    def test_shard_mode_reason_names_gossip(self):
        sharded = self._run(4)
        assert sharded.shard_mode == "single-process"
        assert "gossip" in sharded.shard_mode_reason
