"""Parallel lockstep suite: multi-process failure-mode runs, byte for byte.

The multi-process shard engine covers every failure mode whose protocol
traffic is provably shard-local (monitoring without escalation, crashes,
suppression, partitions, churn, every spec-built transport).  This suite
pins the contract:

* **Byte identity** -- a full failure-mode configuration produces the same
  result at shards=1, 4, 8 and at any worker count, and under every
  transport kind, through the ``parallel-lockstep`` mode (asserted, not
  assumed).
* **Eligibility** -- every disqualifying feature names itself: the
  recorded ``shard_mode_reason`` is the first structural property that
  forced the single-process fallback, and the fallback itself stays
  byte-identical.
* **Resume** -- a service checkpoint whose embedded config still carries
  the retired ``shards`` key resumes to the same ``result_hash`` /
  ``fleet_digest``.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.core.demand import JobSequence
from repro.core.online import run_online
from repro.distsim.failures import ChurnSpec, FailurePlan, PartitionSpec
from repro.distsim.parallel_lockstep import parallel_lockstep_eligibility
from repro.distsim.transport import TRANSPORT_KINDS, LossyTransport, TransportSpec
from repro.vehicles.fleet import FleetConfig

#: Every field two runs must agree on to count as byte-identical.
FIELDS = (
    "jobs_total",
    "jobs_served",
    "feasible",
    "max_vehicle_energy",
    "total_travel",
    "total_service",
    "replacements",
    "searches",
    "failed_replacements",
    "messages",
    "heartbeat_rounds",
    "events_processed",
    "sim_time",
    "messages_dropped",
    "messages_corrupted",
    "escalations",
    "escalated_replacements",
    "adoptions",
    "vehicle_energies",
)


def _assert_identical(a, b):
    for field in FIELDS:
        assert getattr(a, field) == getattr(b, field), field


@pytest.fixture(scope="module")
def failure_workload():
    """A failure-heavy workload: crashes, suppression, a partition, churn."""
    rng = np.random.default_rng(7)
    pts = rng.integers(0, 16, size=(100, 2))
    positions = [tuple(int(c) for c in pts[i % len(pts)]) for i in range(120)]
    jobs = JobSequence.from_positions(positions)
    ids = sorted({tuple(int(c) for c in p) for p in pts})
    plan = FailurePlan()
    for v in ids[::17]:
        plan.crash(v)
    for v in ids[3::23]:
        plan.suppress_initiation(v)
    plan.add_partition(PartitionSpec(start=25.0, end=60.0, axis=0, boundary=8))
    churn = [
        ChurnSpec(time=20.0, vertex=ids[5], action="leave"),
        ChurnSpec(time=45.0, vertex=ids[5], action="join"),
        ChurnSpec(time=70.0, vertex=ids[9], action="leave"),
    ]
    dead = [ids[2], ids[11]]
    return jobs, plan, churn, dead


@pytest.fixture(scope="module")
def tiny_workload():
    """A minimal monitored workload for mode/reason assertions only."""
    rng = np.random.default_rng(3)
    pts = rng.integers(0, 8, size=(30, 2))
    positions = [tuple(int(c) for c in pts[i % len(pts)]) for i in range(40)]
    return JobSequence.from_positions(positions)


LOSSY = TransportSpec(kind="lossy", params={"loss": 0.08, "delay": 0.02, "seed": 3})

#: One spec per transport kind, plus retransmit over a lossy inner channel.
TRANSPORTS = {
    "reliable": TransportSpec("reliable", {"delay": 0.02}),
    "latency": TransportSpec("latency", {"delay": 0.01, "jitter": 0.02, "seed": 4}),
    "distance-latency": TransportSpec("distance-latency"),
    "lossy": TransportSpec("lossy", {"loss": 0.05, "seed": 3}),
    "corrupting": TransportSpec("corrupting", {"rate": 0.1, "delay": 0.02, "seed": 5}),
    "retransmit": TransportSpec("retransmit", {"timeout": 0.1}),
    "retransmit-over-lossy": TransportSpec(
        "retransmit",
        {
            "inner": {"kind": "lossy", "params": {"loss": 0.2, "delay": 0.02, "seed": 3}},
            "retries": 2,
            "timeout": 0.1,
        },
    ),
}


class TestParallelLockstepByteIdentity:
    """Failure-mode runs: multi-process == single-process, bit for bit."""

    def _run(self, workload, shards, workers=None, transport=LOSSY):
        jobs, plan, churn, dead = workload
        return run_online(
            jobs,
            omega=3.0,
            capacity="theorem",
            config=FleetConfig(monitoring=True),
            failure_plan=copy.deepcopy(plan),
            dead_vehicles=dead,
            churn=churn,
            transport=transport,
            shards=shards,
            shard_workers=workers,
        )

    @pytest.fixture(scope="class")
    def baseline(self, failure_workload):
        return self._run(failure_workload, 1)

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_identical_across_shard_counts(self, failure_workload, baseline, shards):
        sharded = self._run(failure_workload, shards)
        assert sharded.shard_mode == "parallel-lockstep"
        assert sharded.shard_mode_reason == ""
        _assert_identical(baseline, sharded)

    def test_identical_at_any_worker_count(self, failure_workload, baseline):
        # The worker pool size is pure scheduling: each shard is a closed
        # deterministic sub-simulation, so serializing them changes nothing.
        serial = self._run(failure_workload, 4, workers=1)
        assert serial.shard_mode == "parallel-lockstep"
        _assert_identical(baseline, serial)

    def test_every_transport_kind_is_covered(self):
        assert {spec.kind for spec in TRANSPORTS.values()} == set(TRANSPORT_KINDS)

    @pytest.mark.parametrize("name", sorted(TRANSPORTS))
    def test_identical_under_every_transport(self, failure_workload, name):
        spec = TRANSPORTS[name]
        base = self._run(failure_workload, 1, transport=spec)
        sharded = self._run(failure_workload, 4, transport=spec)
        assert sharded.shard_mode == "parallel-lockstep"
        assert sharded.shard_mode_reason == ""
        _assert_identical(base, sharded)
        if name == "corrupting":
            assert base.messages_corrupted > 0
        if name.endswith("lossy"):
            assert base.messages_dropped > 0


class TestKeyedDrawsAtEveryShardCount:
    """Every keyed draw -- loss, corruption, gossip peers -- depends only
    on its edge or vehicle, never on which sub-fleet makes it: shards=2,
    4 and 8 reproduce the single-process run bit for bit.  (The lossy
    ring run is :class:`TestParallelLockstepByteIdentity`'s.)"""

    RUNS = {
        "gossip-lossy": ("gossip", LOSSY),
        "ring-corrupting": ("ring", TRANSPORTS["corrupting"]),
    }

    def _run(self, workload, name, shards):
        monitoring, transport = self.RUNS[name]
        jobs, plan, churn, dead = workload
        return run_online(
            jobs,
            omega=3.0,
            capacity="theorem",
            config=FleetConfig(monitoring=monitoring),
            failure_plan=copy.deepcopy(plan),
            dead_vehicles=dead,
            churn=churn,
            transport=transport,
            shards=shards,
            shard_workers=2,
        )

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_identical_at_shards_1_2_4_8(self, failure_workload, name):
        base = self._run(failure_workload, name, 1)
        if name.endswith("lossy"):
            assert base.messages_dropped > 0
        else:
            assert base.messages_corrupted > 0
        for shards in (2, 4, 8):
            sharded = self._run(failure_workload, name, shards)
            assert sharded.shard_mode == "parallel-lockstep", shards
            _assert_identical(base, sharded)


class TestEligibilityAndFallback:
    """Disqualified configs run single-process -- attributably, exactly."""

    def _run(self, jobs, shards, **overrides):
        kwargs = dict(
            omega=3.0,
            config=FleetConfig(monitoring=True),
            transport=LOSSY,
            shards=shards,
        )
        kwargs.update(overrides)
        return run_online(jobs, **kwargs)

    def test_caller_owned_instance_falls_back_identically(self, failure_workload):
        jobs, plan, churn, dead = failure_workload
        kwargs = dict(churn=churn, dead_vehicles=dead)
        base = self._run(jobs, 1, failure_plan=copy.deepcopy(plan), **kwargs)
        sharded = self._run(
            jobs, 4, failure_plan=copy.deepcopy(plan), transport=LOSSY.build(), **kwargs
        )
        assert sharded.shard_mode == "single-process"
        assert sharded.shard_mode_reason.startswith("caller-owned transport instance")
        _assert_identical(base, sharded)

    def test_escalation_reason(self, tiny_workload):
        result = self._run(
            tiny_workload,
            4,
            config=FleetConfig(monitoring=True, escalation=True),
        )
        assert result.shard_mode == "single-process"
        assert result.shard_mode_reason.startswith("escalation")

    def test_recovery_rounds_reason(self, tiny_workload):
        result = self._run(tiny_workload, 4, recovery_rounds=2)
        assert result.shard_mode == "single-process"
        assert result.shard_mode_reason.startswith("recovery_rounds")

    def test_single_shard_records_no_mode(self, tiny_workload):
        result = self._run(tiny_workload, 1)
        assert result.shard_mode == ""
        assert result.shard_mode_reason == ""

    def test_failure_free_config_takes_the_workers(self, tiny_workload):
        # No failures, pure-edge transport, no monitoring: the simplest
        # shard-local configuration runs on the same worker engine.
        base = run_online(tiny_workload, omega=3.0, transport="latency")
        result = run_online(tiny_workload, omega=3.0, transport="latency", shards=4)
        assert result.shard_mode == "parallel-lockstep"
        assert result.shard_mode_reason == ""
        _assert_identical(base, result)

    def test_eligibility_unit_reasons(self):
        config = FleetConfig(monitoring=True)
        ok, reason = parallel_lockstep_eligibility("lossy", config, None, 0)
        assert ok and reason == ""
        plan = FailurePlan()
        plan.drop_predicates.append(lambda *a: False)
        ok, reason = parallel_lockstep_eligibility("lossy", config, plan, 0)
        assert not ok and "drop predicates" in reason
        ok, reason = parallel_lockstep_eligibility(
            LossyTransport(), config, None, 0
        )
        assert not ok and "caller-owned" in reason
        ok, reason = parallel_lockstep_eligibility(None, config, None, 0)
        assert ok  # fixed-delay reliable default, rebuilt per worker


class TestServiceShardResume:
    """A checkpoint written with ``"shards": N`` in its config still resumes.

    Service runs used to accept an observe-only ``shards`` setting and
    embedded it in every checkpoint's config.  The key is ignored now, so
    such a snapshot must resume to the uninterrupted run's exact bytes.
    """

    def test_resume_from_sharded_config_checkpoint(self, tmp_path):
        from repro.api.service import ServiceConfig
        from repro.service import resume_service, run_service
        from repro.workloads.arrivals import streaming_arrivals
        from repro.workloads.library import build_family_demand

        demand = build_family_demand("scale-up", {"side": 8, "per_point": 2.0})
        config = ServiceConfig.from_demand(demand, checkpoint_every=1, window_jobs=20)
        jobs = lambda: streaming_arrivals(demand, jobs=80)
        snap = tmp_path / "snap.json"
        full = run_service(config, jobs())
        interrupted = run_service(
            config, jobs(), checkpoint_path=snap, stop_after_checkpoints=1
        )
        assert interrupted.interrupted

        payload = json.loads(snap.read_text())
        payload["config"]["shards"] = 4
        snap.write_text(json.dumps(payload))
        resumed = resume_service(snap, jobs())
        assert resumed.resumed
        assert resumed.result_hash() == full.result_hash()
        assert resumed.fleet_digest == full.fleet_digest
