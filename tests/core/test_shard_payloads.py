"""The coordinator side of a multi-process run: splitting work by shard.

``_shard_payloads`` turns one run into per-shard worker payloads.  These
tests pin what each payload must carry for the workers to rebuild exactly
their slice of the single-process run: the demand and jobs of the cubes
they own, the replicated arrival clock when fleet-wide state advances on
arrivals, the churn they own, and nothing that fails to pickle.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.demand import JobSequence
from repro.core.online import _ShardPartition, _shard_payloads
from repro.distsim.failures import ChurnSpec, FailurePlan, PartitionSpec
from repro.distsim.transport import TransportSpec
from repro.vehicles.fleet import FleetConfig

OMEGA = 3.0
SHARDS = 4


@pytest.fixture(scope="module")
def jobs():
    rng = np.random.default_rng(11)
    pts = rng.integers(0, 24, size=(60, 2))
    return JobSequence.from_positions([tuple(int(c) for c in p) for p in pts])


def _payloads(jobs, config=FleetConfig(), failure_plan=None, churn=(), transport=None):
    return _shard_payloads(
        jobs,
        jobs.demand_map(),
        OMEGA,
        None,
        config,
        transport,
        SHARDS,
        failure_plan,
        None,
        churn,
    )


class TestShardPayloads:
    def test_one_payload_per_nonempty_shard_in_shard_order(self, jobs):
        payloads = _payloads(jobs)
        shards = [payload["shard"] for payload in payloads]
        assert shards == sorted(shards)
        assert all(payload["entries"] for payload in payloads)
        split = _ShardPartition(jobs, jobs.demand_map(), OMEGA, SHARDS)
        assert shards == [s for s in range(SHARDS) if split.entries_by_shard[s]]

    def test_jobs_and_demand_partition_by_owning_cube(self, jobs):
        payloads = _payloads(jobs)
        lut, side = payloads[0]["shard_lut"], payloads[0]["cube_side"]
        lo = payloads[0]["window_lo"]

        def owner(point):
            return int(lut[tuple((c - low) // side for c, low in zip(point, lo))])

        served = []
        demand = {}
        for payload in payloads:
            for _time, position, _energy in payload["jobs"]:
                assert owner(position) == payload["shard"]
                served.append(position)
            for point, value in payload["entries"]:
                assert owner(point) == payload["shard"]
                demand[point] = value
        assert sorted(served) == sorted(job.position for job in jobs)
        assert demand == jobs.demand_map().as_dict()

    def test_no_clock_replication_without_monitoring_or_partitions(self, jobs):
        assert all(payload["foreign_times"] == [] for payload in _payloads(jobs))

    def test_monitoring_replicates_every_foreign_arrival(self, jobs):
        payloads = _payloads(jobs, config=FleetConfig(monitoring=True))
        for payload in payloads:
            own = len(payload["jobs"])
            assert len(payload["foreign_times"]) == len(jobs) - own
            assert payload["foreign_times"] == sorted(payload["foreign_times"])

    def test_partition_windows_alone_need_the_replicated_clock(self, jobs):
        plan = FailurePlan()
        plan.add_partition(PartitionSpec(start=5.0, end=20.0, axis=0, boundary=12))
        payloads = _payloads(jobs, failure_plan=plan)
        total = sum(len(payload["foreign_times"]) for payload in payloads)
        assert total == (len(payloads) - 1) * len(jobs)

    def test_churn_is_replicated_and_owned_once(self, jobs):
        positions = sorted({job.position for job in jobs})
        churn = (
            ChurnSpec(time=9.0, vertex=positions[-1], action="leave"),
            ChurnSpec(time=3.0, vertex=positions[0], action="leave"),
            ChurnSpec(time=6.0, vertex=positions[0], action="join"),
            ChurnSpec(time=4.0, vertex=(500, 500), action="leave"),  # off-grid
        )
        payloads = _payloads(jobs, churn=churn)
        for payload in payloads:
            assert [spec.time for spec in payload["churn"]] == [3.0, 4.0, 6.0, 9.0]
        assert sum(payload["churn_owned"] for payload in payloads) == len(churn)

    def test_transport_spec_travels_as_json(self, jobs):
        spec = TransportSpec(
            kind="lossy", params={"loss": 0.1, "seed": 2, "stream": "edge"}
        )
        payloads = _payloads(jobs, transport=spec)
        assert all(payload["transport"] == spec.to_json() for payload in payloads)
        assert TransportSpec.from_json(payloads[0]["transport"]) == spec

    def test_payloads_pickle_for_worker_processes(self, jobs):
        plan = FailurePlan()
        plan.crash(jobs[0].position)
        payloads = _payloads(
            jobs, config=FleetConfig(monitoring=True), failure_plan=plan
        )
        for payload in payloads:
            restored = pickle.loads(pickle.dumps(payload))
            assert restored["jobs"] == payload["jobs"]
            assert np.array_equal(restored["shard_lut"], payload["shard_lut"])


class TestShardPartition:
    def test_off_grid_vertices_fall_back_to_the_default(self, jobs):
        split = _ShardPartition(jobs, jobs.demand_map(), OMEGA, SHARDS)
        lo = split.window.lo
        below = tuple(c - split.cube_side for c in lo)
        assert split.shard_of_vertex(below, default=-1) == -1
        assert split.shard_of_vertex((10**6, 10**6), default=-2) == -2
        assert split.shard_of_vertex(("x", 0), default=-3) == -3

    def test_on_grid_vertices_map_through_the_plan(self, jobs):
        split = _ShardPartition(jobs, jobs.demand_map(), OMEGA, SHARDS)
        for job, shard in zip(jobs, split.job_shards):
            assert split.shard_of_vertex(job.position, default=-1) == shard
