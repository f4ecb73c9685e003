"""Unit suite for the multi-process shard engine.

:mod:`repro.distsim.parallel_lockstep` reduces to pieces the byte-identity
property suite only exercises end to end:

* ``merge_parallel_lockstep_results`` -- counters sum except the
  replicated/extremal ones, and per-cube energy segments replay in global
  lex cube order whatever order the workers returned them in.
* ``owning_shard`` -- a vertex maps to its cube's shard through the
  dense lookup table, and to ``None`` off it.
* the worker's isolation -- a cross-shard send raises an error naming
  both shards, while shard-local broadcasts skip the failure plan's
  per-destination checks.
* ``parallel_lockstep_eligibility`` -- which configurations may fan out,
  and the first disqualifying feature otherwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.demand import JobSequence
from repro.core.online import _ShardPartition, _shard_payloads
from repro.core.stream import StreamDriver
from repro.distsim.failures import FailurePlan
from repro.distsim.parallel_lockstep import (
    merge_parallel_lockstep_results,
    owning_shard,
    parallel_lockstep_eligibility,
    run_parallel_lockstep,
)
from repro.distsim.transport import TransportSpec
from repro.vehicles.fleet import FleetConfig


def _result(shard, counters, segments, elapsed=0.5):
    return {
        "shard": shard,
        "counters": counters,
        "segments": segments,
        "elapsed": elapsed,
    }


class TestMerge:
    def test_counters_sum(self):
        merged = merge_parallel_lockstep_results(
            [
                _result(0, {"messages": 3, "replacements": 1, "jobs_served": 10}, []),
                _result(1, {"messages": 4, "replacements": 0, "jobs_served": 7}, []),
            ]
        )
        assert merged["messages"] == 7
        assert merged["replacements"] == 1
        assert merged["jobs_served"] == 17

    def test_replicated_and_extremal_counters_take_the_maximum(self):
        # Every worker runs every global heartbeat round, so rounds must not
        # multiply by the shard count; clocks and peak energy are maxima.
        merged = merge_parallel_lockstep_results(
            [
                _result(0, {"heartbeat_rounds": 9, "sim_time": 40.0, "max_vehicle_energy": 2.5}, []),
                _result(1, {"heartbeat_rounds": 9, "sim_time": 41.5, "max_vehicle_energy": 3.0}, []),
                _result(2, {"heartbeat_rounds": 9, "sim_time": 12.0, "max_vehicle_energy": 1.0}, []),
            ]
        )
        assert merged["heartbeat_rounds"] == 9
        assert merged["sim_time"] == 41.5
        assert merged["max_vehicle_energy"] == 3.0

    def test_energies_follow_global_cube_order(self):
        # Worker 1 owns the lex-first cube but reports first-come last.
        first = _result(0, {}, [((1, 0), [(4, 0)], [1.0], [0.5])])
        second = _result(1, {}, [((0, 0), [(0, 0), (1, 1)], [2.0, 0.25], [0.0, 1.0])])
        merged = merge_parallel_lockstep_results([first, second])
        assert list(merged["vehicle_energies"]) == [(0, 0), (1, 1), (4, 0)]
        assert merged["vehicle_energies"] == {(0, 0): 2.0, (1, 1): 1.25, (4, 0): 1.5}
        assert merged["total_travel"] == 3.25
        assert merged["total_service"] == 1.5

    def test_float_totals_replay_the_single_process_addition_order(self):
        # 1e16 + 1.0 - 1e16 is 0.0 in that order but 1.0 summed as
        # 1e16 - 1e16 + 1.0: the merge must add in cube order, not in the
        # order the shards came back.
        segments = {
            (0, 0): [(0, 0)], (0, 1): [(0, 3)], (0, 2): [(0, 6)],
        }
        travel = {(0, 0): 1e16, (0, 1): 1.0, (0, 2): -1e16}
        results = [
            _result(shard, {}, [(index, segments[index], [travel[index]], [0.0])])
            for shard, index in enumerate([(0, 2), (0, 0), (0, 1)])
        ]
        expected = 0.0
        for index in sorted(travel):
            expected += travel[index]
        merged = merge_parallel_lockstep_results(results)
        assert merged["total_travel"] == expected == 0.0

    def test_shard_timings_are_keyed_by_shard(self):
        merged = merge_parallel_lockstep_results(
            [_result(3, {}, [], elapsed=0.2), _result(1, {}, [], elapsed=0.7)]
        )
        assert merged["shard_timings"] == {3: 0.2, 1: 0.7}

    def test_no_results_merge_to_zero_totals(self):
        merged = merge_parallel_lockstep_results([])
        assert merged == {
            "total_travel": 0.0,
            "total_service": 0.0,
            "vehicle_energies": {},
            "shard_timings": {},
        }

    def test_no_payloads_start_no_workers(self):
        assert run_parallel_lockstep([]) == []
        assert run_parallel_lockstep([], workers=4) == []


def _two_shard_jobs():
    return JobSequence.from_positions([(x, y) for x in range(9) for y in range(9)])


def _two_shard_payloads(config):
    """Worker payloads of a 2-shard run over a side-9 grid of 3x3 cubes."""
    jobs = _two_shard_jobs()
    payloads = _shard_payloads(
        jobs, jobs.demand_map(), 3.0, None, config, None, 2, None, None, ()
    )
    assert [payload["shard"] for payload in payloads] == [0, 1]
    return payloads


class TestOwningShard:
    # Cubes of side 2 anchored at window corner (10, -4): cube (i, j) is
    # owned by shard LUT[i, j].
    LUT = np.array([[0, 1], [2, 3]])

    @pytest.mark.parametrize(
        "vertex, shard",
        [((10, -4), 0), ((11, -3), 0), ((10, -2), 1), ((12, -4), 2), ((13, -1), 3)],
    )
    def test_vertex_maps_through_its_cube(self, vertex, shard):
        owner = owning_shard(self.LUT, (10, -4), 2, vertex)
        assert owner == shard and type(owner) is int

    @pytest.mark.parametrize(
        "vertex", [(9, -4), (10, -5), (14, -4), (10, 0), (10,), "p0", None]
    )
    def test_off_the_table_is_none(self, vertex):
        assert owning_shard(self.LUT, (10, -4), 2, vertex) is None

    def test_window_offset_shifts_cube_lookup(self):
        lut = np.array([[0], [1]])
        assert owning_shard(lut, (0, 0), 2, (2, 0)) == 1
        assert owning_shard(lut, (2, 0), 2, (2, 0)) == 0
        assert owning_shard(lut, (2, 0), 2, (0, 0)) is None

    def test_agrees_with_the_payload_split(self):
        payloads = _two_shard_payloads(FleetConfig())
        for payload in payloads:
            assert payload["entries"]
            for point, _ in payload["entries"]:
                owner = owning_shard(
                    payload["shard_lut"], payload["window_lo"],
                    payload["cube_side"], point,
                )
                assert owner == payload["shard"]

    def test_shard_partition_falls_back_off_the_grid(self):
        jobs = _two_shard_jobs()
        partition = _ShardPartition(jobs, jobs.demand_map(), 3.0, 2)
        lo = partition.window.lo
        below = tuple(c - 1 for c in lo)
        assert partition.shard_of_vertex(below, -1) == -1
        assert partition.shard_of_vertex("p0", 7) == 7
        assert partition.shard_of_vertex(tuple(lo), -1) in (0, 1)


class TestWorkerIsolation:
    @pytest.mark.parametrize("via", ["send", "send_many"])
    @pytest.mark.parametrize("home, other", [(0, 1), (1, 0)])
    def test_cross_shard_send_names_both_shards(self, monkeypatch, home, other, via):
        payloads = _two_shard_payloads(FleetConfig())
        foreign = payloads[other]["entries"][0][0]
        run = StreamDriver.run

        def run_after_a_stray_send(driver):
            vehicle = next(iter(driver.fleet.vehicles.values()))
            if via == "send":
                vehicle.send(foreign, "stray")
            else:
                vehicle.send_many([foreign], "stray")
            return run(driver)

        monkeypatch.setattr(StreamDriver, "run", run_after_a_stray_send)
        with pytest.raises(RuntimeError) as raised:
            run_parallel_lockstep(payloads[home : home + 1])
        message = str(raised.value)
        assert f"shard {home} sent to {foreign!r}, owned by shard {other}" in message
        assert "should have run single-process" in message
        assert isinstance(raised.value.__cause__, KeyError)

    def test_shard_local_broadcasts_skip_the_failure_checks(self, monkeypatch):
        # Crash-free and partition-free: every heartbeat broadcast must take
        # the unchecked path, so the plan is never asked to drop a message.
        calls = []
        should_drop = FailurePlan.should_drop

        def counted(plan, *args):
            calls.append(args)
            return should_drop(plan, *args)

        monkeypatch.setattr(FailurePlan, "should_drop", counted)
        payloads = _two_shard_payloads(FleetConfig(monitoring="ring"))
        [result] = run_parallel_lockstep(payloads[:1])
        assert result["counters"]["messages"] > 0
        assert calls == []


class TestEligibility:
    def _check(self, config, *, transport="lossy"):
        return parallel_lockstep_eligibility(transport, config, None, 0)

    def test_config_escalation_is_ineligible(self):
        ok, reason = self._check(FleetConfig(escalation=True))
        assert not ok and reason.startswith("escalation")
        ok, reason = self._check(FleetConfig(escalation=False))
        assert ok and reason == ""

    def test_gossip_monitoring_is_eligible(self):
        # Digests go only to the sender's own cube, and shards own whole cubes.
        ok, reason = self._check(FleetConfig(monitoring="gossip"))
        assert ok and reason == ""

    @pytest.mark.parametrize("kind", ["lossy", "corrupting"])
    def test_seeded_spec_is_eligible_and_its_instance_is_not(self, kind):
        spec = TransportSpec(kind=kind)
        ok, reason = self._check(FleetConfig(monitoring=True), transport=spec)
        assert ok and reason == ""
        ok, reason = self._check(FleetConfig(monitoring=True), transport=spec.build())
        assert not ok and reason.startswith("caller-owned transport instance")

    def test_missing_config_counts_as_the_default_fleet(self):
        ok, reason = self._check(None)
        assert ok and reason == ""
