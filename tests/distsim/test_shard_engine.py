"""Unit suite for the multi-process shard engine's pure pieces.

:mod:`repro.distsim.parallel_lockstep` reduces to three functions the
byte-identity property suite only exercises end to end:

* ``merge_parallel_lockstep_results`` -- counters sum except the
  replicated/extremal ones, and per-cube energy segments replay in global
  lex cube order whatever order the workers returned them in.
* ``IsolationGuard`` -- a worker accepts only sends whose both endpoints
  live in its own shard.
* ``parallel_lockstep_eligibility`` -- which configurations may fan out,
  and the first disqualifying feature otherwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distsim.parallel_lockstep import (
    IsolationGuard,
    merge_parallel_lockstep_results,
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


class TestIsolationGuard:
    @staticmethod
    def _guard(shard):
        # Cubes of side 2 along x: cube (0, 0) -> shard 0, (1, 0) -> 1.
        return IsolationGuard(shard, np.array([[0], [1]]), (0, 0), 2)

    def test_another_shards_local_traffic_is_rejected(self):
        # Both endpoints share a shard -- just not the worker's own.
        with pytest.raises(RuntimeError, match="isolation violated"):
            self._guard(1)((0, 0), (1, 1), "ping")

    def test_error_names_both_endpoints_and_the_message_type(self):
        with pytest.raises(RuntimeError) as raised:
            self._guard(0)((1, 0), (2, 1), 3.5)
        message = str(raised.value)
        assert "(1, 0) (shard 0)" in message
        assert "(2, 1) (shard 1)" in message
        assert "float" in message

    def test_window_offset_shifts_cube_lookup(self):
        guard = IsolationGuard(1, np.array([[0], [1]]), (10, -4), 2)
        assert guard.shard_of((10, -4)) == 0
        assert guard.shard_of((12, -3)) == 1
        guard((12, -4), (13, -3), "ping")
        assert guard.checked == 1

    def test_lookup_is_cached_per_identity(self):
        guard = self._guard(0)
        assert guard.shard_of((1, 1)) == 0
        guard.lut = np.array([[1], [1]])  # a cached identity never re-reads
        assert guard.shard_of((1, 1)) == 0
        assert guard.shard_of((0, 0)) == 1


class TestEligibility:
    def _check(self, config, *, transport="lossy", escalation=False):
        return parallel_lockstep_eligibility(
            transport, config, None, None, 0, escalation
        )

    def test_run_level_escalation_override_wins_over_the_config(self):
        ok, reason = self._check(FleetConfig(escalation=True), escalation=False)
        assert ok and reason == ""
        ok, reason = self._check(FleetConfig(escalation=False), escalation=True)
        assert not ok and reason.startswith("escalation")

    def test_config_escalation_applies_without_an_override(self):
        ok, reason = self._check(FleetConfig(escalation=True), escalation=None)
        assert not ok and reason.startswith("escalation")

    def test_gossip_monitoring_reason(self):
        ok, reason = self._check(FleetConfig(monitoring="gossip"))
        assert not ok and reason.startswith("gossip monitoring")

    @pytest.mark.parametrize("kind", ["lossy", "corrupting"])
    def test_seeded_spec_is_eligible_and_its_instance_is_not(self, kind):
        spec = TransportSpec(kind=kind)
        ok, reason = self._check(FleetConfig(monitoring=True), transport=spec)
        assert ok and reason == ""
        ok, reason = self._check(FleetConfig(monitoring=True), transport=spec.build())
        assert not ok and reason.startswith("caller-owned transport instance")

    def test_missing_config_counts_as_the_default_fleet(self):
        ok, reason = self._check(None, escalation=None)
        assert ok and reason == ""
