"""Tests for the JSON serialization round-trips."""

from __future__ import annotations

import pytest

from repro.core.demand import DemandMap, JobSequence
from repro.core.plan import build_cube_plan
from repro.io.serialize import (
    demand_from_json,
    demand_to_json,
    jobs_from_json,
    jobs_to_json,
    load_json,
    plan_from_json,
    plan_to_json,
    save_json,
)
from repro.workloads.generators import square_demand


class TestDemandRoundTrip:
    def test_round_trip(self):
        demand = DemandMap({(0, 0): 2.5, (3, -1): 4.0})
        assert demand_from_json(demand_to_json(demand)) == demand

    def test_empty_round_trip(self):
        demand = DemandMap({}, dim=3)
        restored = demand_from_json(demand_to_json(demand))
        assert restored.is_empty()
        assert restored.dim == 3

    def test_wrong_payload_type_rejected(self):
        with pytest.raises(ValueError):
            demand_from_json({"type": "something_else"})


class TestJobsRoundTrip:
    def test_round_trip(self):
        jobs = JobSequence.from_positions([(0, 0), (1, 2), (0, 0)])
        restored = jobs_from_json(jobs_to_json(jobs))
        assert restored.positions() == jobs.positions()
        assert [j.time for j in restored] == [j.time for j in jobs]

    def test_wrong_payload_type_rejected(self):
        with pytest.raises(ValueError):
            jobs_from_json({"type": "demand_map"})


class TestPlanRoundTrip:
    def test_round_trip_preserves_energy_accounting(self):
        demand = square_demand(3, 6.0)
        plan = build_cube_plan(demand)
        restored = plan_from_json(plan_to_json(plan))
        assert restored.max_vehicle_energy() == pytest.approx(plan.max_vehicle_energy())
        assert restored.total_energy() == pytest.approx(plan.total_energy())
        assert restored.served_by_position() == plan.served_by_position()
        assert restored.metadata == plan.metadata

    def test_wrong_payload_type_rejected(self):
        with pytest.raises(ValueError):
            plan_from_json({"type": "job_sequence"})


class TestFileIO:
    def test_save_and_load(self, tmp_path):
        demand = DemandMap({(1, 1): 3.0})
        path = tmp_path / "demand.json"
        save_json(demand_to_json(demand), path)
        assert demand_from_json(load_json(path)) == demand

    def test_save_json_pretty_prints(self, tmp_path):
        path = tmp_path / "report.json"
        save_json({"b": 1, "a": [2]}, path)
        assert path.read_text() == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}'
