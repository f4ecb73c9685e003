"""Direct unit tests of the vehicle process (energy ledger, state, failures).

The protocol-level behaviour is covered end to end in ``test_protocol.py``;
these tests pin down the vehicle's local accounting and edge cases without
going through a whole fleet run.
"""

from __future__ import annotations

import math

import pytest

from repro.core.demand import DemandMap
from repro.vehicles.fleet import Fleet, FleetConfig
from repro.vehicles.state import WorkingState


def build_fleet(capacity=10.0, omega=3.0, **kwargs) -> Fleet:
    demand = DemandMap({(0, 0): 5.0})
    return Fleet(demand, omega, FleetConfig(capacity=capacity, **kwargs))


class TestEnergyLedger:
    def test_initial_state(self):
        fleet = build_fleet()
        vehicle = fleet.vehicles[(0, 0)]
        assert vehicle.energy_used == 0.0
        assert vehicle.energy_remaining == 10.0
        assert vehicle.jobs_served == 0

    def test_unbounded_capacity_remaining_is_infinite(self):
        fleet = build_fleet(capacity=None)
        vehicle = fleet.vehicles[(0, 0)]
        assert math.isinf(vehicle.energy_remaining)

    def test_serving_updates_travel_and_service_separately(self):
        fleet = build_fleet()
        vehicle = fleet.vehicles[(0, 0)]
        assert vehicle.serve_job((0, 1))  # adjacent vertex of the pair
        assert vehicle.travel_energy == 1.0
        assert vehicle.service_energy == 1.0
        assert vehicle.position == (0, 1)
        assert vehicle.jobs_served == 1

    def test_refuses_job_beyond_capacity(self):
        fleet = build_fleet(capacity=1.5)
        vehicle = fleet.vehicles[(0, 0)]
        assert vehicle.serve_job((0, 0))  # 1 energy, remaining 0.5 -> done
        assert vehicle.status.working == WorkingState.DONE
        assert not vehicle.serve_job((0, 0))

    def test_idle_vehicle_refuses_jobs(self):
        fleet = build_fleet()
        idle = next(
            v for v in fleet.vehicles.values() if v.status.working == WorkingState.IDLE
        )
        assert not idle.serve_job(idle.identity)
        assert idle.energy_used == 0.0

    def test_snapshot_contents(self):
        fleet = build_fleet()
        vehicle = fleet.vehicles[(0, 0)]
        vehicle.serve_job((0, 0))
        snap = vehicle.snapshot()
        assert snap["home"] == (0, 0)
        assert snap["jobs_served"] == 1
        assert snap["energy_used"] == pytest.approx(1.0)
        assert "state" in snap and "pair" in snap


class TestBrokenVehicles:
    def test_broken_vehicle_refuses_jobs_but_keeps_radio(self):
        fleet = build_fleet(capacity=50.0)
        vehicle = fleet.vehicles[(0, 0)]
        vehicle.mark_broken()
        assert not vehicle.serve_job((0, 0))
        # Its neighbors can still flood queries through it: a Phase I search
        # started by another vehicle terminates (exercised indirectly here by
        # checking the broken vehicle still answers).
        assert vehicle.broken

    def test_broken_idle_vehicle_is_not_a_replacement_candidate(self):
        fleet = build_fleet(capacity=6.0)
        # Break every idle vehicle; exhaust the active one; the replacement
        # search must then fail (recorded, not crash).
        for vehicle in fleet.vehicles.values():
            if vehicle.status.working == WorkingState.IDLE:
                vehicle.mark_broken()
        for _ in range(6):
            fleet.deliver_job((0, 0))
        assert fleet.stats.failed_replacements >= 1
        assert fleet.stats.replacements == 0


class TestDoneThreshold:
    def test_higher_threshold_declares_done_earlier(self):
        early = build_fleet(capacity=10.0, done_threshold=6.0)
        late = build_fleet(capacity=10.0, done_threshold=2.0)
        for fleet in (early, late):
            for _ in range(5):
                fleet.deliver_job((0, 0))
        early_vehicle = early.vehicles[(0, 0)]
        late_vehicle = late.vehicles[(0, 0)]
        assert early_vehicle.status.working == WorkingState.DONE
        assert late_vehicle.status.working == WorkingState.ACTIVE
