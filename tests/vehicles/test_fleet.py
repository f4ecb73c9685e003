"""Tests for fleet construction and basic job routing."""

from __future__ import annotations

import pytest

from repro.core.demand import DemandMap
from repro.vehicles.fleet import Fleet, FleetConfig
from repro.vehicles.state import WorkingState


def point_fleet(total: float = 6.0, capacity=None, omega: float = 3.0, **kwargs) -> Fleet:
    """A fleet for a single demand point at the origin with a 3-cube."""
    demand = DemandMap({(0, 0): total})
    config = FleetConfig(capacity=capacity, **kwargs)
    return Fleet(demand, omega, config)


class TestConstruction:
    def test_requires_nonempty_demand(self):
        with pytest.raises(ValueError):
            Fleet(DemandMap({}, dim=2), 1.0)

    def test_requires_positive_omega(self):
        with pytest.raises(ValueError):
            Fleet(DemandMap({(0, 0): 1.0}), 0.0)

    def test_one_vehicle_per_cube_vertex(self):
        fleet = point_fleet(omega=3.0)
        # A single 3x3 cube around the origin.
        assert len(fleet.vehicles) == 9
        assert fleet.cube_side == 3

    def test_only_cubes_with_demand_get_vehicles(self):
        demand = DemandMap({(0, 0): 2.0, (10, 10): 2.0})
        fleet = Fleet(demand, 2.0, FleetConfig())
        # Two separate 2x2 cubes -> 8 vehicles.
        assert len(fleet.vehicles) == 8

    def test_exactly_one_active_vehicle_per_pair(self):
        fleet = point_fleet(omega=4.0)
        active = [v for v in fleet.vehicles.values() if v.status.working == WorkingState.ACTIVE]
        coloring = next(iter(fleet.colorings.values()))
        assert len(active) == coloring.num_pairs()
        assert len(fleet.registry) == coloring.num_pairs()

    def test_registry_points_to_black_vertices_initially(self):
        fleet = point_fleet(omega=3.0)
        for pair_key, identity in fleet.registry.items():
            assert identity == pair_key

    def test_neighbors_symmetric_and_within_radius(self):
        fleet = point_fleet(omega=3.0)
        from repro.grid.lattice import manhattan

        for vehicle in fleet.vehicles.values():
            for neighbor in vehicle.neighbors:
                assert manhattan(vehicle.identity, neighbor) <= fleet.config.neighbor_radius
                assert vehicle.identity in fleet.vehicles[neighbor].neighbors

    def test_fractional_omega_rounds_cube_side_up(self):
        fleet = point_fleet(omega=2.4)
        assert fleet.cube_side == 3


class TestJobRouting:
    def test_pair_key_of_known_positions(self):
        fleet = point_fleet(omega=3.0)
        pair_key = fleet.pair_key_of((0, 0))
        assert pair_key in fleet.registry

    def test_pair_key_outside_built_cubes_raises(self):
        fleet = point_fleet(omega=3.0)
        with pytest.raises(KeyError):
            fleet.pair_key_of((50, 50))

    def test_deliver_job_serves_and_charges_energy(self):
        fleet = point_fleet(total=3.0, capacity=10.0)
        assert fleet.deliver_job((0, 0))
        vehicle = fleet.responsible_vehicle((0, 0))
        assert vehicle is not None
        assert vehicle.jobs_served >= 1
        assert fleet.max_energy_used() >= 1.0

    def test_job_at_white_vertex_served_by_adjacent_black_vehicle(self):
        demand = DemandMap({(0, 1): 2.0})
        fleet = Fleet(demand, 2.0, FleetConfig(capacity=10.0))
        pair_key = fleet.pair_key_of((0, 1))
        assert fleet.deliver_job((0, 1))
        server = fleet.vehicles[fleet.registry[pair_key]]
        # Walked at most distance one and spent one unit serving.
        assert server.travel_energy <= 1.0
        assert server.service_energy == 1.0

    def test_unserved_job_counted(self):
        fleet = point_fleet(total=5.0, capacity=0.5)  # cannot even serve one job
        served = fleet.deliver_job((0, 0))
        assert not served
        assert fleet.stats.jobs_unserved == 1

    def test_statistics_accumulate(self):
        fleet = point_fleet(total=4.0, capacity=20.0)
        for _ in range(4):
            fleet.deliver_job((0, 0))
        assert fleet.stats.jobs_delivered == 4
        assert fleet.total_service() == pytest.approx(4.0)
        assert fleet.total_travel() == pytest.approx(0.0)

    def test_crash_vehicle_requires_known_identity(self):
        fleet = point_fleet()
        with pytest.raises(KeyError):
            fleet.crash_vehicle((99, 99))

    def test_active_vehicle_count(self):
        fleet = point_fleet(omega=3.0)
        assert fleet.active_vehicle_count() == len(fleet.registry)
