"""Protocol-level tests for the cross-cube escalation extension.

The intra-cube protocol is pinned by ``test_protocol.py``; this module
covers the new arrows: boundary queries across cube boundaries, the
star-shaped deficit counting at the escalating initiator, idle migration
vs. spare-battery adoption, the fleet-wide watch ring, and the starvation
timeout of escalated rounds under loss.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.demand import DemandMap, JobSequence
from repro.core.online import run_online
from repro.distsim.transport import LossyTransport
from repro.vehicles.fleet import Fleet, FleetConfig
from repro.vehicles.state import WorkingState


def _spread_demand(side=3, stride=3, per_point=2.0):
    return DemandMap(
        {(stride * x, stride * y): per_point for x in range(side) for y in range(side)}
    )


def _fleet(demand=None, *, escalation=True, capacity=24.0, **config):
    demand = demand if demand is not None else _spread_demand()
    return Fleet(
        demand,
        1.0,
        FleetConfig(
            capacity=capacity, monitoring=True, escalation=escalation, **config
        ),
    )


class TestHierarchyWiring:
    def test_singleton_cubes_are_all_active_with_no_idle_peers(self):
        fleet = _fleet()
        assert all(
            vehicle.status.working == WorkingState.ACTIVE
            for vehicle in fleet.vehicles.values()
        )
        assert all(not vehicle.neighbors for vehicle in fleet.vehicles.values())

    def test_escalation_targets_cover_every_other_cube(self):
        fleet = _fleet()
        origin = fleet.vehicles[(0, 0)]
        covered = set()
        for level in range(1, fleet.hierarchy.levels + 1):
            covered.update(
                fleet.escalation_targets(origin.cube_index, level, exclude=origin.identity)
            )
        assert covered == set(fleet.vehicles) - {origin.identity}

    def test_fleet_wide_watch_ring_closes(self):
        fleet = _fleet()
        ring = fleet.watch_ring
        assert ring is not None
        start = next(iter(sorted(ring)))
        seen = set()
        current = start
        while current not in seen:
            seen.add(current)
            current = ring[current]
        assert seen == set(ring)  # one cycle covering every pair

    def test_escalation_off_keeps_cube_local_monitoring(self):
        fleet = _fleet(escalation=False)
        assert fleet.watch_ring is None
        # Singleton cubes: nothing to watch, the historical blind spot.
        assert all(
            vehicle.monitored_pair is None for vehicle in fleet.vehicles.values()
        )


class TestEscalatedReplacement:
    def test_dead_singleton_pair_is_adopted_across_cubes(self):
        demand = _spread_demand()
        jobs = JobSequence.from_positions(sorted(demand.support()) * 2)
        result = run_online(
            jobs,
            omega=1.0,
            capacity=24.0,
            config=FleetConfig(monitoring=True, escalation=True),
            dead_vehicles=[(0, 0)],
            recovery_rounds=6,
        )
        assert result.feasible
        assert result.escalations >= 1
        assert result.adoptions >= 1
        assert result.replacements >= 1

    def test_without_escalation_the_same_run_abandons_jobs(self):
        demand = _spread_demand()
        jobs = JobSequence.from_positions(sorted(demand.support()) * 2)
        result = run_online(
            jobs,
            omega=1.0,
            capacity=24.0,
            config=FleetConfig(monitoring=True, escalation=False),
            dead_vehicles=[(0, 0)],
            recovery_rounds=6,
        )
        assert not result.feasible
        assert result.escalations == 0

    def test_idle_vehicle_migrates_in_preference_to_adoption(self):
        # omega=2 makes 2x2 cubes with idle white vertices.  Every vehicle
        # of the first cube except its (0, 0) active one is dead, so when
        # that vehicle exhausts itself the intra-cube flood finds only dead
        # radios and must cross the boundary -- where the second cube's
        # *idle* vehicles volunteer and win over any active spare.
        demand = DemandMap({(0, 0): 4.0, (4, 0): 1.0})
        jobs = JobSequence.from_positions([(0, 0)] * 4 + [(4, 0)])
        result = run_online(
            jobs,
            omega=2.0,
            capacity=5.0,
            config=FleetConfig(monitoring=True, escalation=True),
            dead_vehicles=[(0, 1), (1, 0), (1, 1)],
            recovery_rounds=6,
        )
        assert result.feasible
        assert result.escalations >= 1
        assert result.replacements >= 1
        # The replacement migrated (idle takeover), not adopted: idle
        # volunteers win the candidate ordering.
        assert result.adoptions == 0

    def test_escalated_searches_count_in_stats(self):
        demand = _spread_demand()
        fleet_jobs = JobSequence.from_positions(sorted(demand.support()))
        result = run_online(
            fleet_jobs,
            omega=1.0,
            capacity=24.0,
            config=FleetConfig(monitoring=True, escalation=True),
            dead_vehicles=[(0, 0)],
            recovery_rounds=6,
        )
        assert result.escalation is True
        # Successes are counted at the endpoint, on acceptance: they can
        # never exceed the escalations started, and here (reliable channel,
        # willing volunteers) at least one lands.
        assert 1 <= result.escalated_replacements <= result.escalations


class TestEscalationUnderLoss:
    def test_starved_escalation_terminates_under_loss(self):
        """Boundary replies may be lost; the starvation clock must keep
        escalated rounds from hanging forever.  Service may degrade (a
        job's retry can fire before the lossy search completes) but the run
        terminates with consistent counters and most jobs served."""
        demand = _spread_demand()
        jobs = JobSequence.from_positions(sorted(demand.support()) * 2)
        result = run_online(
            jobs,
            omega=1.0,
            capacity=24.0,
            config=FleetConfig(monitoring=True, escalation=True),
            dead_vehicles=[(0, 0)],
            recovery_rounds=8,
            transport=LossyTransport(loss=0.1, seed=11),
        )
        assert result.messages_dropped > 0
        assert result.escalations >= 1
        assert result.jobs_total - 1 <= result.jobs_served <= result.jobs_total

    def test_retransmit_restores_full_service_over_the_same_loss(self):
        """The reliability wrapper is the designed remedy: the same lossy
        channel behind per-message retransmission serves every job."""
        from repro.distsim.transport import TransportSpec

        demand = _spread_demand()
        jobs = JobSequence.from_positions(sorted(demand.support()) * 2)
        result = run_online(
            jobs,
            omega=1.0,
            capacity=24.0,
            config=FleetConfig(monitoring=True, escalation=True),
            dead_vehicles=[(0, 0)],
            recovery_rounds=8,
            transport=TransportSpec(
                "retransmit",
                {
                    "inner": {"kind": "lossy", "params": {"loss": 0.1, "seed": 11}},
                    "retries": 4,
                    "timeout": 0.01,
                },
            ),
        )
        assert result.transport == "retransmit"
        assert result.jobs_served == result.jobs_total

    def test_lossy_escalation_is_deterministic(self):
        demand = _spread_demand()
        jobs = JobSequence.from_positions(sorted(demand.support()) * 2)

        def once():
            return run_online(
                jobs,
                omega=1.0,
                capacity=24.0,
                config=FleetConfig(monitoring=True, escalation=True),
                dead_vehicles=[(0, 0)],
                recovery_rounds=8,
                transport=LossyTransport(loss=0.15, seed=3),
            )

        first, second = once(), once()
        assert first.jobs_served == second.jobs_served
        assert first.vehicle_energies == second.vehicle_energies
        assert first.messages == second.messages


class TestAdoptionBookkeeping:
    def test_adopter_serves_and_heartbeats_for_both_pairs(self):
        demand = _spread_demand(side=2, stride=3)
        positions = sorted(demand.support())
        jobs = JobSequence.from_positions(positions + [(0, 0)] + positions)
        result = run_online(
            jobs,
            omega=1.0,
            capacity=30.0,
            config=FleetConfig(monitoring=True, escalation=True),
            dead_vehicles=[(0, 0)],
            recovery_rounds=6,
        )
        assert result.feasible
        assert result.adoptions == 1
        # Exactly one escalated replacement; no replacement storm (the
        # activation notice reset the other watchers' timers).
        assert result.replacements == 1

    def test_adopter_walk_energy_is_charged(self):
        demand = _spread_demand(side=2, stride=4)
        jobs = JobSequence.from_positions(sorted(demand.support()) + [(0, 0)])
        result = run_online(
            jobs,
            omega=1.0,
            capacity=30.0,
            config=FleetConfig(monitoring=True, escalation=True),
            dead_vehicles=[(0, 0)],
            recovery_rounds=6,
        )
        assert result.feasible
        # Someone paid the cross-cube walk (distance 4) on top of service.
        assert result.total_travel >= 4.0


class TestCorruptionGuardWithEscalation:
    def test_plain_move_with_foreign_pair_key_is_still_refused(self):
        """Escalation must not re-open PR 3's Byzantine guard: a NON-escalated
        move order naming a real pair of another cube can only be corruption
        and is refused even though escalation is on."""
        from repro.vehicles.messages import MoveMessage
        from repro.vehicles.state import WorkingState

        fleet = _fleet(DemandMap({(0, 0): 2.0, (3, 0): 2.0}), capacity=20.0)
        victim = fleet.vehicles[(3, 0)]
        victim.status.working = WorkingState.IDLE  # force an idle endpoint
        victim.pair_key = None
        failed_before = fleet.stats.failed_replacements
        # tag unseen by the victim; pair key (0, 0) is real but foreign.
        victim._on_move(
            (0, 0), MoveMessage(((9, 9), 1), (0, 0), (0, 0), (0, 0), escalated=False)
        )
        assert fleet.stats.failed_replacements == failed_before + 1
        assert victim.status.working == WorkingState.IDLE  # untouched

    def test_escalated_move_with_foreign_pair_key_is_accepted(self):
        from repro.vehicles.messages import MoveMessage
        from repro.vehicles.state import WorkingState

        fleet = _fleet(DemandMap({(0, 0): 2.0, (3, 0): 2.0}), capacity=20.0)
        victim = fleet.vehicles[(3, 0)]
        victim.status.working = WorkingState.IDLE
        victim.pair_key = None
        victim._on_move(
            (0, 0), MoveMessage(((9, 9), 1), (0, 0), (0, 0), (0, 0), escalated=True)
        )
        assert victim.status.working == WorkingState.ACTIVE
        assert victim.pair_key == (0, 0)
        assert fleet.registry[(0, 0)] == (3, 0)


class TestRehomingRewiresTheGraph:
    def test_migrant_floods_its_new_cube(self):
        """A rehomed vehicle's intra-cube communication graph must belong to
        its new cube -- an intra-cube query may never cross a boundary."""
        demand = DemandMap({(0, 0): 2.0, (6, 0): 2.0, (6, 1): 2.0})
        fleet = _fleet(demand, capacity=30.0)
        # omega=1 builds singleton cubes here; rehome (0, 0) onto (6, 0).
        vehicle = fleet.vehicles[(0, 0)]
        vehicle.position = (6, 0)
        fleet.rehome_vehicle(vehicle, (6, 0))
        assert vehicle.cube_index == fleet.cube_grid.cube_index((6, 0))
        assert vehicle.coloring is fleet.colorings[vehicle.cube_index]
        new_cube_points = set(vehicle.coloring.cube.points())
        assert set(vehicle.neighbors) <= new_cube_points
        assert set(vehicle.cube_peers) <= new_cube_points
        assert (0, 0) not in vehicle.neighbors


#: Six of the nine vehicles of the first cube, two of the middle cube and
#: two of the last cube of a side-9 grid (ω=3 cubes of side 3) die at the
#: start.  Every dead pair is watched across a cube boundary (the
#: fleet-wide ring wraps between cubes) or by a dead vehicle.
_CROSS_CUBE_DEAD = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (3, 3), (3, 4), (6, 6), (6, 7)]


def _cross_cube_crash_run(escalation):
    from repro.distsim.transport import TransportSpec
    from repro.workloads.arrivals import random_arrivals
    from repro.workloads.library import build_family_demand

    demand = build_family_demand("scale-up", {"side": 9, "per_point": 1})
    return run_online(
        random_arrivals(demand, np.random.default_rng(0)),
        omega=3.0,
        capacity="theorem",
        config=FleetConfig(monitoring="ring", escalation=escalation),
        recovery_rounds=2,
        dead_vehicles=_CROSS_CUBE_DEAD,
        transport=TransportSpec("reliable", {"delay": 0.02}),
    )


class TestCrossCubeTakeover:
    """A watcher in another cube must be able to replace a dead pair."""

    def test_plain_ring_replaces_some_dead_pairs(self):
        result = _cross_cube_crash_run(escalation=False)
        assert result.replacements >= 1

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "known defect: an escalation-mode takeover floods the watcher's "
            "own cube, and the pair's cube refuses the plain move order"
        ),
    )
    def test_escalation_replaces_some_dead_pairs(self):
        result = _cross_cube_crash_run(escalation=True)
        assert result.replacements >= 1
