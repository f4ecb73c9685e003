"""Proactive hand-back of adopted pairs when the owner rejoins.

With ``FleetConfig(hand_back=True)``, a vehicle that adopted a far pair
during an escalated replacement offers the pair back to its revived owner
instead of carrying it forever; the owner reclaims it and the adopter
releases its monitoring duty.  The flag defaults to *off* so every
published baseline (and golden result) is unchanged.
"""

from __future__ import annotations

from repro.core.demand import DemandMap, JobSequence
from repro.core.omega import omega_c
from repro.core.online import provision_fleet, run_online
from repro.core.stream import StreamDriver
from repro.distsim.failures import ChurnSpec
from repro.vehicles.fleet import FleetConfig

#: Nine singleton cubes under omega=1: the dead (0, 0) vehicle can only be
#: replaced by an escalated cross-cube search, which ends in an adoption.
DEMAND = DemandMap({(3 * x, 3 * y): 2.0 for x in range(3) for y in range(3)})
JOBS = JobSequence.from_positions(sorted(DEMAND.support()) * 2)
CHURN = (ChurnSpec(time=12.5, vertex=(0, 0), action="join"),)


def _fleet_after_run(hand_back: bool):
    config = FleetConfig(monitoring=True, escalation=True, hand_back=hand_back)
    fleet, fleet_config, _, _ = provision_fleet(
        DEMAND, omega=1.0, capacity=24.0, config=config, dead_vehicles=[(0, 0)]
    )
    served = StreamDriver(
        fleet, fleet_config, fleet.failure_plan, JOBS, recovery_rounds=6, churn=CHURN
    ).run()
    return fleet, served


class TestHandBack:
    def test_revived_owner_reclaims_its_pair(self):
        fleet, served = _fleet_after_run(hand_back=True)
        assert served == len(JOBS)
        assert fleet.stats.adoptions == 1
        assert fleet.stats.hand_backs == 1
        # ownership is back where it started ...
        assert fleet.registry.get((0, 0)) == (0, 0)
        # ... and no adopter still carries the pair
        adopters = [
            vehicle.identity
            for vehicle in fleet.vehicles.values()
            if (0, 0) in vehicle.adopted_pairs
        ]
        assert adopters == []

    def test_flag_off_keeps_the_adoption(self):
        fleet, served = _fleet_after_run(hand_back=False)
        assert served == len(JOBS)
        assert fleet.stats.adoptions == 1
        assert fleet.stats.hand_backs == 0
        adopters = [
            vehicle.identity
            for vehicle in fleet.vehicles.values()
            if (0, 0) in vehicle.adopted_pairs
        ]
        assert len(adopters) == 1

    def test_both_modes_stay_feasible(self):
        for hand_back in (False, True):
            result = run_online(
                JOBS,
                omega=1.0,
                capacity=24.0,
                config=FleetConfig(
                    monitoring=True, escalation=True, hand_back=hand_back
                ),
                dead_vehicles=[(0, 0)],
                recovery_rounds=6,
                churn=CHURN,
            )
            assert result.feasible
            assert result.adoptions == 1
