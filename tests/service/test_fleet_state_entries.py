"""The checkpoint's fleet section equals the full per-vehicle table walk.

``_fleet_state`` writes a vehicle's ``{"jobs_served": n}`` entry straight
from the registry's ``served`` column and runs the ``_VEHICLE_FIELDS``
walk (``_vehicle_entry``) only for vehicles with other state.  These tests
compare it, entry for entry, with the walk over every vehicle: at every
inter-arrival boundary of runs that take over pairs, gossip under loss,
escalate and hand back, after a restore, and with each table field set on
its own.
"""

from __future__ import annotations

import json

import pytest

from repro.api.service import ServiceConfig
from repro.core.demand import JobSequence
from repro.core.stream import StreamDriver
from repro.distsim.transport import TransportSpec
from repro.service.checkpoint import (
    _fleet_state,
    _vehicle_entry,
    capture_checkpoint,
    restore_checkpoint,
)
from repro.service.harness import _provision
from repro.vehicles.fleet import FleetConfig
from repro.vehicles.state import TransferState
from repro.workloads.arrivals import alternating_arrivals
from tests.service.test_shared_builders import (
    GRID,
    PROTOCOL_FIELDS,
    RESIDENCY,
    SPREAD,
    SPREAD_CHURN,
)

#: name -> (service config, job sequence, the counter the run must show).
RUNS = {
    "ring-takeovers": (
        ServiceConfig.from_demand(
            GRID,
            omega=4.0,
            capacity=64.0,
            fleet=FleetConfig(monitoring=True),
            dead_vehicles=((0, 0), (3, 3)),
            recovery_rounds=12,
        ),
        alternating_arrivals(GRID),
        "replacements",
    ),
    "gossip-lossy-byzantine": (
        ServiceConfig.from_demand(
            GRID,
            omega=4.0,
            capacity=64.0,
            fleet=FleetConfig(monitoring="gossip"),
            dead_vehicles=((0, 0),),
            suppressed=((3, 3),),
            byzantine_watchers=((1, 1),),
            recovery_rounds=12,
            transport=TransportSpec(kind="lossy", params=(("loss", 0.1), ("seed", 3))),
        ),
        alternating_arrivals(GRID),
        "suspicions",
    ),
    "escalation": (
        ServiceConfig.from_demand(
            SPREAD,
            omega=1.0,
            capacity=24.0,
            fleet=FleetConfig(monitoring=True, escalation=True),
            dead_vehicles=((0, 0),),
            recovery_rounds=6,
        ),
        JobSequence.from_positions(sorted(SPREAD.support()) * 2),
        "adoptions",
    ),
    "churn-hand-back": (
        ServiceConfig.from_demand(
            SPREAD,
            omega=1.0,
            capacity=24.0,
            fleet=FleetConfig(monitoring=True, escalation=True, hand_back=True),
            dead_vehicles=((0, 0),),
            recovery_rounds=6,
            churn=SPREAD_CHURN,
        ),
        JobSequence.from_positions(sorted(SPREAD.support()) * 2),
        "hand_backs",
    ),
}


def full_walk(fleet):
    """Every vehicle's ``_vehicle_entry``, keyed as the snapshot keys them."""
    flat = fleet.flat
    entries = {}
    for index, identity in enumerate(flat.identities):
        original = flat.pair_keys[flat.vehicle_pair[index]]
        entry = _vehicle_entry(fleet.vehicles[identity], original)
        if entry:
            entries[str(index)] = entry
    return entries


def assert_entries_match(fleet):
    state = _fleet_state(fleet)
    assert state["vehicles"] == full_walk(fleet)
    flat = fleet.flat
    assert state["pair_live"] == [
        -1 if vehicle.pair_key is None else flat.pair_id_of[vehicle.pair_key]
        for vehicle in map(fleet.vehicles.__getitem__, flat.identities)
    ]
    return state


def _run(name):
    config, jobs, counter = RUNS[name]
    fleet, fleet_config, *_ = _provision(config, apply_dead=True)
    checked = []

    def control(driver):
        assert_entries_match(fleet)
        checked.append(driver.dispatched)

    driver = StreamDriver(
        fleet,
        fleet_config,
        fleet.failure_plan,
        jobs,
        recovery_rounds=config.recovery_rounds,
        churn=config.churn,
        control=control,
    )
    driver.run()
    assert getattr(fleet.stats, counter) >= 1, counter
    assert len(checked) == len(jobs) + 1
    return config, fleet, driver


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fleet_section_equals_the_full_walk_at_every_boundary(name):
    _, fleet, _ = _run(name)
    state = assert_entries_match(fleet)
    # The run leaves entries beyond served counts for the walk to write.
    assert any(set(entry) - {"jobs_served"} for entry in state["vehicles"].values())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fleet_section_equals_the_full_walk_after_a_restore(name):
    config, source, driver = _run(name)
    snapshot = json.loads(json.dumps(capture_checkpoint(config.to_json(), driver)))
    fresh, *_ = _provision(config, apply_dead=False)
    restore_checkpoint(fresh, snapshot)
    state = assert_entries_match(fresh)
    assert state["vehicles"] == snapshot["fleet"]["vehicles"]
    again = json.loads(json.dumps(capture_checkpoint(config.to_json(), driver)))
    assert again["fleet"] == snapshot["fleet"]


def _fresh_fleet(monitoring):
    config = ServiceConfig.from_demand(
        SPREAD,
        omega=1.0,
        capacity=24.0,
        fleet=FleetConfig(monitoring=monitoring, escalation=monitoring is True),
    )
    fleet, *_ = _provision(config, apply_dead=False)
    return fleet


@pytest.mark.parametrize("monitoring", [True, "gossip"], ids=["ring", "gossip"])
@pytest.mark.parametrize("name", sorted(PROTOCOL_FIELDS))
def test_each_table_field_alone_is_written(name, monitoring):
    fleet = _fresh_fleet(monitoring)
    index = 4
    vehicle = fleet.vehicles[fleet.flat.identities[index]]
    value = PROTOCOL_FIELDS[name]
    if name in ("last_heard", "gossip_reports", "pending_suspicions"):
        # Rows of the detector blocks, in either mode: cube-local values.
        own = vehicle.pair_key
        value = {
            "last_heard": {own: 4},
            "gossip_reports": {own: {vehicle.identity: 3}},
            "pending_suspicions": {own: {"granted": {vehicle.identity}, "round": 4}},
        }[name]
    setattr(vehicle, name, value)
    entries = assert_entries_match(fleet)["vehicles"]
    assert list(entries) == [str(index)]
    assert list(entries[str(index)]) == [name.lstrip("_")]


@pytest.mark.parametrize("monitoring", [False, True, "gossip"])
def test_transfer_state_and_residency_alone_are_written(monitoring):
    fleet = _fresh_fleet(monitoring)
    searching = fleet.vehicles[fleet.flat.identities[2]]
    searching.status.transfer = TransferState.SEARCHING
    entries = assert_entries_match(fleet)["vehicles"]
    assert entries == {"2": {"transfer": TransferState.SEARCHING.value}}

    rehomed = fleet.vehicles[fleet.flat.identities[5]]
    rehomed.pair_key = (0, 0)
    for name, value in RESIDENCY.items():
        setattr(rehomed, name, value)
    entries = assert_entries_match(fleet)["vehicles"]
    assert sorted(entries) == ["2", "5"]
    assert list(entries["5"]) == ["residency"]


def test_untouched_vehicles_write_their_served_count_only():
    fleet = _fresh_fleet(False)
    assert assert_entries_match(fleet)["vehicles"] == {}
    served = [
        vehicle
        for vehicle in fleet.vehicles.values()
        if vehicle.serve_job(vehicle.identity, 1.0)
    ]
    assert served
    entries = assert_entries_match(fleet)["vehicles"]
    assert entries == {
        str(vehicle.index): {"jobs_served": 1} for vehicle in served
    }


class TestServedColumn:
    def test_jobs_served_reads_and_writes_the_column(self):
        fleet = _fresh_fleet(False)
        flat = fleet.flat
        vehicle = fleet.vehicles[flat.identities[3]]
        assert vehicle.jobs_served == 0
        vehicle.jobs_served = 5
        assert flat.served[3] == 5
        flat.served[3] = 7
        assert vehicle.jobs_served == 7
        assert sum(flat.served) == 7

    def test_serving_a_job_counts_in_the_column(self):
        fleet = _fresh_fleet(False)
        vehicle = next(v for v in fleet.vehicles.values() if v.serve_job(v.identity, 1.0))
        assert fleet.flat.served[vehicle.index] == vehicle.jobs_served == 1
        assert vehicle.serve_job(list(vehicle.identity), 1.0)
        assert vehicle.jobs_served == 2
        assert vehicle.position == vehicle.identity
        assert type(vehicle.position[0]) is int

    def test_the_column_is_allocated_beside_the_ledgers(self):
        flat = _fresh_fleet(False).flat
        assert flat.served.typecode == "q"
        assert len(flat.served) == len(flat.travel) == len(flat.identities)
