"""The batch and service paths share one provisioning and counter builder.

``run_online`` and ``run_service`` resolve omega/omega* through one
helper (one ``demand_cube_maxima`` sweep), build their results from one
``fleet -> counters`` helper plus one detection-digest helper, and report
``monitoring_mode`` through one function.  These tests pin that sharing:
the two result types agree field for field on every counter they have in
common, and a checkpoint restored onto a fresh fleet is that fleet again.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import repro.core.online as online
from repro.api.service import ServiceConfig, ServiceResult
from repro.core.demand import DemandMap, JobSequence
from repro.core.omega import omega_c, omega_star_cubes
from repro.core.online import OnlineResult, monitoring_mode, resolve_omega, run_online
from repro.core.stream import StreamDriver
from repro.distsim.failures import ChurnSpec
from repro.distsim.transport import TransportSpec
from repro.io.atomic import compact_json
from repro.service import run_service
from repro.service.checkpoint import capture_checkpoint, fleet_digest, restore_checkpoint
from repro.service.harness import _provision
from repro.vehicles.fleet import FleetConfig
from repro.vehicles.state import TransferState
from repro.workloads.arrivals import alternating_arrivals

#: Every field the two result types have in common.
SHARED_FIELDS = sorted(
    {f.name for f in dataclasses.fields(OnlineResult)}
    & {f.name for f in dataclasses.fields(ServiceResult)}
)

GRID = DemandMap({(x, y): 2.0 for x in range(4) for y in range(4)})

#: Nine singleton cubes under omega=1: the dead (0, 0) vehicle is replaced
#: by an escalated search, adopted, and handed back when it rejoins.
SPREAD = DemandMap({(3 * x, 3 * y): 2.0 for x in range(3) for y in range(3)})
SPREAD_CHURN = (ChurnSpec(time=12.5, vertex=(0, 0), action="join"),)

#: name -> (demand, jobs, fleet config, kwargs both entry points take).
SCENARIOS = {
    "ring": (
        GRID,
        alternating_arrivals(GRID),
        FleetConfig(monitoring=True),
        dict(omega=4.0, capacity=64.0, dead_vehicles=((0, 0),), recovery_rounds=12),
    ),
    "gossip": (
        GRID,
        alternating_arrivals(GRID),
        FleetConfig(monitoring="gossip"),
        dict(omega=4.0, capacity=64.0, dead_vehicles=((0, 0),), recovery_rounds=12),
    ),
    "escalation-hand-back": (
        SPREAD,
        JobSequence.from_positions(sorted(SPREAD.support()) * 2),
        FleetConfig(monitoring=True, escalation=True, hand_back=True),
        dict(
            omega=1.0,
            capacity=24.0,
            dead_vehicles=((0, 0),),
            recovery_rounds=6,
            churn=SPREAD_CHURN,
        ),
    ),
}


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def paired(request):
    """One scenario run through both paths: (name, batch, service)."""
    demand, jobs, fleet, kwargs = SCENARIOS[request.param]
    batch = run_online(jobs, config=fleet, **kwargs)
    service = run_service(
        ServiceConfig.from_demand(demand, fleet=fleet, **kwargs), list(jobs.jobs)
    )
    return request.param, batch, service


class TestResultAgreement:
    def test_shared_fields_cover_the_counters(self):
        for name in ("hand_backs", "detections", "detection_p50", "detection_p99",
                     "monitoring_mode", "suspicions", "messages", "sim_time"):
            assert name in SHARED_FIELDS

    def test_every_shared_field_agrees(self, paired):
        _, batch, service = paired
        diffs = {
            name: (getattr(batch, name), getattr(service, name))
            for name in SHARED_FIELDS
            if getattr(batch, name) != getattr(service, name)
        }
        assert not diffs, f"service diverged from batch: {diffs}"

    def test_the_scenario_exercises_its_counters(self, paired):
        name, batch, _ = paired
        assert batch.feasible
        if name == "gossip":
            assert batch.monitoring_mode == "gossip"
            assert batch.detections == 1
            assert batch.suspicions >= 1
        elif name == "ring":
            assert batch.monitoring_mode == "ring"
            assert batch.replacements >= 1
        else:
            assert batch.adoptions == 1
            assert batch.hand_backs == 1


class TestMonitoringMode:
    @pytest.mark.parametrize(
        "monitoring,mode",
        [(False, ""), (True, "ring"), ("ring", "ring"), ("gossip", "gossip")],
    )
    def test_modes(self, monitoring, mode):
        assert monitoring_mode(FleetConfig(monitoring=monitoring)) == mode


class TestSharedProvisioning:
    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        original = online.demand_cube_maxima

        def counting(demand):
            calls.append(demand)
            return original(demand)

        monkeypatch.setattr(online, "demand_cube_maxima", counting)
        return calls

    @pytest.mark.parametrize("omega", [None, 3.0])
    def test_service_sweeps_the_demand_once(self, sweeps, omega):
        jobs = alternating_arrivals(GRID)
        result = run_service(ServiceConfig.from_demand(GRID, omega=omega), list(jobs.jobs))
        assert len(sweeps) == 1
        assert result.omega_star == omega_star_cubes(GRID).omega
        assert result.omega == (omega_c(GRID) if omega is None else omega)

    @pytest.mark.parametrize(
        "demand",
        [
            GRID,
            SPREAD,
            DemandMap({(0, 0): 9.0, (1, 0): 1.0, (5, 5): 4.0}),
            DemandMap({(x, 0): float(x + 1) for x in range(7)}),
        ],
        ids=["grid", "spread", "mixed", "line"],
    )
    def test_shared_sweep_gives_the_separate_sweeps_floats(self, demand):
        omega, omega_star = resolve_omega(demand)
        assert omega == omega_c(demand)
        assert omega_star == omega_star_cubes(demand).omega

    def test_explicit_omega_skips_omega_c(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("omega_c must not run for an explicit omega")

        monkeypatch.setattr(online, "omega_c", forbidden)
        assert resolve_omega(GRID, 2.5) == (2.5, omega_star_cubes(GRID).omega)

    def test_rejects_non_positive_omega(self):
        with pytest.raises(ValueError, match="omega must be positive"):
            resolve_omega(GRID, 0.0)


#: Configs whose restore touches every part of the snapshot: ring
#: monitoring over the reliable channel, and a lossy channel with a
#: Byzantine watcher under gossip (transport streams, plan sets and
#: counters).
RESTORE_CONFIGS = {
    "ring-reliable": ServiceConfig.from_demand(
        GRID,
        omega=4.0,
        capacity=64.0,
        fleet=FleetConfig(monitoring=True),
        dead_vehicles=((0, 0),),
        recovery_rounds=12,
    ),
    "gossip-lossy-byzantine": ServiceConfig.from_demand(
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
}


def _plan_state(plan):
    return (
        plan.crashed,
        plan.initiation_suppressed,
        plan.dropped_count,
        plan.partition_dropped_count,
        plan.clock,
        plan.byzantine_watchers,
    )


def _network_state(fleet):
    network = fleet.network
    transport = network.transport
    return (
        network.messages_sent,
        network.messages_delivered,
        network.messages_dropped,
        transport.messages_scheduled,
        transport.messages_dropped,
        transport.messages_corrupted,
    )


@pytest.mark.parametrize("name", sorted(RESTORE_CONFIGS))
def test_restore_checkpoint_rebuilds_the_captured_fleet(name):
    config = RESTORE_CONFIGS[name]
    source, source_config, *_ = _provision(config, apply_dead=True)
    driver = StreamDriver(
        source,
        source_config,
        source.failure_plan,
        alternating_arrivals(GRID),
        recovery_rounds=config.recovery_rounds,
    )
    driver.run()
    assert source.messages_sent() > 0
    snapshot = json.loads(json.dumps(capture_checkpoint(config.to_json(), driver)))

    fresh, *_ = _provision(config, apply_dead=False)
    assert fleet_digest(fresh) != fleet_digest(source)
    restore_checkpoint(fresh, snapshot)

    assert fleet_digest(fresh) == fleet_digest(source)
    assert fresh.simulator.now == source.simulator.now
    assert _plan_state(fresh.failure_plan) == _plan_state(source.failure_plan)
    assert _network_state(fresh) == _network_state(source)


#: One vehicle's protocol state with every sparse entry key set: the
#: Algorithm 2 local data, monitoring, escalation (a candidate without a
#: position included) and gossip bookkeeping, by attribute (each entry
#: key is its attribute without the leading underscore) ...
TAG = ((0, 3), 7)
PROTOCOL_FIELDS = {
    "jobs_served": 3,
    "_engaged_tag": TAG,
    "last_tag": ((3, 0), 2),
    "parent": (0, 3),
    "child": (3, 6),
    "deficit": 2,
    "initiated": {TAG: {"destination": (6, 6), "pair_key": (0, 0)}},
    "last_heard": {(0, 0): 4, (3, 6): 5},
    "_engaged_tag_seen": TAG,
    "_engaged_rounds": 3,
    "adopted_pairs": [(6, 6), (6, 3)],
    "escalations": {
        TAG: {
            "rings": [[(6, 6), (6, 3)], [(0, 6)]],
            "level": 1,
            "pending": 2,
            "candidates": [(True, (6, 6), (6, 5)), (False, (6, 3), None)],
            "rounds": 1,
        }
    },
    "_gossip_counter": 9,
    "gossip_reports": {(0, 0): {(0, 3): 3, (3, 0): 4}, (6, 0): {(3, 0): 2}},
    "pending_suspicions": {(0, 0): {"granted": {(0, 3), (3, 0)}, "round": 4}},
}
#: ... plus a residency rehomed into another cube (with a non-waiting
#: transfer state, the two entry keys outside the field table).
RESIDENCY = {"cube_index": (0, 0), "neighbors": [(0, 3)], "cube_peers": [(3, 0), (6, 0)]}

#: sha256 of that vehicle's compact snapshot entry; pins the
#: per-vehicle format byte for byte.
ENTRY_SHA256 = "1fa12a2fcf572b9942b7e5bd9a3a610f53671f66a659bac4274b92d545338195"


def _same_typed(left, right):
    """Equal values whose containers and scalars also have equal types."""
    if type(left) is not type(right):
        return False
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            _same_typed(left[key], right[key]) for key in left
        )
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(map(_same_typed, left, right))
    return left == right


def test_every_vehicle_entry_key_round_trips():
    config = ServiceConfig.from_demand(
        SPREAD, omega=1.0, capacity=24.0, fleet=FleetConfig(monitoring=True, escalation=True)
    )
    source, source_config, *_ = _provision(config, apply_dead=False)
    index = 4
    vehicle = source.vehicles[source.flat.identities[index]]
    for name, value in {**PROTOCOL_FIELDS, **RESIDENCY}.items():
        setattr(vehicle, name, value)
    vehicle.coloring = source.colorings[vehicle.cube_index]
    vehicle.pair_key = (0, 0)
    vehicle.status.transfer = TransferState.SEARCHING
    driver = StreamDriver(source, source_config, source.failure_plan, [])
    snapshot = json.loads(json.dumps(capture_checkpoint(config.to_json(), driver)))

    entry = snapshot["fleet"]["vehicles"][str(index)]
    assert sorted(entry) == sorted(
        [name.lstrip("_") for name in PROTOCOL_FIELDS] + ["residency", "transfer"]
    )
    digest = hashlib.sha256(compact_json(entry).encode("utf-8")).hexdigest()
    assert digest == ENTRY_SHA256

    fresh, *_ = _provision(config, apply_dead=False)
    restore_checkpoint(fresh, snapshot)
    assert fleet_digest(fresh) == fleet_digest(source)
    restored = fresh.vehicles[fresh.flat.identities[index]]
    for name in [*PROTOCOL_FIELDS, *RESIDENCY, "coloring", "pair_key", "status"]:
        assert _same_typed(getattr(restored, name), getattr(vehicle, name)), name
    assert restored.status.transfer is TransferState.SEARCHING
    assert index in fresh.flat.engaged
