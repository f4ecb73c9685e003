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
from repro.service import run_service
from repro.service.checkpoint import capture_checkpoint, fleet_digest, restore_checkpoint
from repro.service.harness import _provision
from repro.vehicles.fleet import FleetConfig
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


#: Configs whose restore touches every part of the snapshot: a shared-rng
#: jitter channel (rng state), and a lossy channel with a Byzantine
#: watcher under gossip (transport streams, plan sets and counters).
RESTORE_CONFIGS = {
    "ring-jitter": ServiceConfig.from_demand(
        GRID,
        omega=4.0,
        capacity=64.0,
        fleet=FleetConfig(monitoring=True),
        dead_vehicles=((0, 0),),
        recovery_rounds=12,
        seed=5,
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
    source, source_config, source_rng, *_ = _provision(config, apply_dead=True)
    driver = StreamDriver(
        source,
        source_config,
        source.failure_plan,
        alternating_arrivals(GRID),
        recovery_rounds=config.recovery_rounds,
    )
    driver.run()
    assert source.messages_sent() > 0
    snapshot = json.loads(
        json.dumps(capture_checkpoint(config, driver, rng=source_rng))
    )

    fresh, _, fresh_rng, *_ = _provision(config, apply_dead=False)
    assert fleet_digest(fresh) != fleet_digest(source)
    restore_checkpoint(fresh, snapshot, fresh_rng)

    assert fleet_digest(fresh) == fleet_digest(source)
    assert fresh.simulator.now == source.simulator.now
    assert _plan_state(fresh.failure_plan) == _plan_state(source.failure_plan)
    assert _network_state(fresh) == _network_state(source)
    if source_rng is not None:
        assert fresh_rng.bit_generator.state == source_rng.bit_generator.state
        assert np.array_equal(fresh_rng.random(4), source_rng.random(4))
