"""Streaming service runs are byte-identical to the batch online driver.

The service harness shares the batch per-job service logic and merely
changes *when* arrivals are scheduled (bounded look-ahead instead of
up-front).  On any finite sequence the two must therefore agree on every
physical and protocol counter -- energies, messages, replacements,
events processed, final clock -- not just on aggregate feasibility.
"""

from __future__ import annotations

import pytest

from repro.api.service import ServiceConfig
from repro.core.demand import DemandMap, JobSequence
from repro.core.online import run_online
from repro.distsim.failures import ChurnSpec
from repro.distsim.transport import TransportSpec
from repro.service import run_service
from repro.vehicles.fleet import FleetConfig
from repro.workloads.arrivals import alternating_arrivals, streaming_arrivals
from repro.workloads.generators import grid_demand
from repro.workloads.library import family_config

#: Every OnlineResult field the two drivers share, physical and protocol.
COMPARABLE = (
    "jobs_total",
    "jobs_served",
    "feasible",
    "max_vehicle_energy",
    "total_travel",
    "total_service",
    "omega",
    "omega_star",
    "capacity",
    "theorem_capacity",
    "replacements",
    "searches",
    "failed_replacements",
    "messages",
    "messages_dropped",
    "messages_corrupted",
    "heartbeat_rounds",
    "escalations",
    "escalated_replacements",
    "adoptions",
    "events_processed",
    "sim_time",
    "transport",
)


def assert_equivalent(batch, service):
    diffs = {
        name: (getattr(batch, name), getattr(service, name))
        for name in COMPARABLE
        if getattr(batch, name) != getattr(service, name)
    }
    assert not diffs, f"streaming diverged from batch: {diffs}"


class TestQuietRun:
    def test_all_counters_match_batch(self):
        demand = DemandMap({(0, 0): 4.0, (2, 1): 3.0, (5, 4): 2.0, (1, 6): 5.0})
        jobs = alternating_arrivals(demand)
        batch = run_online(jobs)
        service = run_service(
            ServiceConfig.from_demand(demand, window_jobs=4), list(jobs.jobs)
        )
        assert_equivalent(batch, service)
        assert service.windows == -(-len(jobs) // 4)
        assert service.fleet_digest

    def test_lookahead_window_does_not_change_the_run(self):
        demand = DemandMap({(0, 0): 4.0, (2, 1): 3.0, (1, 6): 5.0})
        jobs = alternating_arrivals(demand)
        hashes = {
            run_service(
                ServiceConfig.from_demand(demand, lookahead=lookahead),
                list(jobs.jobs),
            ).result_hash()
            for lookahead in (1, 3, 64)
        }
        assert len(hashes) == 1


def _retransmit_over_loss(timeout: float, delay: float = 0.0) -> TransportSpec:
    inner = {"kind": "lossy", "params": {"loss": 0.5, "seed": 1, "delay": delay}}
    return TransportSpec(
        "retransmit", {"inner": inner, "retries": 4, "timeout": timeout}
    )


class TestLookaheadNeverPicksTheSchedule:
    """Retransmit waits span several arrival gaps and land on later arrivals.

    A delivery queued before a later arrival was pulled into the look-ahead
    window must still run *after* that arrival, as it does when the whole
    sequence is queued up front; otherwise the look-ahead picks a different
    schedule of the same asynchronous system.
    """

    DEMAND = grid_demand(6, 1.0)
    JOBS = JobSequence.from_positions(sorted(DEMAND.support()))
    FLEET = FleetConfig(monitoring=True)
    RUN = dict(omega=3.0, recovery_rounds=2, dead_vehicles=((0, 0), (0, 1), (3, 3)))

    @pytest.mark.parametrize(
        "transport",
        [
            _retransmit_over_loss(0.5),
            _retransmit_over_loss(1.0),
            _retransmit_over_loss(0.5, delay=0.25),
        ],
        ids=["timeout-0.5", "timeout-1.0", "inner-delay-0.25"],
    )
    def test_every_lookahead_gives_the_batch_run(self, transport):
        batch = run_online(self.JOBS, config=self.FLEET, transport=transport, **self.RUN)
        services = [
            run_service(
                ServiceConfig.from_demand(
                    self.DEMAND,
                    fleet=self.FLEET,
                    transport=transport,
                    lookahead=lookahead,
                    **self.RUN,
                ),
                list(self.JOBS.jobs),
            )
            for lookahead in (1, 2, 8, 64)
        ]
        assert len({service.result_hash() for service in services}) == 1
        assert_equivalent(batch, services[0])
        assert batch.replacements > 0 and batch.messages_dropped > 0


class TestFailureModesMatchBatch:
    def test_lossy_transport_churn_and_escalation(self):
        """The hardest batch configuration: loss + churn + monitoring + escalation."""
        demand = DemandMap(
            {(0, 0): 6.0, (2, 1): 5.0, (5, 4): 4.0, (1, 6): 6.0, (3, 3): 4.0}
        )
        jobs = alternating_arrivals(demand)
        fleet = FleetConfig(monitoring=True, escalation=True)
        churn = (
            ChurnSpec(time=6.5, vertex=(0, 0), action="leave"),
            ChurnSpec(time=15.5, vertex=(0, 0), action="join"),
        )
        transport = TransportSpec(kind="lossy", params=(("loss", 0.15), ("seed", 3)))
        batch = run_online(
            jobs, config=fleet, recovery_rounds=2, churn=churn, transport=transport
        )
        service = run_service(
            ServiceConfig.from_demand(
                demand,
                fleet=fleet,
                recovery_rounds=2,
                churn=churn,
                transport=transport,
                window_jobs=5,
            ),
            list(jobs.jobs),
        )
        assert_equivalent(batch, service)
        assert batch.messages_dropped > 0  # the loss stream actually fired


@pytest.mark.parametrize("family", ["hotspot", "regional-outage"])
@pytest.mark.parametrize("solver", ["online", "online-broken"])
class TestFamilySolverEquivalence:
    """Per family x solver: the service mirror of ``_run_online_family``."""

    def test_streaming_matches_batch(self, family, solver):
        config = family_config(family, solver, seed=0, preset="small")
        jobs = config.scenario.jobs()
        broken = solver == "online-broken"
        failures = config.failures
        batch = run_online(
            jobs,
            omega=config.omega,
            capacity=config.capacity,
            config=FleetConfig(monitoring=broken, escalation=config.escalation),
            failure_plan=failures.to_plan() if broken else None,
            dead_vehicles=failures.crashed if broken else None,
            recovery_rounds=config.recovery_rounds,
            churn=failures.churn_events() if broken else None,
            transport=config.effective_transport(),
        )
        service = run_service(
            ServiceConfig.from_demand(
                jobs.demand_map(),
                omega=config.omega,
                capacity=config.capacity,
                fleet={"monitoring": broken, "escalation": config.escalation},
                recovery_rounds=config.recovery_rounds,
                transport=config.effective_transport(),
                churn=failures.churn_events() if broken else (),
                dead_vehicles=failures.crashed if broken else (),
                suppressed=failures.suppressed if broken else (),
                partitions=failures.partitions if broken else (),
            ),
            jobs.jobs,
        )
        assert_equivalent(batch, service)


class TestStreamingArrivalsGenerator:
    def test_bounded_stream_cycles_positions(self):
        demand = DemandMap({(0, 0): 2.0, (1, 1): 1.0})
        produced = list(streaming_arrivals(demand, jobs=7))
        assert len(produced) == 7
        assert [job.time for job in produced] == [float(k + 1) for k in range(7)]
        assert len({job.position for job in produced}) == 2

    def test_deterministic_across_iterations(self):
        demand = DemandMap({(0, 0): 2.0, (1, 1): 1.0})
        first = [(j.time, j.position) for j in streaming_arrivals(demand, jobs=9)]
        second = [(j.time, j.position) for j in streaming_arrivals(demand, jobs=9)]
        assert first == second

    def test_unbounded_stream_is_lazy(self):
        demand = DemandMap({(0, 0): 1.0})
        stream = streaming_arrivals(demand)
        assert [next(stream).time for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            list(streaming_arrivals(DemandMap({(0, 0): 1.0}), jobs=-1))
        with pytest.raises(ValueError):
            next(iter(streaming_arrivals(DemandMap({}))))
