"""E15 -- the scenario family library on the event-driven engine.

Three throughput questions the ROADMAP's "as fast as the hardware allows"
goal keeps asking:

* how many simulator events per second does the event-driven online driver
  sustain on a large fleet (the distsim hot path),
* how many jobs per second does a run sustain when ring monitoring floods
  every cube with heartbeats (the message path: transport, event queue and
  protocol handler) -- over a reliable channel, over a lossy one with
  crashed vehicles to detect and replace, with that lossy crash run split
  across two parallel-lockstep worker processes, and with escalation's
  fleet-wide watch ring replacing crashed pairs across cube boundaries, and
* how long does each scenario family take to solve end-to-end through the
  experiment engine (the sweep hot path)?

Every benchmark records events/sec (where meaningful) and the workload
shape via ``benchmark.extra_info``, and asserts the load-bearing semantic
claims: the failure-free scale-up run is feasible, and every family solves
to a valid result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExperimentEngine
from repro.core.online import run_online
from repro.distsim.transport import TransportSpec
from repro.vehicles.fleet import FleetConfig
from repro.workloads.library import available_families, build_family_demand, family_config
from repro.workloads.arrivals import random_arrivals

#: CI-scale preset keeps each family's solve in fractions of a second; drop
#: ``preset`` to benchmark the laptop-scale defaults.
_PRESET = "small"
_SOLVERS = ("offline", "greedy", "online")


def _scale_up_jobs(side: int = 10, per_point: float = 2.0):
    demand = build_family_demand("scale-up", {"side": side, "per_point": per_point})
    return random_arrivals(demand, np.random.default_rng(0))


def bench_online_driver_events_per_sec(benchmark):
    """Events/sec of the online event driver on a scale-up fleet."""
    jobs = _scale_up_jobs()

    result = benchmark(lambda: run_online(jobs, capacity="theorem", config=FleetConfig()))

    events_per_sec = (
        result.events_processed / benchmark.stats.stats.mean
        if benchmark.stats.stats.mean
        else 0.0
    )
    benchmark.extra_info.update(
        {
            "jobs": result.jobs_total,
            "events_processed": result.events_processed,
            "sim_time": result.sim_time,
            "events_per_sec": events_per_sec,
        }
    )
    assert result.feasible


def bench_ring_monitoring_jobs_per_sec(benchmark):
    """Jobs/sec of a failure-free run with ring monitoring on.

    Every active vehicle broadcasts a heartbeat to its cube each round, so
    the cube broadcasts through the transport, the calendar queue and the
    ``Existing`` handler are nearly all of the work -- unlike the
    arrival-only events/sec benchmark above, which sends no message.
    """
    jobs = _scale_up_jobs(side=14, per_point=1.0)

    result = benchmark(
        lambda: run_online(
            jobs,
            omega=3.0,
            capacity="theorem",
            config=FleetConfig(monitoring="ring"),
        )
    )

    mean = benchmark.stats.stats.mean
    benchmark.extra_info.update(
        {
            "jobs": result.jobs_total,
            "messages": result.messages,
            "messages_per_job": result.messages / result.jobs_total,
            "events_processed": result.events_processed,
            "jobs_per_sec": result.jobs_total / mean if mean else 0.0,
        }
    )
    assert result.feasible
    assert result.messages > 0


def _crash_pattern(side: int):
    """Ten dead vehicles on a side-``side`` grid of 3x3 cubes.

    Six of the first cube's nine (it keeps a pair that can never get a
    spare), two in the middle cube and two in the last -- the crash
    pattern of the ``perfbench`` crash workloads.
    """
    cubes = -(-side // 3)

    def cube(cx: int, cy: int):
        return [
            (x, y)
            for x in range(3 * cx, min(3 * cx + 3, side))
            for y in range(3 * cy, min(3 * cy + 3, side))
        ]

    return cube(0, 0)[:6] + cube(cubes // 2, cubes // 2)[:2] + cube(cubes - 1, cubes - 1)[:2]


def bench_lossy_crash_jobs_per_sec(benchmark):
    """Jobs/sec of ring monitoring with ten crashed vehicles over 5% edge loss.

    The lossy path end to end: every heartbeat round's sends go through
    the edge-keyed loss draw, and the crashed pairs are detected and
    replaced (Phase I/II) on the clock -- so the run carries both lossy
    traffic and crash recovery.
    """
    side = 12
    jobs = _scale_up_jobs(side=side, per_point=1.0)
    dead = _crash_pattern(side)

    result = benchmark(
        lambda: run_online(
            jobs,
            omega=3.0,
            capacity="theorem",
            config=FleetConfig(monitoring="ring"),
            recovery_rounds=2,
            dead_vehicles=dead,
            transport=TransportSpec(
                "lossy", {"loss": 0.05, "delay": 0.02, "seed": 3, "stream": "edge"}
            ),
        )
    )

    mean = benchmark.stats.stats.mean
    benchmark.extra_info.update(
        {
            "jobs": result.jobs_total,
            "messages": result.messages,
            "messages_dropped": result.messages_dropped,
            "replacements": result.replacements,
            "events_processed": result.events_processed,
            "jobs_per_sec": result.jobs_total / mean if mean else 0.0,
        }
    )
    assert result.messages_dropped > 0
    assert result.replacements > 0


def _spares_and_second_pair(cx: int, cy: int):
    """The four idle vehicles of 3x3 cube ``(cx, cy)`` and the active one of
    its second pair (in ring order), whose watcher -- the cube's first
    pair -- is alive: the watcher's intra-cube search finds no spare, so
    the replacement must escalate across the cube boundary."""
    x, y = 3 * cx, 3 * cy
    return [(x, y + 2), (x, y + 1), (x + 1, y), (x + 1, y + 2), (x + 2, y + 1)]


def bench_escalation_crash_jobs_per_sec(benchmark):
    """Jobs/sec of ring monitoring with escalation over crashed vehicles.

    Every live active vehicle runs the full per-object heartbeat (the
    escalation-mode audience spans the pair's cube and its ring watcher's
    cube, so nothing vectorizes), and two cubes lose every spare plus one
    pair: both replacements escalate through the cube hierarchy and are
    taken over from a neighboring cube.
    """
    side = 14
    jobs = _scale_up_jobs(side=side, per_point=1.0)
    dead = _spares_and_second_pair(1, 1) + _spares_and_second_pair(3, 3)

    result = benchmark(
        lambda: run_online(
            jobs,
            omega=3.0,
            capacity="theorem",
            config=FleetConfig(monitoring="ring", escalation=True),
            recovery_rounds=2,
            dead_vehicles=dead,
        )
    )

    mean = benchmark.stats.stats.mean
    benchmark.extra_info.update(
        {
            "jobs": result.jobs_total,
            "messages": result.messages,
            "replacements": result.replacements,
            "escalated_replacements": result.escalated_replacements,
            "jobs_per_sec": result.jobs_total / mean if mean else 0.0,
        }
    )
    assert result.messages > 0
    assert result.escalated_replacements > 0


def bench_sharded_crash_jobs_per_sec(benchmark):
    """Jobs/sec of a crash-recovery run split across two worker processes.

    The ``ring-crash-sharded`` shape: ring monitoring over 5% edge-keyed
    loss with ten crashed vehicles, in two parallel-lockstep workers -- so
    the shard path (partition, payload pickle, worker pool, merge) carries
    protocol traffic, unlike the message-free sharded 10^5 tier.
    """
    side = 14
    jobs = _scale_up_jobs(side=side, per_point=1.0)
    dead = _crash_pattern(side)

    result = benchmark(
        lambda: run_online(
            jobs,
            omega=3.0,
            capacity="theorem",
            config=FleetConfig(monitoring="ring"),
            dead_vehicles=dead,
            transport=TransportSpec("lossy", {"loss": 0.05, "delay": 0.02, "seed": 3}),
            shards=2,
            shard_workers=2,
        )
    )

    mean = benchmark.stats.stats.mean
    benchmark.extra_info.update(
        {
            "jobs": result.jobs_total,
            "messages": result.messages,
            "messages_dropped": result.messages_dropped,
            "replacements": result.replacements,
            "shard_mode": result.shard_mode,
            "jobs_per_sec": result.jobs_total / mean if mean else 0.0,
        }
    )
    assert result.shard_mode == "parallel-lockstep", result.shard_mode_reason
    assert result.messages > 0


@pytest.mark.parametrize("family", sorted(available_families()))
def bench_family_solve_time(benchmark, family):
    """End-to-end solve time per scenario family across the core solvers."""
    configs = [family_config(family, solver, preset=_PRESET) for solver in _SOLVERS]

    results = benchmark(lambda: ExperimentEngine().run_many(configs))

    events = sum(int(r.extra("events_processed", 0)) for r in results)
    benchmark.extra_info.update(
        {
            "family": family,
            "solvers": len(_SOLVERS),
            "jobs_total": results[0].jobs_total,
            "events_processed": events,
            "events_per_sec": (
                events / benchmark.stats.stats.mean if benchmark.stats.stats.mean else 0.0
            ),
        }
    )
    # Every family must produce valid, omega*-consistent results.
    omega_stars = {round(r.omega_star, 9) for r in results}
    assert len(omega_stars) == 1
    for result in results:
        assert result.jobs_served <= result.jobs_total


def bench_family_registry_resolution(benchmark):
    """Spec -> demand resolution for the whole registry (the cached lookup path)."""

    def resolve_all():
        return [
            build_family_demand(name, seed=seed)
            for name in available_families()
            for seed in (0, 1)
        ]

    demands = benchmark(resolve_all)
    benchmark.extra_info.update({"families": len(available_families())})
    assert all(not demand.is_empty() for demand in demands)
