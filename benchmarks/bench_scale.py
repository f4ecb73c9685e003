#!/usr/bin/env python
"""Fleet-scale benchmark: construction, events/sec, and sharded 10^5 runs.

The flat-array fleet core (vectorized construction, indexed registry,
batched dispatch) is aimed squarely at the ``10^4``-vehicle regime and the
cube-sharded runner (:mod:`repro.distsim.sharding`) at ``10^5``; this
benchmark is their regression gate.  For each scale it measures

* **construction**: wall-clock of ``Fleet(...)`` for a scale-up demand
  (the full pipeline -- window planning, cube discovery, templates,
  vehicle objects, registries), best of ``--repeat`` runs;
* **events/sec**: simulator-event throughput of a full ``run_online``
  events-engine run over a random arrival order of the same demand (the
  number the bench-smoke CI gate tracks on the quick preset);
* **sharded events/sec** (``10^5`` tier only): the same run fanned out
  over ``--shards`` worker processes via ``run_online(..., shards=N)``.
  The scale-up family is shard-local (reliable transport, no failures),
  so the run takes the multi-process ``parallel-lockstep`` engine: each
  worker owns a contiguous block of cubes and never builds the global
  fleet.  The measured wall clock and each worker's own elapsed time are
  reported; nothing is inferred from them.
* **parallel lockstep** (``10^5-failure`` tier): the same demand with a
  sparse crash sweep and an *edge-keyed* lossy transport, still
  shard-local.  Its ``FleetConfig()`` has monitoring off, so the run
  sends no message: nothing crosses the lossy channel, and the crashes
  only leave their arrivals unserved.  The tier gates arrival dispatch
  and the shard plumbing (partition, payload pickle, worker pool,
  merge), not the message path.  ``--quick`` runs the sharded side only;
  the full mode adds the single-process reference and the wall-clock
  speedup.

Throughput runs skipped by ``--quick`` are recorded as ``null`` so report
consumers can tell "not measured" from "missing key".

Results go to ``BENCH_fleet_scale.json`` (uploaded as a CI artifact) and
are gated against the committed ``benchmarks/bench_baseline.json`` by
``check_events_per_sec.py --scale-report``.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py [--quick] \
        [--out BENCH_fleet_scale.json] [--repeat N] [--shards N]

``--quick`` (the CI mode) runs one repetition fewer and skips the
``10^4``-vehicle *throughput* run and the ``10^5`` *single-process*
throughput run (the sharded ``10^5`` run still executes -- it is the
quantity this PR's acceptance criterion tracks; construction is still
measured at the ``10^3``/``10^4`` scales).
"""

from __future__ import annotations

import argparse
import sys
import time

from _common import bootstrap_src, emit_report

bootstrap_src()

import numpy as np

from repro.core.online import run_online
from repro.distsim.failures import FailurePlan
from repro.distsim.transport import TransportSpec
from repro.vehicles.fleet import Fleet, FleetConfig
from repro.workloads.arrivals import random_arrivals
from repro.workloads.library import build_family_demand

#: side -> label: side 32 builds a ~10^3-vehicle fleet, side 100 ~10^4.
SCALES = {"1e3": 32, "1e4": 100}

#: The 10^5 tier: side 320 builds a ~10^5-vehicle scale-up fleet.  Listed
#: separately because it is only ever run through the sharded path plus
#: (outside --quick) one single-process reference run -- constructing the
#: global Fleet object at this scale is exactly what sharding avoids.
SHARDED_SCALE = ("1e5", 320)

#: The omega the scale-up family resolves to under default provisioning.
OMEGA = 3.0

#: Default worker-process count for the sharded tier.  Deliberately above
#: typical CI core counts: per-shard fleets shrink superlinearly in cost
#: (smaller event queues, registries, and caches), so modest oversharding
#: is cheap on any host.
DEFAULT_SHARDS = 8


def measure_construction(demand, repeat: int) -> dict:
    """Best-of-``repeat`` fleet construction time (seconds)."""
    times = []
    vehicles = 0
    for _ in range(repeat):
        start = time.perf_counter()
        fleet = Fleet(demand, omega=OMEGA, config=FleetConfig())
        times.append(time.perf_counter() - start)
        vehicles = len(fleet.vehicles)
    return {
        "vehicles": vehicles,
        "construction_seconds": min(times),
        "construction_seconds_all": [round(t, 6) for t in times],
    }


def measure_quiescent(demand, rounds: int = 50) -> dict:
    """Quiescent heartbeat rounds/sec on a failure-free fleet.

    ``omega=1.0`` partitions the window into singleton cubes, so every
    vehicle is active, peerless, and watchless -- a heartbeat round does
    no protocol work at all.  What this measures is therefore the pure
    idle-scan cost of the round loop: with the active-set registry path a
    quiescent round touches only the (empty) engaged set plus one
    vectorized sender read, so the figure tracks the O(active)-per-round
    claim directly.
    """
    fleet = Fleet(demand, omega=1.0, config=FleetConfig(monitoring=True))
    fleet.run_heartbeat_round()  # warm caches (index map, numpy views)
    start = time.perf_counter()
    for _ in range(rounds):
        fleet.run_heartbeat_round()
    elapsed = time.perf_counter() - start
    return {
        "quiescent_vehicles": len(fleet.vehicles),
        "quiescent_rounds": rounds,
        "quiescent_rounds_per_sec": rounds / elapsed if elapsed else 0.0,
    }


def measure_throughput(demand, seed: int = 0, shards: int = 1) -> dict:
    """Events/sec of one full events-engine online run (optionally sharded)."""
    jobs = random_arrivals(demand, np.random.default_rng(seed))
    start = time.perf_counter()
    result = run_online(
        jobs, capacity="theorem", config=FleetConfig(), shards=shards
    )
    elapsed = time.perf_counter() - start
    if not result.feasible:
        raise SystemExit("scale benchmark run was infeasible; workload broken?")
    entry = {
        "jobs": result.jobs_total,
        "events_processed": result.events_processed,
        "events_per_sec": result.events_processed / elapsed if elapsed else 0.0,
        "run_seconds": elapsed,
    }
    if shards > 1:
        entry["shards"] = shards
        entry["shard_seconds"] = _shard_seconds(result)
    return entry


def _shard_seconds(result) -> dict:
    """Each worker's own measured elapsed time, by shard."""
    return {
        str(shard): round(seconds, 4)
        for shard, seconds in sorted(result.shard_timings.items())
    }


def _crash_plan(demand, every: int = 997) -> FailurePlan:
    """A deterministic sparse crash sweep over the demand support."""
    plan = FailurePlan()
    for vertex in sorted(demand.support())[::every]:
        plan.crash(tuple(int(c) for c in vertex))
    return plan


def measure_failure_throughput(demand, seed: int = 0, shards: int = 1) -> dict:
    """Events/sec of a crash-sweep run on a lossy channel through the
    parallel lockstep engine.

    Monitoring is off (``FleetConfig()``), so the run sends no message:
    it measures arrival dispatch and the shard plumbing, not the message
    path.  The config (sparse crash sweep, edge-keyed lossy transport, no
    escalation) is shard-local, so ``shards=N`` takes the
    ``parallel-lockstep`` multi-process path while ``shards=1`` runs the
    single-process reference.
    """
    jobs = random_arrivals(demand, np.random.default_rng(seed))
    transport = TransportSpec(
        kind="lossy",
        params={"loss": 0.05, "delay": 0.02, "seed": 3, "stream": "edge"},
    )
    start = time.perf_counter()
    result = run_online(
        jobs,
        omega=OMEGA,
        config=FleetConfig(),
        failure_plan=_crash_plan(demand),
        transport=transport,
        shards=shards,
    )
    elapsed = time.perf_counter() - start
    entry = {
        "jobs": result.jobs_total,
        "events_processed": result.events_processed,
        "events_per_sec": result.events_processed / elapsed if elapsed else 0.0,
        "run_seconds": elapsed,
        "mode": result.shard_mode,
    }
    if shards > 1:
        if result.shard_mode != "parallel-lockstep":
            raise SystemExit(
                f"failure benchmark ran in mode {result.shard_mode!r} "
                f"({result.shard_mode_reason}); expected parallel-lockstep"
            )
        entry["shards"] = shards
        entry["shard_seconds"] = _shard_seconds(result)
    return entry


SKIPPED_THROUGHPUT = {
    "jobs": None,
    "events_processed": None,
    "events_per_sec": None,
    "run_seconds": None,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI mode: fewer reps")
    parser.add_argument(
        "--out", default="BENCH_fleet_scale.json", help="output artifact path"
    )
    parser.add_argument(
        "--repeat", type=int, default=None, help="construction repetitions (default 5, quick 3)"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=DEFAULT_SHARDS,
        help=f"worker processes for the 1e5 tier (default {DEFAULT_SHARDS})",
    )
    parser.add_argument(
        "--shard-timings-out",
        default=None,
        help="also write the 1e5 tier's per-shard timing breakdown here",
    )
    args = parser.parse_args(argv)
    repeat = args.repeat if args.repeat is not None else (3 if args.quick else 5)

    report = {"quick": bool(args.quick), "scales": {}}
    for label, side in SCALES.items():
        demand = build_family_demand("scale-up", {"side": side, "per_point": 2.0})
        entry = measure_construction(demand, repeat)
        if label == "1e3" or not args.quick:
            entry.update(measure_throughput(demand))
        else:
            # Skipped, not unmeasured-by-accident: consumers see null.
            entry.update(SKIPPED_THROUGHPUT)
        if label == "1e4":
            # Cheap even at 10^4 vehicles (that is the point), so it runs
            # in --quick too and the CI gate tracks it every build.
            entry.update(measure_quiescent(demand))
        report["scales"][label] = entry
        throughput = entry.get("events_per_sec")
        quiescent = entry.get("quiescent_rounds_per_sec")
        print(
            f"{label}: {entry['vehicles']} vehicles, "
            f"construction {entry['construction_seconds']:.4f}s"
            + (f", {throughput:,.0f} events/sec" if throughput else "")
            + (f", {quiescent:,.0f} quiescent rounds/sec" if quiescent else "")
        )

    label, side = SHARDED_SCALE
    demand = build_family_demand("scale-up", {"side": side, "per_point": 2.0})
    sharded = measure_throughput(demand, shards=args.shards)
    entry = {
        "vehicles": None,  # the sharded path never builds the global fleet
        "construction_seconds": None,
        "sharded_events_per_sec": sharded["events_per_sec"],
        "sharded_run_seconds": sharded["run_seconds"],
        "shards": sharded["shards"],
        "shard_seconds": sharded["shard_seconds"],
        "jobs": sharded["jobs"],
        "events_processed": sharded["events_processed"],
    }
    if args.quick:
        entry.update(
            {
                "events_per_sec": None,
                "run_seconds": None,
                "speedup": None,
            }
        )
    else:
        single = measure_throughput(demand)
        entry["events_per_sec"] = single["events_per_sec"]
        entry["run_seconds"] = single["run_seconds"]
        entry["speedup"] = (
            sharded["events_per_sec"] / single["events_per_sec"]
            if single["events_per_sec"]
            else None
        )
    report["scales"][label] = entry
    print(
        f"{label}: {entry['jobs']} jobs over {entry['shards']} shards, "
        f"{entry['sharded_events_per_sec']:,.0f} sharded events/sec (wall)"
        + (
            f", {entry['events_per_sec']:,.0f} single-process "
            f"(speedup {entry['speedup']:.2f}x wall)"
            if entry["events_per_sec"]
            else ""
        )
    )

    # The parallel-lockstep tier: the same 10^5 demand with a sparse crash
    # sweep and an edge-keyed lossy transport.  --quick runs the sharded
    # side only; the full mode adds the single-process reference.
    failure_label = f"{label}-failure"
    failure_sharded = measure_failure_throughput(demand, shards=args.shards)
    failure_entry = dict(failure_sharded)
    if args.quick:
        failure_entry.update(
            {
                "single_events_per_sec": None,
                "single_run_seconds": None,
                "speedup": None,
            }
        )
    else:
        single = measure_failure_throughput(demand, shards=1)
        failure_entry["single_events_per_sec"] = single["events_per_sec"]
        failure_entry["single_run_seconds"] = single["run_seconds"]
        failure_entry["speedup"] = (
            failure_sharded["events_per_sec"] / single["events_per_sec"]
            if single["events_per_sec"]
            else None
        )
    report["scales"][failure_label] = failure_entry
    print(
        f"{failure_label}: {failure_entry['jobs']} jobs over "
        f"{failure_entry['shards']} shards (parallel lockstep), "
        f"{failure_entry['events_per_sec']:,.0f} events/sec (wall)"
        + (
            f", {failure_entry['single_events_per_sec']:,.0f} single-process "
            f"(speedup {failure_entry['speedup']:.2f}x wall)"
            if failure_entry["single_events_per_sec"]
            else ""
        )
    )

    emit_report(report, args.out)
    if args.shard_timings_out:
        emit_report(
            {
                "scale": label,
                "shards": entry["shards"],
                "shard_seconds": entry["shard_seconds"],
                "sharded_run_seconds": entry["sharded_run_seconds"],
            },
            args.shard_timings_out,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
