#!/usr/bin/env python
"""Streaming-service benchmark: throughput and constant-memory at 10^5 jobs.

The service harness (:mod:`repro.service`) claims memory *independent of
stream length*: a bounded look-ahead window, per-window metrics of fixed
size, and no per-job bookkeeping.  This benchmark is that claim's
regression gate.  It measures

* **throughput**: events/sec and jobs/sec of a full ``run_service`` over a
  ``10^5``-job cycling stream at the ``10^3``-vehicle scale (and, outside
  ``--quick``, at ``10^4`` vehicles).  The run writes what a deployed
  service writes -- the live-state file and event log every window and a
  checkpoint every ``CHECKPOINT_EVERY`` windows, into a temporary
  directory -- so the gate covers the checkpoint and live-state layer;
* **memory flatness**: tracemalloc peak of a ``10^4``-job vs a
  ``10^5``-job run at ``10^3`` vehicles.  With constant-memory streaming
  the two peaks are equal up to noise (the fleet arrays dominate); a peak
  that grows with the job count fails the report's ``flat`` flag.
  Process-level ``ru_maxrss`` is recorded alongside for context.

Results go to ``BENCH_stream.json`` (uploaded as a CI artifact) and are
gated against the committed ``benchmarks/bench_baseline.json`` by
``check_events_per_sec.py --stream-report`` -- same 20% tolerance as the
batch events/sec gate, plus a hard failure when ``flat`` is false.

Usage::

    PYTHONPATH=src python benchmarks/bench_stream.py [--quick] \
        [--out BENCH_stream.json] [--jobs N]

``--quick`` (the CI mode) skips the ``10^4``-vehicle throughput run; the
memory-flatness pair at ``10^3`` vehicles always runs in full -- it is the
acceptance criterion this benchmark exists to check.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from _common import bootstrap_src, emit_report

bootstrap_src()

from repro.api.service import ServiceConfig
from repro.service import run_service
from repro.workloads.arrivals import streaming_arrivals
from repro.workloads.library import build_family_demand

#: side -> label: side 32 builds a ~10^3-vehicle fleet, side 100 ~10^4.
SCALES = {"1e3": 32, "1e4": 100}

#: The omega the scale-up family resolves to under default provisioning.
OMEGA = 3.0

#: Jobs per metrics window (large enough that metrics cost is negligible).
WINDOW_JOBS = 5000

#: Peaks within 25% of each other count as flat: the fleet arrays dominate
#: both runs, so a look-ahead leak or per-job accumulation shows up as a
#: multiple, not a few percent.
FLAT_RATIO = 1.25

#: Windows between checkpoints in the throughput run.
CHECKPOINT_EVERY = 2


def _service_config(demand) -> ServiceConfig:
    # Unbounded batteries: the benchmark measures harness throughput, not
    # replacement churn, and a 10^5-job stream would exhaust any fixed
    # provisioning many times over.
    return ServiceConfig.from_demand(
        demand,
        capacity=None,
        omega=OMEGA,
        window_jobs=WINDOW_JOBS,
        checkpoint_every=CHECKPOINT_EVERY,
    )


def measure_stream(demand, jobs: int) -> dict:
    """Throughput of one full service run over a ``jobs``-long stream,
    writing live state, the event log and checkpoints as it goes."""
    config = _service_config(demand)
    with tempfile.TemporaryDirectory(prefix="bench-stream-") as scratch:
        out = Path(scratch)
        start = time.perf_counter()
        result = run_service(
            config,
            streaming_arrivals(demand, jobs=jobs),
            state_path=out / "state.json",
            log_path=out / "events.jsonl",
            checkpoint_path=out / "checkpoint.json",
        )
        elapsed = time.perf_counter() - start
    if not result.feasible:
        raise SystemExit("stream benchmark run was infeasible; workload broken?")
    if result.checkpoints_written == 0:
        raise SystemExit("stream benchmark run wrote no checkpoint; workload broken?")
    return {
        "jobs": result.jobs_total,
        "events_processed": result.events_processed,
        "events_per_sec": result.events_processed / elapsed if elapsed else 0.0,
        "jobs_per_sec": result.jobs_total / elapsed if elapsed else 0.0,
        "run_seconds": elapsed,
        "windows": result.windows,
        "checkpoints": result.checkpoints_written,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def measure_memory_flatness(demand, jobs_small: int, jobs_large: int) -> dict:
    """Tracemalloc peaks of a short vs a long run at the same fleet scale."""
    config = _service_config(demand)
    peaks = {}
    for jobs in (jobs_small, jobs_large):
        tracemalloc.start()
        run_service(config, streaming_arrivals(demand, jobs=jobs))
        _, peaks[jobs] = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    ratio = peaks[jobs_large] / peaks[jobs_small] if peaks[jobs_small] else 0.0
    return {
        "jobs_small": jobs_small,
        "jobs_large": jobs_large,
        "peak_small_bytes": peaks[jobs_small],
        "peak_large_bytes": peaks[jobs_large],
        "ratio": ratio,
        "flat": ratio <= FLAT_RATIO,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI mode: skip 1e4 throughput")
    parser.add_argument("--out", default="BENCH_stream.json", help="output artifact path")
    parser.add_argument(
        "--jobs", type=int, default=100_000, help="stream length (default 10^5)"
    )
    args = parser.parse_args(argv)

    report = {"quick": bool(args.quick), "jobs": args.jobs, "scales": {}}
    for label, side in SCALES.items():
        if label != "1e3" and args.quick:
            continue
        demand = build_family_demand("scale-up", {"side": side, "per_point": 2.0})
        entry = measure_stream(demand, args.jobs)
        report["scales"][label] = entry
        print(
            f"{label}: {entry['jobs']} jobs in {entry['run_seconds']:.2f}s, "
            f"{entry['events_per_sec']:,.0f} events/sec, "
            f"{entry['jobs_per_sec']:,.0f} jobs/sec"
        )

    demand = build_family_demand("scale-up", {"side": SCALES['1e3'], "per_point": 2.0})
    memory = measure_memory_flatness(demand, max(args.jobs // 10, 1), args.jobs)
    report["memory"] = memory
    print(
        f"memory: peak {memory['peak_small_bytes'] / 1e6:.2f}MB at "
        f"{memory['jobs_small']} jobs vs {memory['peak_large_bytes'] / 1e6:.2f}MB "
        f"at {memory['jobs_large']} (ratio {memory['ratio']:.3f}) -> "
        f"{'flat' if memory['flat'] else 'GROWING'}"
    )

    emit_report(report, args.out)
    return 0 if memory["flat"] else 1


if __name__ == "__main__":
    sys.exit(main())
