#!/usr/bin/env python
"""Events/sec + construction-time regression gate for the bench-smoke CI job.

Reads a ``pytest-benchmark`` JSON report (``--benchmark-json`` output of
``bench_scenarios.py --quick``), extracts the event-driver throughput
number (``bench_online_driver_events_per_sec`` -- the scale-up
distsim hot path), writes it to ``BENCH_events_per_sec.json`` next to the
committed baseline, and fails when throughput regressed more than the
allowed fraction (default 20%) below the baseline.

From the same report it gates the ring-monitoring throughput
(``bench_ring_monitoring_jobs_per_sec``: jobs/sec of a failure-free
196-vehicle run whose work is nearly all cube heartbeat broadcasts) against
the committed ``ring_monitoring_jobs_per_sec`` floor -- the gate that
carries protocol traffic through the transport, the event queue and the
message handler.  It also fails when that run sent no message at all.
Likewise it gates the lossy crash-recovery throughput
(``bench_lossy_crash_jobs_per_sec``: ring monitoring over 5% edge-keyed
loss with ten crashed vehicles) against ``lossy_crash_jobs_per_sec``, and
fails when that run sent no message or replaced no vehicle -- so the lossy
send path and crash recovery are gated too.  The same crash run split
across two worker processes (``bench_sharded_crash_jobs_per_sec``) gates
the shard path with traffic against ``sharded_crash_jobs_per_sec``; it
fails when that run sent no message or did not run as
``parallel-lockstep``.  The escalation crash-recovery run
(``bench_escalation_crash_jobs_per_sec``: ring monitoring with escalation,
whose per-object heartbeat carries the fleet-wide watch ring) gates
against ``escalation_crash_jobs_per_sec``; it fails when that run sent no
message or made no escalated replacement.

With ``--scale-report`` it additionally gates the ``10^4``-vehicle fleet
*construction time* measured by ``bench_scale.py`` (the
``BENCH_fleet_scale.json`` artifact) against the committed
``construction_seconds_1e4`` ceiling -- same tolerance, inverted sense
(construction regresses by getting *slower*) -- and the failure-free
*quiescent heartbeat round* rate at the same scale against the committed
``quiescent_rounds_per_sec_1e4`` floor (the idle-scan cost the active-set
registry path is responsible for keeping O(active)).

With ``--stream-report`` it gates the streaming-service throughput at the
``10^3``-vehicle scale measured by ``bench_stream.py`` (the
``BENCH_stream.json`` artifact) against the committed
``stream_events_per_sec_1e3`` floor -- same tolerance -- and fails hard
when the report's memory-flatness check (``memory.flat``) is false.

With ``--gossip-report`` it gates the gossip failure detector measured by
``bench_gossip.py`` (the ``BENCH_gossip.json`` artifact): the p99
detection latency in heartbeat rounds at the ``10^3``-vehicle scale under
10% loss must stay below the committed ``gossip_detection_rounds_1e3``
ceiling (same tolerance, inverted sense -- detection regresses by getting
*slower*), and the report's own ``within_bound`` flag (p99 against the
``2 * log2(n) * miss`` epidemic-spread bound) must be true.  The same
report's failure-free gossip round rate (``gossip.rounds_per_sec``: digest
peer draws, freshness ranking and digest merges at ~10^3 vehicles) must
clear the committed ``gossip_rounds_per_sec_1e3`` floor, and the gate
fails when that run sent no message (``gossip.messages_sent == 0``).

``--scale-report`` also gates the cube-sharded ``10^5``-vehicle tier: the
report's ``sharded_events_per_sec`` (wall-clock events/sec of the
``run_online(..., shards=N)`` multi-process run) must clear the committed
``sharded_events_per_sec_1e5`` floor.

The committed baseline (``benchmarks/bench_baseline.json``) is calibrated
conservatively for shared CI runners, which are typically 2-3x slower than
a development machine; the gate therefore catches order-of-magnitude event
core regressions (an accidental O(n) queue scan, a per-event allocation
storm, a de-vectorized construction loop), not single-digit noise.  After
a deliberate performance change, refresh both numbers with::

    python benchmarks/check_events_per_sec.py bench-smoke.json \
        --scale-report BENCH_fleet_scale.json \
        --stream-report BENCH_stream.json \
        --gossip-report BENCH_gossip.json --update

Usage::

    python benchmarks/check_events_per_sec.py REPORT.json \
        [--scale-report BENCH_fleet_scale.json] \
        [--stream-report BENCH_stream.json] \
        [--gossip-report BENCH_gossip.json] \
        [--baseline benchmarks/bench_baseline.json] \
        [--out BENCH_events_per_sec.json] \
        [--tolerance 0.2] [--update]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from _common import write_summary

#: The benchmark whose throughput the gate tracks.
GATED_BENCHMARK = "bench_online_driver_events_per_sec"

#: The benchmark whose jobs/sec gates the message path (it must send).
RING_BENCHMARK = "bench_ring_monitoring_jobs_per_sec"

#: The benchmark whose jobs/sec gates the lossy path with crash recovery
#: (it must send and replace).
LOSSY_BENCHMARK = "bench_lossy_crash_jobs_per_sec"

#: The benchmark whose jobs/sec gates the shard path with traffic (it must
#: send, and run in parallel-lockstep workers).
SHARDED_CRASH_BENCHMARK = "bench_sharded_crash_jobs_per_sec"

#: The benchmark whose jobs/sec gates the escalation-mode heartbeat (it
#: must send, and replace a pair across a cube boundary).
ESCALATION_CRASH_BENCHMARK = "bench_escalation_crash_jobs_per_sec"

class Work(NamedTuple):
    """One piece of work a jobs/sec gate's run must show."""

    #: The benchmark's extra_info key, and the suffix of its artifact key.
    key: str
    #: Its type in the artifact.
    cast: Callable[[Any], Any]
    #: Its text on the summary line.
    summary: str
    #: Whether the value shows the work.
    done: Callable[[Any], bool]
    #: The FAIL line when it does not.
    failure: str


def _positive(count: int) -> bool:
    return count > 0


#: Every gated run must send messages.
SENT = Work("messages", int, "{} messages", _positive, "the run sent no message")

#: The jobs/sec gates, in order: the benchmark, the stem of its baseline
#: and artifact keys, its name on ``--update``, and the work its run must
#: show.
JOBS_PER_SEC_GATES = (
    (RING_BENCHMARK, "ring_monitoring", "ring-monitoring", (SENT,)),
    (
        LOSSY_BENCHMARK,
        "lossy_crash",
        "lossy crash-recovery",
        (
            SENT,
            Work(
                "replacements",
                int,
                "{} replacements",
                _positive,
                "the run replaced no crashed vehicle",
            ),
        ),
    ),
    (
        SHARDED_CRASH_BENCHMARK,
        "sharded_crash",
        "sharded crash-recovery",
        (SENT, Work("shard_mode", str, "mode {}", "parallel-lockstep".__eq__, "ran as {!r}")),
    ),
    (
        ESCALATION_CRASH_BENCHMARK,
        "escalation_crash",
        "escalation crash-recovery",
        (
            SENT,
            Work(
                "escalated_replacements",
                int,
                "{} escalated replacements",
                _positive,
                "the run made no escalated replacement",
            ),
        ),
    ),
)

#: The bench_scale.py scale whose construction time the gate tracks.
GATED_SCALE = "1e4"


def extract_events_per_sec(report: dict) -> float:
    """The gated benchmark's events/sec from a pytest-benchmark report."""
    for bench in report.get("benchmarks", []):
        if bench.get("name") == GATED_BENCHMARK:
            value = bench.get("extra_info", {}).get("events_per_sec")
            if value is None:
                raise SystemExit(
                    f"benchmark {GATED_BENCHMARK!r} carries no events_per_sec "
                    "extra_info; did bench_scenarios.py change?"
                )
            return float(value)
    raise SystemExit(
        f"benchmark {GATED_BENCHMARK!r} not found in the report; "
        "run: pytest benchmarks/bench_scenarios.py -o python_functions='bench_*' "
        "--quick --benchmark-json=REPORT.json"
    )


def _extra_info(report: dict, name: str, keys: tuple) -> tuple:
    """The ``keys`` of benchmark ``name``'s extra_info in a pytest-benchmark report."""
    for bench in report.get("benchmarks", []):
        if bench.get("name") == name:
            info = bench.get("extra_info", {})
            if any(key not in info for key in keys):
                raise SystemExit(
                    f"benchmark {name!r} carries no {' / '.join(keys)} "
                    "extra_info; did bench_scenarios.py change?"
                )
            return tuple(info[key] for key in keys)
    raise SystemExit(
        f"benchmark {name!r} not found in the report; "
        "run: pytest benchmarks/bench_scenarios.py -o python_functions='bench_*' "
        "--quick --benchmark-json=REPORT.json"
    )


def extract_jobs_per_sec(report: dict, gate: tuple) -> tuple:
    """(jobs/sec, the value of each of its :class:`Work`) of one jobs/sec
    gate's benchmark."""
    name, _, _, work = gate
    values = _extra_info(report, name, ("jobs_per_sec",) + tuple(w.key for w in work))
    return float(values[0]), [w.cast(value) for w, value in zip(work, values[1:])]


def extract_construction_seconds(scale_report: dict) -> float:
    """The gated scale's construction time from a bench_scale.py report."""
    entry = scale_report.get("scales", {}).get(GATED_SCALE)
    if entry is None or "construction_seconds" not in entry:
        raise SystemExit(
            f"scale report carries no construction_seconds for scale {GATED_SCALE!r}; "
            "run: python benchmarks/bench_scale.py --quick --out BENCH_fleet_scale.json"
        )
    return float(entry["construction_seconds"])


def extract_quiescent_rounds(scale_report: dict) -> float:
    """The gated scale's quiescent rounds/sec from a bench_scale.py report."""
    entry = scale_report.get("scales", {}).get(GATED_SCALE)
    if entry is None or "quiescent_rounds_per_sec" not in entry:
        raise SystemExit(
            f"scale report carries no quiescent_rounds_per_sec for scale "
            f"{GATED_SCALE!r}; "
            "run: python benchmarks/bench_scale.py --quick --out BENCH_fleet_scale.json"
        )
    return float(entry["quiescent_rounds_per_sec"])


def extract_sharded_throughput(scale_report: dict) -> float:
    """The 1e5 tier's sharded wall-clock events/sec from a bench_scale.py report."""
    entry = scale_report.get("scales", {}).get("1e5")
    if entry is None or "sharded_events_per_sec" not in entry:
        raise SystemExit(
            "scale report carries no sharded_events_per_sec for the 1e5 tier; "
            "run: python benchmarks/bench_scale.py --quick --out BENCH_fleet_scale.json"
        )
    return float(entry["sharded_events_per_sec"])


def extract_stream_metrics(stream_report: dict) -> tuple:
    """(events/sec at 1e3, memory-flat flag) from a bench_stream.py report."""
    entry = stream_report.get("scales", {}).get("1e3")
    memory = stream_report.get("memory")
    if entry is None or "events_per_sec" not in entry or memory is None:
        raise SystemExit(
            "stream report carries no 1e3 events_per_sec / memory section; "
            "run: python benchmarks/bench_stream.py --quick --out BENCH_stream.json"
        )
    return float(entry["events_per_sec"]), bool(memory.get("flat"))


def extract_gossip_metrics(gossip_report: dict) -> tuple:
    """(p99 detection rounds, within-bound flag, gossip rounds/sec, gossip
    round messages sent) from a bench_gossip.py report."""
    p99 = gossip_report.get("gossip_detection_rounds_p99")
    rounds = gossip_report.get("gossip", {})
    if (
        p99 is None
        or "within_bound" not in gossip_report
        or "rounds_per_sec" not in rounds
        or "messages_sent" not in rounds
    ):
        raise SystemExit(
            "gossip report carries no gossip_detection_rounds_p99 / within_bound / "
            "gossip.rounds_per_sec / gossip.messages_sent; "
            "run: python benchmarks/bench_gossip.py --quick --out BENCH_gossip.json"
        )
    return (
        float(p99),
        bool(gossip_report["within_bound"]),
        float(rounds["rounds_per_sec"]),
        int(rounds["messages_sent"]),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="pytest-benchmark JSON report path")
    parser.add_argument(
        "--scale-report",
        default=None,
        help="bench_scale.py JSON artifact; enables the construction-time gate",
    )
    parser.add_argument(
        "--stream-report",
        default=None,
        help="bench_stream.py JSON artifact; enables the streaming-service gate",
    )
    parser.add_argument(
        "--gossip-report",
        default=None,
        help=(
            "bench_gossip.py JSON artifact; enables the detection-latency "
            "and gossip-round gates"
        ),
    )
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).parent / "bench_baseline.json"),
        help="committed baseline JSON (default: benchmarks/bench_baseline.json)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_events_per_sec.json",
        help="where to write the measured-number artifact",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional regression below the baseline (default 0.2)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline with the measured number instead of gating",
    )
    args = parser.parse_args(argv)

    report = json.loads(Path(args.report).read_text())
    measured = extract_events_per_sec(report)
    jobs = [extract_jobs_per_sec(report, gate) for gate in JOBS_PER_SEC_GATES]
    construction = None
    quiescent = None
    sharded = None
    if args.scale_report is not None:
        scale_payload = json.loads(Path(args.scale_report).read_text())
        construction = extract_construction_seconds(scale_payload)
        quiescent = extract_quiescent_rounds(scale_payload)
        sharded = extract_sharded_throughput(scale_payload)
    stream = None
    stream_flat = True
    if args.stream_report is not None:
        stream, stream_flat = extract_stream_metrics(
            json.loads(Path(args.stream_report).read_text())
        )
    gossip = None
    gossip_within_bound = True
    gossip_rounds = None
    if args.gossip_report is not None:
        gossip, gossip_within_bound, gossip_rounds, gossip_messages = (
            extract_gossip_metrics(json.loads(Path(args.gossip_report).read_text()))
        )

    baseline_path = Path(args.baseline)
    if args.update:
        refreshed = {
            "benchmark": GATED_BENCHMARK,
            "events_per_sec": measured,
        }
        for (_, stem, _, _), (jobs_per_sec, _) in zip(JOBS_PER_SEC_GATES, jobs):
            refreshed[f"{stem}_jobs_per_sec"] = jobs_per_sec
        if construction is not None:
            refreshed["construction_seconds_1e4"] = construction
        if quiescent is not None:
            refreshed["quiescent_rounds_per_sec_1e4"] = quiescent
        if sharded is not None:
            refreshed["sharded_events_per_sec_1e5"] = sharded
        if stream is not None:
            refreshed["stream_events_per_sec_1e3"] = stream
        if gossip is not None:
            refreshed["gossip_detection_rounds_1e3"] = gossip
            refreshed["gossip_rounds_per_sec_1e3"] = gossip_rounds
        if baseline_path.exists():
            # Preserve calibration notes and any other extra keys.
            previous = json.loads(baseline_path.read_text())
            refreshed = {**previous, **refreshed}
        baseline_path.write_text(json.dumps(refreshed, indent=2) + "\n")
        print(f"baseline updated: {measured:.0f} events/sec -> {baseline_path}")
        for (_, _, label, _), (jobs_per_sec, _) in zip(JOBS_PER_SEC_GATES, jobs):
            print(f"baseline updated: {jobs_per_sec:.1f} {label} jobs/sec")
        if construction is not None:
            print(f"baseline updated: {construction:.4f}s construction (1e4)")
        if quiescent is not None:
            print(f"baseline updated: {quiescent:.0f} quiescent rounds/sec (1e4)")
        if sharded is not None:
            print(f"baseline updated: {sharded:.0f} sharded events/sec (1e5)")
        if stream is not None:
            print(f"baseline updated: {stream:.0f} stream events/sec (1e3)")
        if gossip is not None:
            print(f"baseline updated: {gossip:.1f} gossip detection rounds p99 (1e3)")
            print(f"baseline updated: {gossip_rounds:.2f} gossip rounds/sec (1e3)")
        return 0

    baseline_payload = json.loads(baseline_path.read_text())
    baseline = baseline_payload["events_per_sec"]
    floor = baseline * (1.0 - args.tolerance)
    passed = measured >= floor

    artifact = {
        "benchmark": GATED_BENCHMARK,
        "events_per_sec": measured,
        "baseline_events_per_sec": baseline,
        "floor_events_per_sec": floor,
        "tolerance": args.tolerance,
        "ratio_vs_baseline": measured / baseline if baseline else None,
        "pass": passed,
    }

    status = "ok" if passed else "REGRESSION"
    print(
        f"{GATED_BENCHMARK}: {measured:.0f} events/sec "
        f"(baseline {baseline:.0f}, floor {floor:.0f}) -> {status}"
    )

    jobs_passed = []
    for (name, stem, _, work), (jobs_per_sec, values) in zip(JOBS_PER_SEC_GATES, jobs):
        base = baseline_payload.get(f"{stem}_jobs_per_sec")
        if base is None:
            raise SystemExit(
                f"the baseline carries no {stem}_jobs_per_sec; refresh it with --update"
            )
        jobs_floor = float(base) * (1.0 - args.tolerance)
        shown = [w.done(value) for w, value in zip(work, values)]
        gate_passed = jobs_per_sec >= jobs_floor and all(shown)
        jobs_passed.append(gate_passed)
        artifact[f"{stem}_jobs_per_sec"] = jobs_per_sec
        artifact.update({f"{stem}_{w.key}": value for w, value in zip(work, values)})
        artifact.update(
            {
                f"baseline_{stem}_jobs_per_sec": float(base),
                f"floor_{stem}_jobs_per_sec": jobs_floor,
                f"{stem}_pass": gate_passed,
            }
        )
        summary = ", ".join(w.summary.format(value) for w, value in zip(work, values))
        print(
            f"{name}: {jobs_per_sec:.1f} jobs/sec, {summary} "
            f"(baseline {float(base):.1f}, floor {jobs_floor:.1f}) "
            f"-> {'ok' if gate_passed else 'REGRESSION'}"
        )
        for w, value, ok in zip(work, values, shown):
            if not ok:
                print(f"{name}: {w.failure.format(value)} -> FAIL")

    construction_passed = True
    if construction is not None:
        ceiling_base = baseline_payload.get("construction_seconds_1e4")
        if ceiling_base is None:
            raise SystemExit(
                "--scale-report given but the baseline carries no "
                "construction_seconds_1e4; refresh it with --update"
            )
        ceiling = float(ceiling_base) * (1.0 + args.tolerance)
        construction_passed = construction <= ceiling
        artifact.update(
            {
                "construction_seconds_1e4": construction,
                "baseline_construction_seconds_1e4": float(ceiling_base),
                "ceiling_construction_seconds_1e4": ceiling,
                "construction_pass": construction_passed,
            }
        )
        cstatus = "ok" if construction_passed else "REGRESSION"
        print(
            f"fleet construction (1e4): {construction:.4f}s "
            f"(baseline {float(ceiling_base):.4f}, ceiling {ceiling:.4f}) -> {cstatus}"
        )

    quiescent_passed = True
    if quiescent is not None:
        quiescent_base = baseline_payload.get("quiescent_rounds_per_sec_1e4")
        if quiescent_base is None:
            raise SystemExit(
                "--scale-report given but the baseline carries no "
                "quiescent_rounds_per_sec_1e4; refresh it with --update"
            )
        quiescent_floor = float(quiescent_base) * (1.0 - args.tolerance)
        quiescent_passed = quiescent >= quiescent_floor
        artifact.update(
            {
                "quiescent_rounds_per_sec_1e4": quiescent,
                "baseline_quiescent_rounds_per_sec_1e4": float(quiescent_base),
                "floor_quiescent_rounds_per_sec_1e4": quiescent_floor,
                "quiescent_pass": quiescent_passed,
            }
        )
        qstatus = "ok" if quiescent_passed else "REGRESSION"
        print(
            f"quiescent rounds (1e4): {quiescent:.0f} rounds/sec "
            f"(baseline {float(quiescent_base):.0f}, floor {quiescent_floor:.0f}) "
            f"-> {qstatus}"
        )

    sharded_passed = True
    if sharded is not None:
        sharded_base = baseline_payload.get("sharded_events_per_sec_1e5")
        if sharded_base is None:
            raise SystemExit(
                "--scale-report given but the baseline carries no "
                "sharded_events_per_sec_1e5; refresh it with --update"
            )
        sharded_floor = float(sharded_base) * (1.0 - args.tolerance)
        sharded_passed = sharded >= sharded_floor
        artifact.update(
            {
                "sharded_events_per_sec_1e5": sharded,
                "baseline_sharded_events_per_sec_1e5": float(sharded_base),
                "floor_sharded_events_per_sec_1e5": sharded_floor,
                "sharded_pass": sharded_passed,
            }
        )
        shstatus = "ok" if sharded_passed else "REGRESSION"
        print(
            f"sharded run (1e5): {sharded:.0f} events/sec "
            f"(baseline {float(sharded_base):.0f}, floor {sharded_floor:.0f}) "
            f"-> {shstatus}"
        )

    stream_passed = True
    if stream is not None:
        stream_base = baseline_payload.get("stream_events_per_sec_1e3")
        if stream_base is None:
            raise SystemExit(
                "--stream-report given but the baseline carries no "
                "stream_events_per_sec_1e3; refresh it with --update"
            )
        stream_floor = float(stream_base) * (1.0 - args.tolerance)
        stream_passed = stream >= stream_floor and stream_flat
        artifact.update(
            {
                "stream_events_per_sec_1e3": stream,
                "baseline_stream_events_per_sec_1e3": float(stream_base),
                "floor_stream_events_per_sec_1e3": stream_floor,
                "stream_memory_flat": stream_flat,
                "stream_pass": stream_passed,
            }
        )
        sstatus = "ok" if stream_passed else "REGRESSION"
        print(
            f"streaming service (1e3): {stream:.0f} events/sec "
            f"(baseline {float(stream_base):.0f}, floor {stream_floor:.0f}), "
            f"memory {'flat' if stream_flat else 'GROWING'} -> {sstatus}"
        )

    gossip_passed = True
    if gossip is not None:
        gossip_base = baseline_payload.get("gossip_detection_rounds_1e3")
        if gossip_base is None:
            raise SystemExit(
                "--gossip-report given but the baseline carries no "
                "gossip_detection_rounds_1e3; refresh it with --update"
            )
        gossip_ceiling = float(gossip_base) * (1.0 + args.tolerance)
        gossip_passed = gossip <= gossip_ceiling and gossip_within_bound
        artifact.update(
            {
                "gossip_detection_rounds_1e3": gossip,
                "baseline_gossip_detection_rounds_1e3": float(gossip_base),
                "ceiling_gossip_detection_rounds_1e3": gossip_ceiling,
                "gossip_within_bound": gossip_within_bound,
                "gossip_pass": gossip_passed,
            }
        )
        gstatus = "ok" if gossip_passed else "REGRESSION"
        print(
            f"gossip detection (1e3): p99 {gossip:.1f} rounds "
            f"(baseline {float(gossip_base):.1f}, ceiling {gossip_ceiling:.1f}), "
            f"bound {'ok' if gossip_within_bound else 'EXCEEDED'} -> {gstatus}"
        )

    gossip_rounds_passed = True
    if gossip_rounds is not None:
        rounds_base = baseline_payload.get("gossip_rounds_per_sec_1e3")
        if rounds_base is None:
            raise SystemExit(
                "--gossip-report given but the baseline carries no "
                "gossip_rounds_per_sec_1e3; refresh it with --update"
            )
        rounds_floor = float(rounds_base) * (1.0 - args.tolerance)
        gossip_rounds_passed = gossip_rounds >= rounds_floor and gossip_messages > 0
        artifact.update(
            {
                "gossip_rounds_per_sec_1e3": gossip_rounds,
                "gossip_round_messages": gossip_messages,
                "baseline_gossip_rounds_per_sec_1e3": float(rounds_base),
                "floor_gossip_rounds_per_sec_1e3": rounds_floor,
                "gossip_rounds_pass": gossip_rounds_passed,
            }
        )
        grstatus = "ok" if gossip_rounds_passed else "REGRESSION"
        print(
            f"gossip rounds (1e3): {gossip_rounds:.2f} rounds/sec, "
            f"{gossip_messages} messages "
            f"(baseline {float(rounds_base):.2f}, floor {rounds_floor:.2f}) -> {grstatus}"
        )
        if not gossip_messages:
            print("gossip rounds (1e3): the run sent no message -> FAIL")

    overall = (
        passed
        and all(jobs_passed)
        and construction_passed
        and quiescent_passed
        and sharded_passed
        and stream_passed
        and gossip_passed
        and gossip_rounds_passed
    )
    artifact["pass"] = overall
    out_path = Path(args.out)
    out_path.write_text(json.dumps(artifact, indent=2) + "\n")
    if out_path.name.startswith("BENCH_"):
        # Fold the gate verdicts into the consolidated per-run summary.
        write_summary(out_path.parent)
    return 0 if overall else 1


if __name__ == "__main__":
    sys.exit(main())
