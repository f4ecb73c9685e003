#!/usr/bin/env python
"""Throughput regression gate for the bench-smoke CI job.

Each row of :data:`GATES` names one number in one benchmark report, its
key in the committed baseline (``benchmarks/bench_baseline.json``), whether
that key is a floor or a ceiling, and the checks its run must also pass (it
sent messages, it replaced a vehicle, ...).  A gate fails when its number is
more than ``--tolerance`` (default 20%) below its floor or above its
ceiling, or when a check fails; the job then exits 1.  The positional report
is the ``pytest-benchmark`` JSON of ``bench_scenarios.py --quick``;
``--scale-report``, ``--stream-report`` and ``--gossip-report`` add the gates
on ``bench_scale.py``, ``bench_stream.py`` and ``bench_gossip.py``.  Every
measured number, limit and verdict goes to ``--out``.

The baseline is calibrated for shared CI runners, typically 2-3x slower
than a development machine, so the gates catch order-of-magnitude
regressions (an accidental O(n) scan, a per-event allocation storm), not
noise.  After a deliberate performance change, rewrite every gated number
of the baseline (its note and any other key stay) with::

    python benchmarks/check_events_per_sec.py bench-smoke.json \
        --scale-report BENCH_fleet_scale.json \
        --stream-report BENCH_stream.json \
        --gossip-report BENCH_gossip.json --update
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from _common import write_summary

#: The benchmark of the event-driver throughput gate, named in the artifact.
GATED_BENCHMARK = "bench_online_driver_events_per_sec"

#: The reports a gate can read (``main()``'s argument for each) and the
#: command that writes each.
REPORTS = {
    "report": (
        "pytest benchmarks/bench_scenarios.py -o python_functions='bench_*' "
        "--quick --benchmark-json=REPORT.json"
    ),
    "scale_report": "python benchmarks/bench_scale.py --quick --out BENCH_fleet_scale.json",
    "stream_report": "python benchmarks/bench_stream.py --quick --out BENCH_stream.json",
    "gossip_report": "python benchmarks/bench_gossip.py --quick --out BENCH_gossip.json",
}


class Work(NamedTuple):
    """A check a gated run must also pass."""

    #: Its dotted path below the gate's section; with ``_`` for ``.``, the
    #: suffix of its artifact key.
    key: str
    #: Its type in the artifact.
    cast: Callable[[Any], Any]
    #: Its text on the gate's line.
    summary: str
    #: Whether the value passes.
    done: Callable[[Any], bool]
    #: The FAIL line when it does not.
    failure: str


class Gate(NamedTuple):
    """One gated number."""

    #: Its baseline key, also its artifact key.
    key: str
    #: The stem of its ``_pass`` and check artifact keys.
    stem: str
    #: The report it reads, a key of :data:`REPORTS`.
    report: str
    #: The dotted section of the report its value and checks sit in (in the
    #: pytest-benchmark report, a benchmark's name, whose extra_info it reads).
    section: str
    #: The dotted path of its value below the section.
    value: str
    #: ``"floor"`` (it regresses by falling) or ``"ceiling"`` (by rising).
    limit: str
    #: The format of its numbers and their unit on its line.
    fmt: str
    unit: str
    work: tuple = ()


def _positive(count: int) -> bool:
    return count > 0


#: Every jobs/sec run, and the gossip round, must send messages.
SENT = Work("messages", int, "{} messages", _positive, "the run sent no message")


def _jobs(stem: str, *work: Work) -> Gate:
    """The jobs/sec gate of ``bench_{stem}_jobs_per_sec``."""
    bench = f"bench_{stem}_jobs_per_sec"
    return Gate(
        f"{stem}_jobs_per_sec", stem, "report", bench, "jobs_per_sec", "floor", ".1f",
        "jobs/sec", (SENT, *work),
    )


#: Every gate, in the order they are read and printed: one row per numeric
#: key of the committed baseline.
GATES = (
    Gate(
        "events_per_sec", "events", "report", GATED_BENCHMARK, "events_per_sec", "floor",
        ".0f", "events/sec",
    ),
    _jobs("ring_monitoring"),
    _jobs(
        "lossy_crash",
        Work("replacements", int, "{} replacements", _positive,
             "the run replaced no crashed vehicle"),
    ),
    _jobs(
        "sharded_crash",
        Work("shard_mode", str, "mode {}", "parallel-lockstep".__eq__, "ran as {!r}"),
    ),
    _jobs(
        "escalation_crash",
        Work("escalated_replacements", int, "{} escalated replacements", _positive,
             "the run made no escalated replacement"),
    ),
    Gate(
        "construction_seconds_1e4", "construction", "scale_report", "scales.1e4",
        "construction_seconds", "ceiling", ".4f", "s",
    ),
    Gate(
        "quiescent_rounds_per_sec_1e4", "quiescent", "scale_report", "scales.1e4",
        "quiescent_rounds_per_sec", "floor", ".0f", "rounds/sec",
    ),
    Gate(
        "sharded_events_per_sec_1e5", "sharded", "scale_report", "scales.1e5",
        "sharded_events_per_sec", "floor", ".0f", "events/sec",
    ),
    Gate(
        "stream_events_per_sec_1e3", "stream", "stream_report", "",
        "scales.1e3.events_per_sec", "floor", ".0f", "events/sec",
        (Work("memory.flat", bool, "memory flat: {}", bool,
              "memory grew over the stream"),),
    ),
    Gate(
        "gossip_detection_rounds_1e3", "gossip", "gossip_report", "",
        "gossip_detection_rounds_p99", "ceiling", ".1f", "rounds p99",
        (Work("within_bound", bool, "within bound: {}", bool,
              "p99 exceeds the 2*log2(n)*miss bound"),),
    ),
    Gate(
        "gossip_rounds_per_sec_1e3", "gossip_rounds", "gossip_report", "gossip",
        "rounds_per_sec", "floor", ".2f", "rounds/sec",
        (SENT._replace(key="messages_sent"),),
    ),
)


def _read(report: dict, gate: Gate, key: str) -> Any:
    """The value at dotted ``key`` below ``gate``'s section of ``report``."""
    path = f"{gate.section}.{key}" if gate.section else key
    value = report
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            raise SystemExit(
                f"the {gate.report.replace('_', ' ')} carries no {path}; "
                f"run: {REPORTS[gate.report]}"
            )
        value = value[part]
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="pytest-benchmark JSON report path")
    parser.add_argument(
        "--scale-report",
        default=None,
        help="bench_scale.py JSON artifact; enables the fleet-scale gates",
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
        help="allowed fractional regression past the baseline (default 0.2)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline with the measured numbers instead of gating",
    )
    args = parser.parse_args(argv)

    reports = {
        name: json.loads(Path(path).read_text())
        for name in REPORTS
        if (path := getattr(args, name)) is not None
    }
    # A pytest-benchmark report lists its benchmarks; gates read them by name.
    reports["report"] = {
        bench.get("name"): bench.get("extra_info", {})
        for bench in reports["report"].get("benchmarks", [])
    }
    measured = [
        (
            gate,
            float(_read(reports[gate.report], gate, gate.value)),
            [w.cast(_read(reports[gate.report], gate, w.key)) for w in gate.work],
        )
        for gate in GATES
        if gate.report in reports
    ]

    baseline_path = Path(args.baseline)
    if args.update:
        refreshed = {"benchmark": GATED_BENCHMARK}
        refreshed.update((gate.key, value) for gate, value, _ in measured)
        if baseline_path.exists():
            refreshed = {**json.loads(baseline_path.read_text()), **refreshed}
        baseline_path.write_text(json.dumps(refreshed, indent=2) + "\n")
        for gate, value, _ in measured:
            print(f"baseline updated: {gate.key} = {value:{gate.fmt}} {gate.unit}")
        print(f"baseline written to {baseline_path}")
        return 0

    baseline = json.loads(baseline_path.read_text())
    artifact = {"benchmark": GATED_BENCHMARK, "tolerance": args.tolerance}
    overall = True
    for gate, value, checks in measured:
        if gate.key not in baseline:
            raise SystemExit(f"the baseline carries no {gate.key}; refresh it with --update")
        base = float(baseline[gate.key])
        if gate.limit == "floor":
            limit = base * (1.0 - args.tolerance)
            within = value >= limit
        else:
            limit = base * (1.0 + args.tolerance)
            within = value <= limit
        done = [w.done(check) for w, check in zip(gate.work, checks)]
        passed = within and all(done)
        overall = overall and passed
        artifact.update(
            {
                gate.key: value,
                f"baseline_{gate.key}": base,
                f"{gate.limit}_{gate.key}": limit,
                f"{gate.stem}_pass": passed,
            }
        )
        artifact.update(
            (f"{gate.stem}_{w.key.replace('.', '_')}", check)
            for w, check in zip(gate.work, checks)
        )
        # A benchmark's gate is named by the benchmark, a report's by its key.
        label = gate.section if gate.report == "report" else gate.key
        summary = "".join(f", {w.summary.format(c)}" for w, c in zip(gate.work, checks))
        print(
            f"{label}: {value:{gate.fmt}} {gate.unit}{summary} "
            f"(baseline {base:{gate.fmt}}, {gate.limit} {limit:{gate.fmt}}) "
            f"-> {'ok' if passed else 'REGRESSION'}"
        )
        for w, check, ok in zip(gate.work, checks, done):
            if not ok:
                print(f"{label}: {w.failure.format(check)} -> FAIL")

    artifact["pass"] = overall
    out_path = Path(args.out)
    out_path.write_text(json.dumps(artifact, indent=2) + "\n")
    if out_path.name.startswith("BENCH_"):
        # Fold the gate verdicts into the consolidated per-run summary.
        write_summary(out_path.parent)
    return 0 if overall else 1


if __name__ == "__main__":
    sys.exit(main())
