#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ring-steady --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced;
``--trace 1`` runs traced repetitions (alternating with untraced ones,
the base of the overhead figure) and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bootstrap() -> None:
    """Import the program from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path[:0] = [str(src), str(ROOT)]


def _print_report(report) -> None:
    print(
        f"{report['workload']} seed {report['seed']}: "
        f"{report['repetitions']} repetitions, "
        f"{report['messages']} messages "
        f"({report['messages_per_job']:.4f} msgs/job); untraced jobs/s "
        + ", ".join(f"{rate:.2f}" for rate in report["rates"])
    )
    committed = report["fingerprint_committed"]
    if committed is None:
        verdict = "no committed fingerprint for this seed"
    elif committed == report["fingerprint"]:
        verdict = "matches the committed one"
    else:
        verdict = f"DIFFERS from the committed {committed}"
    print(f"fingerprint {report['fingerprint']} ({verdict})")
    for kind, row in report.get("census", {}).items():
        print(f"  census {kind:<16} sent {row['sent']:>10} delivered {row['delivered']:>10}")
    for name, metric in report["metrics"].items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    for failure in report["failures"]:
        print(f"CHECK FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _bootstrap()
    from perfbench.bench import measure
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(report)
    print(
        json.dumps(
            {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
