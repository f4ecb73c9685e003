"""Shared fixtures and helpers for the benchmark harness.

Every benchmark corresponds to one experiment of DESIGN.md's per-experiment
index (E1--E13); each records the quantities the paper's worked example or
theorem predicts next to the measured ones via ``benchmark.extra_info`` so
that ``--benchmark-json`` output carries the full comparison, and asserts
the *shape* claims (who wins, how things scale) so a regression in the
reproduction fails loudly even in benchmark mode.
"""

from __future__ import annotations

import numpy as np
import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="benchmark smoke mode: keep one family solve plus the "
        "event-driver events/sec, ring-monitoring, lossy crash-recovery, "
        "sharded crash-recovery and escalation crash-recovery jobs/sec "
        "benchmarks, deselect the rest (the CI smoke job runs "
        "bench_scenarios.py this way)",
    )


#: The --quick selection: one end-to-end family solve, the event-driver
#: throughput number, the ring-monitoring jobs/sec, the lossy
#: crash-recovery jobs/sec, single-process and sharded, and the escalation
#: crash-recovery jobs/sec -- the lines a transport, event-queue, handler,
#: shard-path or escalation-heartbeat regression would move.
_QUICK_KEEP = (
    "bench_family_solve_time[hotspot]",
    "bench_online_driver_events_per_sec",
    "bench_ring_monitoring_jobs_per_sec",
    "bench_lossy_crash_jobs_per_sec",
    "bench_sharded_crash_jobs_per_sec",
    "bench_escalation_crash_jobs_per_sec",
)


def pytest_collection_modifyitems(config: pytest.Config, items: list) -> None:
    if not config.getoption("--quick"):
        return
    keep, drop = [], []
    for item in items:
        (keep if item.name in _QUICK_KEEP else drop).append(item)
    if drop:
        config.hook.pytest_deselected(items=drop)
        items[:] = keep


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator shared by the randomized benchmarks."""
    return np.random.default_rng(20080803)
