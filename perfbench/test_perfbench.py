"""The benchmark's own tests: tiny variants of every workload, run traced.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.bench import measure, run_once, trace_checks  # noqa: E402
from perfbench.tracing import Tracer, install_marks  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def traced():
    """One traced tiny run per workload (seed 0), shared by the tests."""
    return {name: measure(name, 0, 0.01, True, tiny=True) for name in WORKLOADS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_is_correct_and_traced(traced, name):
    report = traced[name]
    assert report["correct"], report["failures"]
    assert report["failed"] == 0 and report["attempted"] > 0
    metrics = report["metrics"]
    assert metrics["trace.unattributed_s"]["value"] >= 0
    assert "trace.overhead_frac" in metrics
    assert metrics["engine.events"]["value"] > 0
    if WORKLOADS[name].expect_messages:
        assert report["messages"] > 0
    else:
        assert report["messages"] == 0


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def test_traced_runs_report_exactly_the_declared_per_layer_metrics(traced):
    declared = _declared("per_layer")
    for report in traced.values():
        units = {key: value["unit"] for key, value in report["metrics"].items()}
        assert units == declared


def test_untraced_run_reports_exactly_the_declared_end_to_end_metrics():
    report = measure("ring-steady", 0, 0.01, False, tiny=True)
    assert report["correct"], report["failures"]
    units = {key: value["unit"] for key, value in report["metrics"].items()}
    assert units == _declared("end_to_end")
    assert all(value["value"] > 0 for value in report["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_span_self_times_are_non_negative_and_within_wall(name):
    install_marks()
    case = WORKLOADS[name].case(0, tiny=True)
    rep = run_once(case, tracer=Tracer())
    assert rep.traces
    for trace in rep.traces:
        selves = [entry[2] for entry in trace["spans"].values()]
        assert min(selves) >= -1e-9
        assert sum(selves) <= trace["wall"]
        assert trace["root_self"] >= -1e-9
    assert trace_checks(rep) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_census_totals_match_the_counters(traced, name):
    report = traced[name]
    census = report["census"]
    metrics = report["metrics"]
    sent = sum(row["sent"] for row in census.values())
    delivered = sum(row["delivered"] for row in census.values())
    assert sent == report["messages"] == metrics["network.sent"]["value"]
    handled = sum(
        value["value"] for key, value in metrics.items()
        if key.startswith("handler.") and key.endswith(".n")
    )
    assert delivered == handled
    assert delivered + metrics["network.dropped"]["value"] == sent


def test_ring_steady_census_is_all_existing(traced):
    census = traced["ring-steady"]["census"]
    assert list(census) == ["Existing"]


def test_sharded_workload_times_its_workers(traced):
    metrics = traced["ring-crash-sharded"]["metrics"]
    assert metrics["shard.worker_busy_min_s"]["value"] > 0
    busy_max = metrics["shard.worker_busy_max_s"]["value"]
    assert busy_max >= metrics["shard.worker_busy_min_s"]["value"]
    assert metrics["shard.pool_s"]["value"] >= busy_max
    assert metrics["shard.pool_overhead_s"]["value"] >= 0
    assert metrics["shard.imbalance"]["value"] >= 1.0
    assert metrics["shard.payload_bytes"]["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_fingerprints(name):
    install_marks()
    first = run_once(WORKLOADS[name].case(7, tiny=True)).outcome.fingerprint
    second = run_once(WORKLOADS[name].case(7, tiny=True)).outcome.fingerprint
    assert first == second


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_changes_the_job_order(name):
    def order(seed):
        case = WORKLOADS[name].case(seed, tiny=True)
        return [job.position for job in case.inputs()]

    assert order(0) == order(0)
    assert order(0) != order(1)
