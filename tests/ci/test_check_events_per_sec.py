"""The bench-smoke gate: ``benchmarks/check_events_per_sec.py`` on synthetic reports.

The gate reads a ``pytest-benchmark`` report and a committed baseline and
fails the CI job when a throughput falls below its floor, or when a gated
run did no protocol work.  These tests drive its ``main()`` on small
hand-made reports: at the floor every gate passes, and each failure
condition of the four jobs/sec gates fails the job on its own.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

#: ``--tolerance``: floors are 0.75 of the baseline, exact in binary.
TOLERANCE = 0.25

BASELINE = {
    "events_per_sec": 1000,
    "ring_monitoring_jobs_per_sec": 200,
    "lossy_crash_jobs_per_sec": 100,
    "sharded_crash_jobs_per_sec": 80,
    "escalation_crash_jobs_per_sec": 40,
}


@pytest.fixture
def gate(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("check_events_per_sec")


def _at_the_floor():
    """Benchmark name -> extra_info, every throughput exactly at its floor."""
    return {
        "bench_online_driver_events_per_sec": {"events_per_sec": 750.0},
        "bench_ring_monitoring_jobs_per_sec": {"jobs_per_sec": 150.0, "messages": 10},
        "bench_lossy_crash_jobs_per_sec": {
            "jobs_per_sec": 75.0, "messages": 10, "replacements": 2,
        },
        "bench_sharded_crash_jobs_per_sec": {
            "jobs_per_sec": 60.0, "messages": 10, "shard_mode": "parallel-lockstep",
        },
        "bench_escalation_crash_jobs_per_sec": {
            "jobs_per_sec": 30.0, "messages": 10, "escalated_replacements": 1,
        },
    }


def _run(gate, tmp_path, extra_info):
    report = tmp_path / "report.json"
    benchmarks = [{"name": name, "extra_info": info} for name, info in extra_info.items()]
    report.write_text(json.dumps({"benchmarks": benchmarks}))
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(BASELINE))
    out = tmp_path / "gate.json"
    code = gate.main(
        [str(report), "--baseline", str(baseline), "--out", str(out),
         "--tolerance", str(TOLERANCE)]
    )
    return code, json.loads(out.read_text())


def test_passes_at_the_floor(gate, tmp_path, capsys):
    code, artifact = _run(gate, tmp_path, _at_the_floor())
    assert code == 0
    assert artifact["pass"]
    for key in (
        "ring_monitoring_pass", "lossy_crash_pass", "sharded_crash_pass", "escalation_crash_pass",
    ):
        assert artifact[key], key
    assert artifact["floor_lossy_crash_jobs_per_sec"] == 75.0
    assert artifact["sharded_crash_shard_mode"] == "parallel-lockstep"
    out = capsys.readouterr().out
    assert "REGRESSION" not in out and "FAIL" not in out
    assert (
        "bench_lossy_crash_jobs_per_sec: 75.0 jobs/sec, 10 messages, 2 replacements "
        "(baseline 100.0, floor 75.0) -> ok"
    ) in out


@pytest.mark.parametrize(
    "bench, key",
    [
        ("bench_online_driver_events_per_sec", None),
        ("bench_ring_monitoring_jobs_per_sec", "ring_monitoring_pass"),
        ("bench_lossy_crash_jobs_per_sec", "lossy_crash_pass"),
        ("bench_sharded_crash_jobs_per_sec", "sharded_crash_pass"),
        ("bench_escalation_crash_jobs_per_sec", "escalation_crash_pass"),
    ],
)
def test_fails_below_the_floor(gate, tmp_path, capsys, bench, key):
    extra_info = _at_the_floor()
    field = "events_per_sec" if key is None else "jobs_per_sec"
    extra_info[bench][field] -= 0.5
    code, artifact = _run(gate, tmp_path, extra_info)
    assert code == 1
    assert not artifact["pass"]
    if key is not None:
        assert not artifact[key]
    assert capsys.readouterr().out.count("-> REGRESSION") == 1


@pytest.mark.parametrize(
    "bench, field, value, key, line",
    [
        ("bench_ring_monitoring_jobs_per_sec", "messages", 0, "ring_monitoring_pass",
         "bench_ring_monitoring_jobs_per_sec: the run sent no message -> FAIL"),
        ("bench_lossy_crash_jobs_per_sec", "messages", 0, "lossy_crash_pass",
         "bench_lossy_crash_jobs_per_sec: the run sent no message -> FAIL"),
        ("bench_lossy_crash_jobs_per_sec", "replacements", 0, "lossy_crash_pass",
         "bench_lossy_crash_jobs_per_sec: the run replaced no crashed vehicle -> FAIL"),
        ("bench_sharded_crash_jobs_per_sec", "messages", 0, "sharded_crash_pass",
         "bench_sharded_crash_jobs_per_sec: the run sent no message -> FAIL"),
        ("bench_sharded_crash_jobs_per_sec", "shard_mode", "single-process",
         "sharded_crash_pass",
         "bench_sharded_crash_jobs_per_sec: ran as 'single-process' -> FAIL"),
        ("bench_escalation_crash_jobs_per_sec", "messages", 0, "escalation_crash_pass",
         "bench_escalation_crash_jobs_per_sec: the run sent no message -> FAIL"),
        ("bench_escalation_crash_jobs_per_sec", "escalated_replacements", 0,
         "escalation_crash_pass",
         "bench_escalation_crash_jobs_per_sec: the run made no escalated replacement -> FAIL"),
    ],
)
def test_fails_on_a_run_without_protocol_work(
    gate, tmp_path, capsys, bench, field, value, key, line
):
    extra_info = _at_the_floor()
    extra_info[bench][field] = value
    code, artifact = _run(gate, tmp_path, extra_info)
    assert code == 1
    assert not artifact["pass"] and not artifact[key]
    out = capsys.readouterr().out
    assert line in out
    assert out.count("-> REGRESSION") == 1
