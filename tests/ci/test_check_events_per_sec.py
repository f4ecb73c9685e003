"""The bench-smoke gate: ``benchmarks/check_events_per_sec.py`` on synthetic reports.

The gate reads a ``pytest-benchmark`` report, the scale, stream and gossip
reports and a committed baseline, and fails the CI job when a number falls
below its floor or rises above its ceiling, or when a gated run did no
protocol work.  These tests drive its ``main()`` on small hand-made
reports: at the floors and ceilings every gate passes, each failure
condition of each gate fails the job on its own, a report without a gated
value exits naming it, ``--update`` rewrites only the gated numbers, and
the ``GATES`` table and the committed baseline name the same numbers.
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


# -- the report-side gates: --scale-report, --stream-report, --gossip-report --

#: Baseline keys of the gates read from the three side reports, each with
#: a floor or ceiling exact in binary at TOLERANCE.
SIDE_BASELINE = {
    "construction_seconds_1e4": 0.5,
    "quiescent_rounds_per_sec_1e4": 2000,
    "sharded_events_per_sec_1e5": 4000,
    "stream_events_per_sec_1e3": 20000,
    "gossip_detection_rounds_1e3": 8,
    "gossip_rounds_per_sec_1e3": 12.0,
}


def _side_reports():
    """Option -> report, every value exactly at its floor or ceiling."""
    return {
        "--scale-report": {
            "scales": {
                "1e4": {"construction_seconds": 0.625, "quiescent_rounds_per_sec": 1500.0},
                "1e5": {"sharded_events_per_sec": 3000.0},
            }
        },
        "--stream-report": {
            "scales": {"1e3": {"events_per_sec": 15000.0}},
            "memory": {"flat": True},
        },
        "--gossip-report": {
            "gossip_detection_rounds_p99": 10.0,
            "within_bound": True,
            "gossip": {"rounds_per_sec": 9.0, "messages_sent": 500},
        },
    }


def _run_all(gate, tmp_path, reports, update=False, baseline=None):
    """main() on the floor-level pytest-benchmark report plus ``reports``."""
    report = tmp_path / "report.json"
    benchmarks = [{"name": name, "extra_info": info} for name, info in _at_the_floor().items()]
    report.write_text(json.dumps({"benchmarks": benchmarks}))
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline or {**BASELINE, **SIDE_BASELINE}))
    out = tmp_path / "gate.json"
    argv = [str(report), "--baseline", str(baseline_path), "--out", str(out),
            "--tolerance", str(TOLERANCE)]
    for option, payload in reports.items():
        path = tmp_path / (option.strip("-") + ".json")
        path.write_text(json.dumps(payload))
        argv += [option, str(path)]
    if update:
        argv.append("--update")
    code = gate.main(argv)
    if update:
        return code, json.loads(baseline_path.read_text())
    return code, json.loads(out.read_text())


#: Pass key of each side gate -> (option, path to its value, a value just
#: past its floor or ceiling).
SIDE_GATES = {
    "construction_pass": ("--scale-report", ("scales", "1e4", "construction_seconds"), 0.626),
    "quiescent_pass": ("--scale-report", ("scales", "1e4", "quiescent_rounds_per_sec"), 1499.5),
    "sharded_pass": ("--scale-report", ("scales", "1e5", "sharded_events_per_sec"), 2999.5),
    "stream_pass": ("--stream-report", ("scales", "1e3", "events_per_sec"), 14999.5),
    "gossip_pass": ("--gossip-report", ("gossip_detection_rounds_p99",), 10.5),
    "gossip_rounds_pass": ("--gossip-report", ("gossip", "rounds_per_sec"), 8.75),
}


def _set(report, path, value):
    for key in path[:-1]:
        report = report[key]
    report[path[-1]] = value


def test_side_gates_pass_at_their_floors_and_ceilings(gate, tmp_path, capsys):
    code, artifact = _run_all(gate, tmp_path, _side_reports())
    assert code == 0
    assert artifact["pass"]
    for key in SIDE_GATES:
        assert artifact[key], key
    assert artifact["ceiling_construction_seconds_1e4"] == 0.625
    assert artifact["floor_quiescent_rounds_per_sec_1e4"] == 1500.0
    assert artifact["floor_sharded_events_per_sec_1e5"] == 3000.0
    assert artifact["floor_stream_events_per_sec_1e3"] == 15000.0
    assert artifact["ceiling_gossip_detection_rounds_1e3"] == 10.0
    assert artifact["floor_gossip_rounds_per_sec_1e3"] == 9.0
    out = capsys.readouterr().out
    assert "REGRESSION" not in out and "FAIL" not in out
    assert out.count("-> ok") == 11


@pytest.mark.parametrize("key", sorted(SIDE_GATES))
def test_side_gate_fails_just_past_its_limit(gate, tmp_path, capsys, key):
    option, path, value = SIDE_GATES[key]
    reports = _side_reports()
    _set(reports[option], path, value)
    code, artifact = _run_all(gate, tmp_path, reports)
    assert code == 1
    assert not artifact["pass"] and not artifact[key]
    assert sum(artifact[other] for other in SIDE_GATES) == len(SIDE_GATES) - 1
    assert capsys.readouterr().out.count("-> REGRESSION") == 1


@pytest.mark.parametrize(
    "option, path, value, key",
    [
        ("--stream-report", ("memory", "flat"), False, "stream_pass"),
        ("--gossip-report", ("within_bound",), False, "gossip_pass"),
        ("--gossip-report", ("gossip", "messages_sent"), 0, "gossip_rounds_pass"),
    ],
)
def test_side_gate_fails_on_its_check(gate, tmp_path, capsys, option, path, value, key):
    reports = _side_reports()
    _set(reports[option], path, value)
    code, artifact = _run_all(gate, tmp_path, reports)
    assert code == 1
    assert not artifact["pass"] and not artifact[key]
    assert sum(artifact[other] for other in SIDE_GATES) == len(SIDE_GATES) - 1
    assert capsys.readouterr().out.count("-> REGRESSION") == 1


@pytest.mark.parametrize(
    "option, path, command",
    [
        ("--scale-report", ("scales", "1e4", "construction_seconds"), "bench_scale.py"),
        ("--scale-report", ("scales", "1e4", "quiescent_rounds_per_sec"), "bench_scale.py"),
        ("--scale-report", ("scales", "1e5", "sharded_events_per_sec"), "bench_scale.py"),
        ("--stream-report", ("scales", "1e3", "events_per_sec"), "bench_stream.py"),
        ("--stream-report", ("memory",), "bench_stream.py"),
        ("--gossip-report", ("gossip_detection_rounds_p99",), "bench_gossip.py"),
        ("--gossip-report", ("within_bound",), "bench_gossip.py"),
        ("--gossip-report", ("gossip", "rounds_per_sec"), "bench_gossip.py"),
        ("--gossip-report", ("gossip", "messages_sent"), "bench_gossip.py"),
    ],
)
def test_a_report_without_a_gated_value_names_it(gate, tmp_path, option, path, command):
    reports = _side_reports()
    section = reports[option]
    for key in path[:-1]:
        section = section[key]
    del section[path[-1]]
    with pytest.raises(SystemExit) as exc:
        _run_all(gate, tmp_path, reports)
    message = str(exc.value)
    assert path[-1] in message and command in message


def test_a_report_without_a_gated_benchmark_names_it(gate, tmp_path):
    extra_info = _at_the_floor()
    del extra_info["bench_lossy_crash_jobs_per_sec"]
    with pytest.raises(SystemExit) as exc:
        _run(gate, tmp_path, extra_info)
    message = str(exc.value)
    assert "bench_lossy_crash_jobs_per_sec" in message and "bench_scenarios.py" in message


def test_update_rewrites_exactly_the_gated_keys(gate, tmp_path):
    previous = {
        "benchmark": "bench_online_driver_events_per_sec",
        **BASELINE,
        **SIDE_BASELINE,
        "note": "calibration notes",
        "some_unknown_key": [1, 2],
    }
    code, refreshed = _run_all(gate, tmp_path, _side_reports(), update=True, baseline=previous)
    assert code == 0
    measured = {
        "events_per_sec": 750.0,
        "ring_monitoring_jobs_per_sec": 150.0,
        "lossy_crash_jobs_per_sec": 75.0,
        "sharded_crash_jobs_per_sec": 60.0,
        "escalation_crash_jobs_per_sec": 30.0,
        "construction_seconds_1e4": 0.625,
        "quiescent_rounds_per_sec_1e4": 1500.0,
        "sharded_events_per_sec_1e5": 3000.0,
        "stream_events_per_sec_1e3": 15000.0,
        "gossip_detection_rounds_1e3": 10.0,
        "gossip_rounds_per_sec_1e3": 9.0,
    }
    assert refreshed == {**previous, **measured}
    assert list(refreshed) == list(previous)


def test_every_baseline_number_has_one_gate(gate):
    """A floor with no gate, or a gate with no floor, fails here."""
    baseline = json.loads((BENCHMARKS / "bench_baseline.json").read_text())
    numbers = {
        key for key, value in baseline.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    keys = [row.key for row in gate.GATES]
    assert len(keys) == len(set(keys))
    assert set(keys) == numbers
