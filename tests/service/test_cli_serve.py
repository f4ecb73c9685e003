"""CLI coverage for ``repro serve`` and ``repro run --metrics-out``."""

from __future__ import annotations

import json

import pytest

from repro.api.service import ServiceConfig
from repro.cli import main
from repro.core.demand import DemandMap
from repro.io.serialize import demand_to_json, save_json


@pytest.fixture
def demand_path(tmp_path):
    demand = DemandMap({(0, 0): 4.0, (2, 1): 3.0, (1, 4): 2.0})
    path = tmp_path / "demand.json"
    save_json(demand_to_json(demand), path)
    return str(path)


@pytest.fixture
def grid_path(tmp_path):
    """A 4x4 grid that one omega=4 cube covers, so heartbeats have peers."""
    demand = DemandMap({(x, y): 2.0 for x in range(4) for y in range(4)})
    path = tmp_path / "grid.json"
    save_json(demand_to_json(demand), path)
    return str(path)


class TestServe:
    def test_serve_writes_every_output(self, tmp_path, demand_path, capsys):
        out = {name: str(tmp_path / name) for name in
               ("result.json", "state.json", "events.jsonl", "metrics.jsonl", "snap.json")}
        code = main(
            [
                "serve",
                "--demand-json", demand_path,
                "--jobs", "16",
                "--window", "4",
                "--checkpoint", out["snap.json"],
                "--checkpoint-every", "2",
                "--state-out", out["state.json"],
                "--log-out", out["events.jsonl"],
                "--metrics-out", out["metrics.jsonl"],
                "--json", out["result.json"],
            ]
        )
        assert code == 0
        assert "Service run" in capsys.readouterr().out
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["type"] == "service_result"
        assert result["jobs_served"] == 16
        assert result["windows"] == 4
        assert result["checkpoints_written"] >= 1
        state = json.loads((tmp_path / "state.json").read_text())
        assert state["finished"] is True
        assert (tmp_path / "events.jsonl").read_text().strip()
        assert (tmp_path / "metrics.jsonl").read_text().strip()
        snap = json.loads((tmp_path / "snap.json").read_text())
        assert snap["schema"] == "repro.service/checkpoint"

    def test_serve_stop_and_resume_reproduce_the_full_run(self, tmp_path, demand_path):
        base = [
            "serve",
            "--demand-json", demand_path,
            "--jobs", "20",
            "--window", "4",
        ]
        full_out = str(tmp_path / "full.json")
        assert main(base + ["--json", full_out]) == 0
        snapshot = str(tmp_path / "snap.json")
        partial_out = str(tmp_path / "partial.json")
        assert main(
            base
            + [
                "--checkpoint", snapshot,
                "--checkpoint-every", "1",
                "--stop-after-checkpoints", "2",
                "--json", partial_out,
            ]
        ) == 0
        resumed_out = str(tmp_path / "resumed.json")
        assert main(
            [
                "serve",
                "--resume", snapshot,
                "--jobs", "20",
                "--json", resumed_out,
            ]
        ) == 0
        full = json.loads((tmp_path / "full.json").read_text())
        partial = json.loads((tmp_path / "partial.json").read_text())
        resumed = json.loads((tmp_path / "resumed.json").read_text())
        assert partial["interrupted"] is True
        assert resumed["resumed"] is True
        assert resumed["result_hash"] == full["result_hash"]
        assert resumed["fleet_digest"] == full["fleet_digest"]

    def test_keep_checkpoints_rotates_numbered_slots(self, tmp_path, demand_path):
        snap = tmp_path / "snap.json"
        code = main(
            [
                "serve",
                "--demand-json", demand_path,
                "--jobs", "16",
                "--window", "4",
                "--checkpoint", str(snap),
                "--checkpoint-every", "1",
                "--keep-checkpoints", "2",
            ]
        )
        assert code == 0
        slots = sorted(tmp_path.glob("snap.w*.json"))
        assert len(slots) == 2
        assert json.loads(snap.read_text()) == json.loads(slots[-1].read_text())

    def test_keep_checkpoints_needs_a_checkpoint_path(self, demand_path, capsys):
        code = main(
            [
                "serve",
                "--demand-json", demand_path,
                "--jobs", "8",
                "--keep-checkpoints", "2",
            ]
        )
        assert code == 2
        assert "--keep-checkpoints needs --checkpoint" in capsys.readouterr().err

    def test_serve_needs_a_horizon(self, demand_path, capsys):
        assert main(["serve", "--demand-json", demand_path]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_checkpoint_every_needs_a_checkpoint_path(self, demand_path, capsys):
        code = main(
            ["serve", "--demand-json", demand_path, "--jobs", "4",
             "--checkpoint-every", "1"]
        )
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_checkpoint_needs_a_cadence(self, tmp_path, demand_path, capsys):
        snap = tmp_path / "snap.json"
        code = main(
            ["serve", "--demand-json", demand_path, "--jobs", "8", "--window", "4",
             "--checkpoint", str(snap)]
        )
        assert code == 2
        assert "--checkpoint needs --checkpoint-every W" in capsys.readouterr().err
        assert not snap.exists()

    def test_resume_rejects_a_new_cadence(self, tmp_path, demand_path, capsys):
        snap = tmp_path / "snap.json"
        assert main(
            ["serve", "--demand-json", demand_path, "--jobs", "12", "--window", "4",
             "--checkpoint", str(snap), "--checkpoint-every", "1",
             "--stop-after-checkpoints", "1"]
        ) == 0
        capsys.readouterr()
        again = tmp_path / "again.json"
        code = main(
            ["serve", "--resume", str(snap), "--jobs", "12",
             "--checkpoint", str(again), "--checkpoint-every", "2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--checkpoint-every" in err and "the snapshot's cadence wins" in err
        assert "every 1 windows" in err
        assert not again.exists()

    def test_stop_after_checkpoints_needs_a_checkpoint_path(self, demand_path, capsys):
        code = main(
            ["serve", "--demand-json", demand_path, "--jobs", "4",
             "--stop-after-checkpoints", "1"]
        )
        assert code == 2
        assert "--stop-after-checkpoints needs --checkpoint" in capsys.readouterr().err


class TestMissThresholdValidation:
    @pytest.mark.parametrize("miss", [1, 0, -1])
    def test_service_config_rejects_it(self, miss):
        demand = DemandMap({(0, 0): 4.0, (2, 1): 3.0})
        with pytest.raises(ValueError, match="heartbeat_miss_threshold"):
            ServiceConfig.from_demand(
                demand, fleet={"monitoring": True, "heartbeat_miss_threshold": miss}
            )

    def test_resume_from_a_checkpoint_carrying_it_exits_2(
        self, tmp_path, demand_path, capsys
    ):
        snapshot = tmp_path / "snap.json"
        assert main(
            [
                "serve",
                "--demand-json", demand_path,
                "--jobs", "12",
                "--window", "4",
                "--checkpoint", str(snapshot),
                "--checkpoint-every", "1",
                "--stop-after-checkpoints", "1",
            ]
        ) == 0
        payload = json.loads(snapshot.read_text())
        payload["config"]["fleet"] = {"monitoring": True, "heartbeat_miss_threshold": 1}
        snapshot.write_text(json.dumps(payload))
        capsys.readouterr()
        resumed_out = tmp_path / "resumed.json"
        code = main(
            ["serve", "--resume", str(snapshot), "--jobs", "12", "--json", str(resumed_out)]
        )
        assert code == 2
        assert "heartbeat_miss_threshold" in capsys.readouterr().err
        assert not resumed_out.exists()


class TestRunMetricsOut:
    def test_matches_the_plain_run(self, tmp_path, demand_path):
        plain_out = str(tmp_path / "plain.json")
        stream_out = str(tmp_path / "stream.json")
        base = ["run", "--demand-json", demand_path, "--solver", "online",
                "--order", "sequential"]
        assert main(base + ["--json", plain_out]) == 0
        assert main(
            base
            + [
                "--metrics-out", str(tmp_path / "metrics.jsonl"),
                "--window", "3",
                "--json", stream_out,
            ]
        ) == 0
        plain = json.loads((tmp_path / "plain.json").read_text())
        stream = json.loads((tmp_path / "stream.json").read_text())
        assert stream["jobs_served"] == plain["jobs_served"]
        assert stream["max_vehicle_energy"] == plain["max_vehicle_energy"]
        assert stream["messages"] == plain["extras"]["messages"]
        assert stream["events_processed"] == plain["extras"]["events_processed"]
        assert (tmp_path / "metrics.jsonl").read_text().strip()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--solver", "online", "--monitoring", "ring"],
            ["--solver", "online", "--monitoring", "gossip", "--quorum", "1"],
            ["--solver", "online-broken", "--monitoring", "gossip",
             "--crash", "0,0", "--byzantine-watcher", "1,1",
             "--recovery-rounds", "6"],
        ],
        ids=["ring", "gossip", "gossip-byzantine"],
    )
    def test_monitoring_flags_reach_the_stream(self, tmp_path, grid_path, flags):
        base = ["run", "--demand-json", grid_path, "--order", "alternating",
                "--omega", "4", "--capacity", "64", *flags]
        plain_code = main(base + ["--json", str(tmp_path / "plain.json")])
        stream_code = main(
            base
            + [
                "--metrics-out", str(tmp_path / "metrics.jsonl"),
                "--json", str(tmp_path / "stream.json"),
            ]
        )
        assert stream_code == plain_code
        plain = json.loads((tmp_path / "plain.json").read_text())
        stream = json.loads((tmp_path / "stream.json").read_text())
        extras = plain["extras"]
        assert stream["messages"] == extras["messages"] > 0
        assert stream["heartbeat_rounds"] == extras["heartbeat_rounds"] > 0
        for name in ("replacements", "searches", "events_processed"):
            assert stream[name] == extras[name], name
        assert stream["jobs_served"] == plain["jobs_served"]
        assert stream["max_vehicle_energy"] == plain["max_vehicle_energy"]
        assert stream["monitoring_mode"] == flags[flags.index("--monitoring") + 1]
        if "gossip" in flags:
            for name in ("suspicions", "attestations", "refused_attestations"):
                assert stream[name] == extras[name], name

    def test_rejects_a_non_events_engine(self, tmp_path, demand_path, capsys):
        code = main(
            ["run", "--demand-json", demand_path, "--solver", "online",
             "--param", "engine=rounds",
             "--metrics-out", str(tmp_path / "metrics.jsonl")]
        )
        assert code == 2
        assert "events" in capsys.readouterr().err

    def test_rejected_for_non_messaging_solvers(self, demand_path, capsys):
        code = main(
            ["run", "--demand-json", demand_path, "--solver", "greedy",
             "--metrics-out", "unused.jsonl"]
        )
        assert code == 2
        assert "online" in capsys.readouterr().err
