"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.core.demand import DemandMap
from repro.io.serialize import demand_to_json, save_json


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bounds_requires_a_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bounds"])

    def test_scenario_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bounds", "--scenario", "nonsense"])

    def test_online_defaults(self):
        args = build_parser().parse_args(["online", "--scenario", "point"])
        assert args.seed == 0
        # No explicit ordering: paper scenarios fall back to "random",
        # scenario families to their preferred ordering.
        assert args.order is None
        assert args.capacity is None

    #: The monitoring and failure flag group every protocol subcommand shares.
    SHARED_FLAGS = (
        "--monitoring",
        "--gossip-fanout",
        "--suspicion-threshold",
        "--quorum",
        "--byzantine-watcher",
        "--crash",
        "--suppress",
        "--recovery-rounds",
    )

    @staticmethod
    def _flag_group(command):
        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        options = subparsers.choices[command]._option_string_actions
        return {
            flag: (
                tuple(options[flag].option_strings),
                options[flag].default,
                options[flag].nargs,
                options[flag].const,
                options[flag].choices,
                options[flag].type,
                options[flag].metavar,
            )
            for flag in TestParser.SHARED_FLAGS
        }

    def test_run_and_serve_share_the_monitoring_and_failure_flags(self):
        assert self._flag_group("run") == self._flag_group("serve")

    def test_bare_monitoring_means_ring_on_run_and_serve(self):
        parser = build_parser()
        run = parser.parse_args(
            ["run", "--scenario", "point", "--solver", "online", "--monitoring"]
        )
        serve = parser.parse_args(["serve", "--scenario", "point", "--monitoring"])
        assert run.monitoring == serve.monitoring == "ring"

    def test_serve_has_no_shards_option(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--scenario", "point", "--shards", "2"])


class TestCommands:
    def test_scenarios_lists_all(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        for name in ("square", "line", "point", "uniform", "zipf", "clustered"):
            assert name in output

    def test_bounds_on_builtin_scenario(self, capsys):
        assert main(["bounds", "--scenario", "point"]) == 0
        output = capsys.readouterr().out
        assert "omega*" in output
        assert "upper bound" in output

    def test_bounds_on_json_demand(self, tmp_path, capsys):
        demand = DemandMap({(0, 0): 6.0, (2, 1): 3.0})
        path = tmp_path / "demand.json"
        save_json(demand_to_json(demand), path)
        assert main(["bounds", "--demand-json", str(path)]) == 0
        output = capsys.readouterr().out
        assert "support size" in output

    def test_online_on_json_demand(self, tmp_path, capsys):
        demand = DemandMap({(0, 0): 8.0})
        path = tmp_path / "demand.json"
        save_json(demand_to_json(demand), path)
        code = main(["online", "--demand-json", str(path), "--order", "sequential"])
        assert code == 0
        output = capsys.readouterr().out
        assert "jobs served / total" in output
        assert "8/8" in output

    def test_online_exit_code_reflects_infeasibility(self, tmp_path, capsys):
        demand = DemandMap({(0, 0): 50.0})
        path = tmp_path / "demand.json"
        save_json(demand_to_json(demand), path)
        code = main(
            [
                "online",
                "--demand-json",
                str(path),
                "--omega",
                "3.0",
                "--capacity",
                "4.0",
            ]
        )
        assert code == 1

    def test_online_with_custom_capacity_and_omega(self, tmp_path, capsys):
        demand = DemandMap({(0, 0): 12.0})
        path = tmp_path / "demand.json"
        save_json(demand_to_json(demand), path)
        code = main(
            [
                "online",
                "--demand-json",
                str(path),
                "--omega",
                "3.0",
                "--capacity",
                "8.0",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "replacements" in output


class TestFamilyCommands:
    def test_families_lists_the_registry(self, capsys):
        from repro.workloads.library import available_families

        assert main(["families"]) == 0
        output = capsys.readouterr().out
        for name in available_families():
            assert name in output

    def test_run_on_a_family_scenario(self, capsys):
        code = main(["run", "--scenario", "scale-up", "--solver", "offline"])
        assert code == 0
        assert "scale-up" in capsys.readouterr().out

    def test_run_online_broken_inherits_family_failures(self, capsys):
        # No --crash/--suppress flags: the partition family's own failure
        # plan must be attached instead of erroring out.
        code = main(
            [
                "run",
                "--scenario",
                "partition",
                "--solver",
                "online-broken",
                "--recovery-rounds",
                "2",
            ]
        )
        assert code in (0, 1)  # feasibility depends on the adversary
        output = capsys.readouterr().out
        assert "partition_windows" in output

    def test_sweep_over_families(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        code = main(
            [
                "sweep",
                "--scenarios",
                "none",
                "--families",
                "hotspot,scale-up",
                "--preset",
                "small",
                "--solvers",
                "offline,greedy",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        output = capsys.readouterr().out
        assert "hotspot" in output and "scale-up" in output

    def test_sweep_with_nothing_selected_errors(self, capsys):
        code = main(
            ["sweep", "--scenarios", "none", "--families", "none", "--solvers", "offline"]
        )
        assert code == 2

    def test_bounds_on_a_family_scenario(self, capsys):
        assert main(["bounds", "--scenario", "hotspot"]) == 0
        assert "omega*" in capsys.readouterr().out


class TestTransportFlags:
    def test_run_with_transport(self, capsys):
        code = main(
            [
                "run",
                "--scenario",
                "point",
                "--solver",
                "online",
                "--transport",
                "lossy",
                "--transport-param",
                "loss=0.05",
                "--transport-param",
                "seed=3",
            ]
        )
        assert code in (0, 1)
        output = capsys.readouterr().out
        assert "lossy" in output
        assert "messages_dropped" in output

    def test_transport_param_without_transport_errors(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "--scenario",
                    "point",
                    "--solver",
                    "online",
                    "--transport-param",
                    "loss=0.1",
                ]
            )

    def test_transport_rejected_for_non_messaging_solver(self, capsys):
        code = main(
            [
                "run",
                "--scenario",
                "point",
                "--solver",
                "offline",
                "--transport",
                "latency",
            ]
        )
        assert code == 2
        assert "--transport" in capsys.readouterr().err

    def test_sweep_attaches_transport_to_online_solvers_only(self, tmp_path):
        import json

        out = tmp_path / "results.json"
        code = main(
            [
                "sweep",
                "--scenarios",
                "none",
                "--families",
                "hotspot",
                "--preset",
                "small",
                "--solvers",
                "offline,online",
                "--transport",
                "latency",
                "--transport-param",
                "jitter=0.05",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        by_solver = {r["solver"]: r for r in payload["results"]}
        assert by_solver["online"]["extras"]["transport"] == "latency"
        assert "transport" not in by_solver["offline"].get("extras", {})

    def test_sweep_transport_without_messaging_solver_errors(self, capsys):
        code = main(
            [
                "sweep",
                "--scenarios",
                "none",
                "--families",
                "hotspot",
                "--solvers",
                "offline",
                "--transport",
                "lossy",
            ]
        )
        assert code == 2
