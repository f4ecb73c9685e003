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

    #: Every option string of every subcommand; a new option is a deliberate
    #: interface change and must show up here.
    WORKLOAD = {"--scenario", "--demand-json"}
    RUN = {"--seed", "--order", "--capacity", "--omega"}
    ENGINE = {"--param", "--verbose", "--cache-dir"}
    FAILURES = {"--crash", "--suppress", "--recovery-rounds"}
    MONITORING = {
        "--monitoring",
        "--gossip-fanout",
        "--suspicion-threshold",
        "--quorum",
        "--byzantine-watcher",
    }
    TRANSPORT = {"--transport", "--transport-param", "--escalation"}
    OPTIONS = {
        "scenarios": set(),
        "families": set(),
        "solvers": set(),
        "run": WORKLOAD | RUN | ENGINE | FAILURES | MONITORING | TRANSPORT
        | {
            "--solver",
            "--json",
            "--profile",
            "--metrics-out",
            "--window",
            "--shards",
            "--shard-workers",
        },
        "sweep": TRANSPORT
        | {
            "--scenarios",
            "--families",
            "--preset",
            "--solvers",
            "--seeds",
            "--order",
            "--capacity",
            "--workers",
            "--verbose",
            "--processes",
            "--cache-dir",
            "--out",
        },
        "compare": WORKLOAD | RUN | ENGINE | FAILURES | TRANSPORT
        | {"--solvers", "--workers"},
        "bounds": WORKLOAD,
        "online": WORKLOAD | RUN,
        "serve": WORKLOAD | FAILURES | MONITORING | TRANSPORT
        | {
            "--jobs",
            "--duration",
            "--seed",
            "--omega",
            "--capacity",
            "--hand-back",
            "--window",
            "--lookahead",
            "--checkpoint-every",
            "--checkpoint",
            "--keep-checkpoints",
            "--resume",
            "--state-out",
            "--log-out",
            "--metrics-out",
            "--stop-after-checkpoints",
            "--json",
        },
    }

    def test_option_strings_of_every_subcommand(self):
        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        options = {
            name: set(sub._option_string_actions) - {"-h", "--help"}
            for name, sub in subparsers.choices.items()
        }
        assert options == self.OPTIONS


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


class TestPinnedOutputs:
    """Byte-level pins of what the flags produce.

    ``serve`` checkpoints embed their :class:`ServiceConfig`, so its hash
    must not move; ``online`` and ``bounds`` are kept for scripts that read
    their tables.
    """

    SERVE_CONFIG_HASHES = {
        "default": (
            [],
            "999cf914b3b758f5fb2c69dc930fdc2164f971ed05c8f8cc7f11257b700d1583",
        ),
        "crash-implies-ring": (
            ["--crash", "0,0"],
            "cf6ad94e6748dbf54ebfabf57d642d57f22e2b0d1a063366652c6dbf69b35fd2",
        ),
        "gossip": (
            ["--monitoring", "gossip", "--gossip-fanout", "3", "--quorum", "2"],
            "4c5191b8878f7ff37ad1363127e81bb45588460e8fc44e705c3f0beff72902b7",
        ),
        "escalation-hand-back": (
            ["--escalation", "--hand-back"],
            "14d5e3f35f52d164211e94eb9ae402754e2c8310a4f9c3a1cbf8343cc7c3fa3d",
        ),
        "lossy": (
            ["--transport", "lossy", "--transport-param", "loss=0.1"],
            "838221bf1ccc7462508f61a7c0d6381bf5c2f9a0ea5f1dc95eb8ad5f5f03f375",
        ),
    }

    @pytest.mark.parametrize("case", sorted(SERVE_CONFIG_HASHES))
    def test_serve_config_hash(self, case, monkeypatch):
        import repro.service

        class Captured(Exception):
            pass

        def capture(config, jobs, **outputs):
            raise Captured(config)

        monkeypatch.setattr(repro.service, "run_service", capture)
        flags, expected = self.SERVE_CONFIG_HASHES[case]
        with pytest.raises(Captured) as captured:
            main(["serve", "--scenario", "square", "--jobs", "8", *flags])
        assert captured.value.args[0].config_hash() == expected

    STDOUT_SHA256 = {
        "bounds point": "228f5584bacd5a0455c00afe7dac6aa8d230df3cf198e7d9dcf728460c2f3474",
        "bounds square": "825787c506b23bb310e5267d02c33e76992b0f17408a23b22cc9a525bb165bc3",
        "bounds hotspot": "2016e80d4a0c3732f434c3d9beed210406dc9434e47e43732bf5a03b8da628d3",
        "online point": "d5a39e0cba629a9e901786037c3a044dcce55bd1d640e74443837107b2d824d5",
        "online point --order sequential": (
            "d5a39e0cba629a9e901786037c3a044dcce55bd1d640e74443837107b2d824d5"
        ),
        "online square": "1bc42616b9705fe19e990614888ea93f585d20d4c7f44c4d08649d7ac9af3cc4",
        "online square --order sequential": (
            "ee5839d744d8457ad2219eef9df915c388a7668365495bbd4a56f9cd0a48dd09"
        ),
        "online square --order bursty --seed 3": (
            "b519bf519243bf8c12101428104e50e4296fb0caaa4641af0be9f76e9e56e23b"
        ),
        "online hotspot": "2894acb6bf4bc4cd9c24faca0b76e5fa077723a67301b3e2d6bc89934efd0634",
        "online hotspot --order sequential": (
            "38f5500624cf009ec4649fbf1e6943b167074d54aa01b2c45f63c96ed3f608ab"
        ),
        "online hotspot --order bursty --seed 3": (
            "a9f134606cb5519b7f05a47d294df5c8572c23b60b32bec5946d727ce1c1b358"
        ),
    }

    @pytest.mark.parametrize("command", sorted(STDOUT_SHA256))
    def test_detail_view_stdout(self, command, capsys):
        import hashlib

        name, scenario, *flags = command.split()
        assert main([name, "--scenario", scenario, *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.STDOUT_SHA256[command]

    def test_online_on_a_family_defaults_to_random_order(self, monkeypatch):
        # A family's preferred ordering (diurnal: sequential) applies to
        # run/compare/sweep, but `online` without --order stays random.
        import numpy as np

        import repro.cli
        from repro.workloads.arrivals import random_arrivals
        from repro.workloads.library import build_family_demand

        seen = []

        def capture(jobs, **kwargs):
            seen.append(jobs)
            raise SystemExit(0)

        monkeypatch.setattr(repro.cli, "run_online", capture)
        with pytest.raises(SystemExit):
            main(["online", "--scenario", "diurnal", "--seed", "4"])
        expected = random_arrivals(
            build_family_demand("diurnal", seed=4), np.random.default_rng(4)
        )
        assert list(seen[0]) == list(expected)


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

    def test_lossy_ring_run_shards_across_workers(self, tmp_path):
        # Every spec-built lossy channel draws edge-keyed losses, so a ring
        # run without escalation fans out to one worker per shard.
        extras = {}
        for shards in (1, 2):
            out = tmp_path / f"shards{shards}.json"
            code = main(
                [
                    "run", "--scenario", "scale-up", "--param", "side=6",
                    "--omega", "3", "--solver", "online", "--monitoring",
                    "--transport", "lossy", "--transport-param", "loss=0.05",
                    "--shards", str(shards), "--json", str(out),
                ]
            )
            assert code == 0
            extras[shards] = json.loads(out.read_text())["extras"]
        assert extras[2].pop("shard_mode") == "parallel-lockstep"
        assert extras[2]["messages_dropped"] > 0
        assert extras[2] == extras[1]

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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--transport", "latency"],
            ["--crash", "0,0", "--recovery-rounds", "3"],
        ],
        ids=["transport", "failures"],
    )
    def test_transport_rejected_for_non_messaging_solver(self, flags, capsys):
        code = main(["run", "--scenario", "point", "--solver", "offline", *flags])
        assert code == 2
        err = capsys.readouterr().err
        for flag in flags:
            if flag.startswith("--"):
                assert flag in err

    def test_metrics_out_rejects_shards(self, tmp_path, capsys):
        code = main(
            [
                "run", "--scenario", "point", "--solver", "online",
                "--metrics-out", str(tmp_path / "m.jsonl"), "--shards", "2",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--metrics-out" in err and "--shards" in err
        assert not (tmp_path / "m.jsonl").exists()

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

    @pytest.mark.parametrize(
        "flags", [["--transport", "lossy"], ["--escalation"], ["--crash", "0,0"]],
        ids=["transport", "escalation", "crash"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--scenarios", "none", "--families", "hotspot", "--solvers",
             "offline"],
            ["compare", "--scenario", "point", "--solvers", "offline,greedy"],
        ],
        ids=["sweep", "compare"],
    )
    def test_sweep_transport_without_messaging_solver_errors(
        self, command, flags, capsys
    ):
        # sweep has no --crash at all; argparse rejects it, also with exit 2.
        try:
            code = main(command + flags)
        except SystemExit as error:
            code = error.code
        assert code == 2
        assert flags[0] in capsys.readouterr().err
