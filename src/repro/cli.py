"""Command-line interface for the CMVRP reproduction.

Every subcommand is a thin layer over :mod:`repro.api`: configs are built
from the flags, executed by the :class:`~repro.api.engine.ExperimentEngine`,
and rendered with :mod:`repro.analysis.report`.

``python -m repro scenarios``
    List the built-in paper scenarios with their parameters.

``python -m repro solvers``
    List the registered solvers (the names ``run``/``sweep``/``compare``
    accept) with one-line descriptions.

``python -m repro run --scenario square --solver online --seed 7``
    Execute one solver on one workload and print the unified result
    record.  ``--param key=value`` passes solver-specific parameters
    (e.g. ``--param heuristic=sweep`` for ``cvrp``), ``--crash x,y`` /
    ``--suppress x,y`` inject Section 3.2.5 failures for the
    ``online-broken`` solver, ``--json path`` archives the
    :class:`~repro.api.result.RunResult`, and the exit code reflects
    feasibility.  Protocol flags (transport, escalation, monitoring,
    failures, shards) apply only to the solvers that take them; one that
    no selected solver takes is an error (exit 2), here and in
    ``compare``/``sweep``.

``python -m repro sweep --scenarios square,line --solvers offline,greedy
--seeds 0,1,2 --workers 4 --out results.json``
    Fan the scenario x solver x seed matrix out over the engine's worker
    pool.  Results are deterministic -- the artifact written by ``--out``
    is byte-identical regardless of ``--workers`` -- and ``--cache-dir``
    makes repeated sweeps incremental.

``python -m repro compare --scenario square --solvers offline,online,greedy``
    Run several solvers on the same workload and print one comparison
    table, the omega*-anchored sandwich the thesis is about.  Exit code 1
    if any run is infeasible.

``python -m repro bounds --scenario square`` and ``python -m repro online
--scenario point --seed 7``
    The original detail views (Theorem 1.4.1 quantities, Theorem 1.4.2
    quantities), kept for scripts that rely on them.  They call
    :func:`~repro.core.offline.offline_bounds` and
    :func:`~repro.core.online.run_online` directly, not through the engine.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import Table
from repro.api import (
    CapacitySpec,
    ConfigError,
    ExperimentEngine,
    FailureSpec,
    RunConfig,
    RunResult,
    ScenarioSpec,
    TransportSpec,
    UnknownSolverError,
    available_solvers,
    available_transports,
    config_matrix,
    solver_descriptions,
)
from repro.api.solvers import GOSSIP_KNOBS, monitoring_settings
from repro.core.offline import offline_bounds
from repro.core.online import run_online
from repro.io.serialize import demand_from_json, load_json, save_json
from repro.workloads.library import (
    available_families,
    family_broken_failures,
    family_descriptions,
    family_matrix,
    get_family,
)
from repro.workloads.scenarios import paper_scenarios

__all__ = ["main", "build_parser"]

ORDER_CHOICES = ["random", "sequential", "alternating", "bursty"]


def _scenario_names() -> List[str]:
    return [s.name for s in paper_scenarios()]


def _workload_names() -> List[str]:
    """Every name ``--scenario`` accepts: paper scenarios plus families."""
    return _scenario_names() + available_families()


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Capacitated Multivehicle Routing Problem (CMVRP) reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("scenarios", help="list the built-in paper scenarios")
    subparsers.add_parser("families", help="list the registered scenario families")
    subparsers.add_parser("solvers", help="list the registered solvers")

    run = subparsers.add_parser("run", help="execute one solver on one workload")
    _add_workload_arguments(run)
    _add_run_arguments(run)
    run.add_argument(
        "--solver",
        required=True,
        choices=available_solvers(),
        help="registry name of the solver",
    )
    run.add_argument("--json", dest="json_out", help="write the RunResult to this path")
    run.add_argument("--cache-dir", help="result cache directory (keyed on config hash)")
    run.add_argument(
        "--profile",
        action="store_true",
        help="profile the solve under cProfile and print the top-20 "
        "cumulative entries to stderr (perf work starts from data; "
        "composes with --metrics-out streaming runs)",
    )
    run.add_argument(
        "--metrics-out",
        help="write windowed metrics as JSON lines to this path; routes the "
        "online solvers through the streaming service harness "
        "(byte-identical to the batch run)",
    )
    run.add_argument(
        "--window",
        type=_positive_int,
        default=1000,
        help="jobs per metrics window (with --metrics-out; default 1000)",
    )
    run.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="partition the run into N cube-aligned shards (online solvers "
        "only; results are byte-identical to --shards 1)",
    )
    run.add_argument(
        "--shard-workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="cap the worker-process pool for sharded runs (default: one "
        "process per shard); results are identical at any worker count",
    )
    _add_monitoring_arguments(run)

    sweep = subparsers.add_parser(
        "sweep", help="run a scenario x solver x seed matrix through the engine"
    )
    sweep.add_argument(
        "--scenarios",
        default="all",
        help='comma-separated paper-scenario names, "all" (default), or "none"',
    )
    sweep.add_argument(
        "--families",
        default="none",
        help='comma-separated scenario-family names, "all", or "none" (default)',
    )
    sweep.add_argument(
        "--preset",
        choices=["default", "small"],
        default="default",
        help="family parameter preset (families only)",
    )
    sweep.add_argument(
        "--solvers",
        required=True,
        help="comma-separated solver names",
    )
    sweep.add_argument(
        "--seeds", default="0", help='comma-separated seeds (default "0")'
    )
    sweep.add_argument(
        "--order",
        choices=ORDER_CHOICES,
        default=None,
        help="arrival ordering of the unit jobs (default: random; families "
        "use their preferred ordering)",
    )
    sweep.add_argument(
        "--capacity",
        default="theorem",
        help='provisioned battery: "theorem", "unbounded", or a number',
    )
    sweep.add_argument("--workers", type=_positive_int, default=1, help="worker pool size")
    sweep.add_argument(
        "--verbose",
        action="store_true",
        help="print per-run progress lines to stderr",
    )
    sweep.add_argument(
        "--processes",
        action="store_true",
        help="use a process pool instead of threads",
    )
    sweep.add_argument("--cache-dir", help="result cache directory (keyed on config hash)")
    sweep.add_argument("--out", help="write the deterministic results JSON to this path")
    _add_transport_arguments(sweep)

    compare = subparsers.add_parser(
        "compare", help="run several solvers on one workload and print one table"
    )
    _add_workload_arguments(compare)
    _add_run_arguments(compare)
    compare.add_argument(
        "--solvers",
        required=True,
        help="comma-separated solver names",
    )
    compare.add_argument("--workers", type=_positive_int, default=1, help="worker pool size")
    compare.add_argument("--cache-dir", help="result cache directory (keyed on config hash)")

    bounds = subparsers.add_parser(
        "bounds", help="compute the offline characterization for a workload"
    )
    _add_workload_arguments(bounds)

    online = subparsers.add_parser(
        "online", help="run the decentralized online strategy on a workload"
    )
    _add_workload_arguments(online)
    _add_run_arguments(online, engine=False)

    serve = subparsers.add_parser(
        "serve",
        help="run the fleet as a long-lived streaming service (constant "
        "memory, windowed metrics, checkpoint/resume, live state)",
    )
    source = serve.add_mutually_exclusive_group(required=False)
    source.add_argument(
        "--scenario",
        choices=_workload_names(),
        help="a built-in paper scenario or a scenario family",
    )
    source.add_argument(
        "--demand-json",
        help="path to a demand map serialized with repro.io.serialize",
    )
    serve.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="total jobs to stream (omit for an endless stream bounded "
        "by --duration)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="stop dispatching after this simulation time",
    )
    serve.add_argument("--seed", type=int, default=0, help="run-RNG seed")
    serve.add_argument(
        "--omega", type=float, default=None, help="cube parameter (default: omega_c)"
    )
    serve.add_argument(
        "--capacity",
        default=None,
        help='per-vehicle battery: a number, "unbounded", or the default '
        "Lemma 3.3.1 theorem capacity",
    )
    _add_failure_arguments(serve)
    _add_monitoring_arguments(serve)
    serve.add_argument(
        "--hand-back",
        action="store_true",
        help="revived vehicles reclaim pairs their adopters hold "
        "(proactive load shedding)",
    )
    serve.add_argument(
        "--window",
        type=_positive_int,
        default=1000,
        help="jobs per metrics window (default 1000)",
    )
    serve.add_argument(
        "--lookahead",
        type=_positive_int,
        default=64,
        help="arrivals scheduled ahead of the clock (default 64)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=None,
        metavar="W",
        help="write a checkpoint every W metrics windows (needs --checkpoint)",
    )
    serve.add_argument(
        "--checkpoint", help="checkpoint path (atomically replaced each write)"
    )
    serve.add_argument(
        "--keep-checkpoints",
        type=_positive_int,
        default=None,
        metavar="K",
        help="rotate checkpoints: keep the last K snapshots as numbered "
        "siblings of --checkpoint instead of replacing a single file",
    )
    serve.add_argument(
        "--resume",
        metavar="SNAPSHOT",
        help="continue from a checkpoint (workload flags come from the "
        "snapshot's embedded config)",
    )
    serve.add_argument(
        "--state-out", help="live-state JSON path (atomically rewritten every window)"
    )
    serve.add_argument("--log-out", help="append-only JSONL milestone log path")
    serve.add_argument(
        "--metrics-out", help="append each metrics window as one JSON line here"
    )
    serve.add_argument(
        "--stop-after-checkpoints",
        type=_positive_int,
        default=None,
        metavar="N",
        help="stop right after the Nth checkpoint (deterministic kill, for "
        "resume demonstrations)",
    )
    serve.add_argument(
        "--json", dest="json_out", help="write the ServiceResult to this path"
    )
    _add_transport_arguments(serve)
    return parser


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--scenario",
        choices=_workload_names(),
        help="a built-in paper scenario or a scenario family",
    )
    source.add_argument(
        "--demand-json",
        help="path to a demand map serialized with repro.io.serialize",
    )


def _add_run_arguments(parser: argparse.ArgumentParser, *, engine: bool = True) -> None:
    parser.add_argument("--seed", type=int, default=0, help="arrival-order seed")
    parser.add_argument(
        "--order",
        choices=ORDER_CHOICES,
        default=None,
        help="arrival ordering of the unit jobs (default: random; families "
        "use their preferred ordering)",
    )
    parser.add_argument(
        "--capacity",
        default=None,
        help='per-vehicle battery: a number, "unbounded", or the default '
        "Lemma 3.3.1 theorem capacity",
    )
    parser.add_argument(
        "--omega", type=float, default=None, help="cube parameter (default: omega_c)"
    )
    if not engine:
        return
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="solver-specific parameter (repeatable); values parse as JSON "
        "when possible",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print per-run progress lines to stderr",
    )
    _add_failure_arguments(parser)
    _add_transport_arguments(parser)


def _add_failure_arguments(parser: argparse.ArgumentParser) -> None:
    """``--crash`` / ``--suppress`` / ``--recovery-rounds`` (run, compare, serve)."""
    parser.add_argument(
        "--crash",
        action="append",
        default=[],
        metavar="X,Y",
        help="home vertex of a vehicle broken from the start (repeatable; "
        "scenario 3; run and compare apply it to the online-broken solver)",
    )
    parser.add_argument(
        "--suppress",
        action="append",
        default=[],
        metavar="X,Y",
        help="home vertex of a vehicle that never initiates diffusing "
        "computations (repeatable; scenario 2; run and compare apply it to "
        "the online-broken solver)",
    )
    parser.add_argument(
        "--recovery-rounds",
        type=int,
        default=0,
        help="heartbeat rounds the monitoring loop may spend recovering a job",
    )


def _add_monitoring_arguments(parser: argparse.ArgumentParser) -> None:
    """The failure-detector flag group (run and serve)."""
    parser.add_argument(
        "--monitoring",
        nargs="?",
        const="ring",
        choices=["ring", "gossip"],
        default=None,
        help="failure-detection mode for the message-passing solvers: "
        '"ring" (the bare-flag value, and the default when failures are '
        'modelled) is the Section 3.2.5 heartbeat ring, "gossip" the '
        "epidemic detector with quorum-attested replacement",
    )
    parser.add_argument(
        "--gossip-fanout",
        type=_positive_int,
        default=None,
        metavar="F",
        help="peers each vehicle gossips its digest to per round "
        "(gossip monitoring only; default 2)",
    )
    parser.add_argument(
        "--suspicion-threshold",
        type=_positive_int,
        default=None,
        metavar="S",
        help="independent silent reports needed before a watcher opens a "
        "suspicion (gossip monitoring only; default 2)",
    )
    parser.add_argument(
        "--quorum",
        type=_positive_int,
        default=None,
        metavar="Q",
        help="co-signatures a watcher must collect before initiating "
        "replacement (gossip monitoring only; default 2, at most the "
        "suspicion threshold)",
    )
    parser.add_argument(
        "--byzantine-watcher",
        action="append",
        default=[],
        metavar="X,Y",
        help="home vertex of a vehicle whose failure-detection role lies "
        "(reports every pair silent, inverts attestations; repeatable; "
        "the quorum masks up to quorum-1 of these)",
    )


def _add_transport_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--transport",
        choices=list(available_transports()),
        default=None,
        help="message-delivery model for the online solvers (default: the "
        "historical reliable channel)",
    )
    parser.add_argument(
        "--transport-param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="transport parameter, e.g. loss=0.1 or seed=3 (repeatable; "
        "values parse as JSON when possible)",
    )
    parser.add_argument(
        "--escalation",
        action="store_true",
        help="let exhausted replacement searches escalate through the cube "
        "hierarchy (cross-cube replacement; online solvers only)",
    )


def _parse_point(raw: str) -> tuple:
    try:
        return tuple(int(c) for c in raw.split(","))
    except ValueError:
        raise SystemExit(
            f"invalid point {raw!r}: expected comma-separated integers like 3,3"
        ) from None


def _parse_failures(args: argparse.Namespace) -> Optional[FailureSpec]:
    """``--crash`` / ``--suppress`` / ``--byzantine-watcher`` as one spec."""
    crashed = tuple(_parse_point(p) for p in getattr(args, "crash", []))
    suppressed = tuple(_parse_point(p) for p in getattr(args, "suppress", []))
    byzantine = tuple(
        _parse_point(p) for p in getattr(args, "byzantine_watcher", [])
    )
    if crashed or suppressed or byzantine:
        return FailureSpec(
            crashed=crashed, suppressed=suppressed, byzantine_watchers=byzantine
        )
    return None


def _parse_transport(args: argparse.Namespace) -> Optional[TransportSpec]:
    kind = getattr(args, "transport", None)
    params = _parse_params(getattr(args, "transport_param", []))
    if kind is None:
        if params:
            raise SystemExit("--transport-param given without --transport")
        return None
    try:
        return TransportSpec(kind=kind, params=tuple(sorted(params.items())))
    except ValueError as error:
        raise SystemExit(f"invalid transport: {error}") from None


def _parse_capacity(raw: Optional[str]) -> CapacitySpec:
    if raw is None or raw == "theorem":
        return "theorem"
    if raw in ("unbounded", "none", "None"):
        return None
    try:
        return float(raw)
    except ValueError:
        raise SystemExit(
            f'invalid --capacity {raw!r}: expected "theorem", "unbounded", or a number'
        ) from None


def _parse_params(pairs: Sequence[str]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"invalid --param {pair!r}: expected KEY=VALUE")
        key, raw = pair.split("=", 1)
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _scenario_spec(
    args: argparse.Namespace, default_order: Optional[str] = None
) -> ScenarioSpec:
    """The ``--scenario``/``--demand-json`` workload.

    Without ``--order`` (or ``default_order``), families use their
    preferred ordering and everything else the random one.
    """
    order = getattr(args, "order", None) or default_order
    seed = getattr(args, "seed", 0)
    if getattr(args, "demand_json", None):
        demand = demand_from_json(load_json(args.demand_json))
        name = Path(args.demand_json).stem
        return ScenarioSpec.from_demand(demand, name=name, order=order or "random", seed=seed)
    if args.scenario in available_families():
        return ScenarioSpec.from_family(args.scenario, order=order, seed=seed)
    return ScenarioSpec(name=args.scenario, order=order or "random", seed=seed)


def _split_csv(raw: str) -> List[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _engine(args: argparse.Namespace, *, workers: int = 1) -> ExperimentEngine:
    def progress(done: int, total: int, result: RunResult) -> None:
        status = "ok" if result.feasible else "INFEASIBLE"
        print(
            f"[{done}/{total}] {result.solver}/{result.scenario} "
            f"max_energy={result.max_vehicle_energy:g} ({status})",
            file=sys.stderr,
        )

    return ExperimentEngine(
        workers=workers,
        cache_dir=getattr(args, "cache_dir", None),
        use_processes=getattr(args, "processes", False),
        progress=progress if workers > 1 or getattr(args, "verbose", False) else None,
    )


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #


def _command_scenarios() -> int:
    table = Table("Built-in paper scenarios", ["name", "support", "total demand", "description"])
    for scenario in paper_scenarios():
        table.add_row(
            scenario.name,
            len(scenario.demand),
            scenario.demand.total(),
            scenario.description,
        )
    print(table.render())
    return 0


def _command_families() -> int:
    table = Table(
        "Registered scenario families", ["name", "tags", "defaults", "description"]
    )
    for name, description in family_descriptions().items():
        family = get_family(name)
        defaults = ", ".join(f"{k}={v}" for k, v in sorted(family.defaults.items()))
        table.add_row(name, ",".join(family.tags), defaults, description)
    print(table.render())
    return 0


def _command_solvers() -> int:
    table = Table("Registered solvers", ["name", "description"])
    for name, description in solver_descriptions().items():
        table.add_row(name, description)
    print(table.render())
    return 0


#: Solvers that simulate the message-passing protocol (and hence a transport).
_MESSAGING_SOLVERS = ("online", "online-broken")
#: The solver that models crashed, suppressed and lying vehicles.
_FAILURE_SOLVERS = ("online-broken",)

#: A protocol flag as given: its option string, the solvers that take it,
#: and the :class:`RunConfig` changes it makes (a ``params`` change merges
#: into the config's params instead of replacing them).
_ProtocolFlag = Tuple[str, Tuple[str, ...], Dict[str, Any]]


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _gossip_knobs(args: argparse.Namespace, monitoring: Optional[str]) -> Dict[str, int]:
    """The gossip-detector knobs given, which need gossip ``monitoring``."""
    knobs = {
        name: getattr(args, name)
        for name in GOSSIP_KNOBS
        if getattr(args, name, None) is not None
    }
    if knobs and monitoring != "gossip":
        given = ", ".join(_option(name) for name in knobs)
        raise ConfigError(f"{given} need --monitoring gossip")
    return knobs


def _protocol_flags(args: argparse.Namespace) -> List[_ProtocolFlag]:
    """Every protocol flag on the command line, parsed once.

    A subcommand that lacks a flag never yields it.  The monitoring flags
    and ``--shard-workers`` ride the params channel, so absent flags leave
    every config hash untouched.
    """
    options = vars(args)
    flags: List[_ProtocolFlag] = []

    def take(dest: str, solvers: Tuple[str, ...], **changes: Any) -> None:
        flags.append((_option(dest), solvers, changes))

    transport = _parse_transport(args)
    if transport is not None:
        take("transport", _MESSAGING_SOLVERS, transport=transport)
    if options.get("escalation"):
        take("escalation", _MESSAGING_SOLVERS, escalation=True)
    if options.get("recovery_rounds", 0) > 0:
        take("recovery_rounds", _MESSAGING_SOLVERS, recovery_rounds=args.recovery_rounds)
    if options.get("shards", 1) > 1:
        take("shards", _MESSAGING_SOLVERS, shards=args.shards)
    if options.get("metrics_out"):
        # Streams through the service harness, which runs only the protocol.
        take("metrics_out", _MESSAGING_SOLVERS)
    for name in ("monitoring", "shard_workers") + GOSSIP_KNOBS:
        if options.get(name) is not None:
            take(name, _MESSAGING_SOLVERS, params={name: options[name]})
    failures = _parse_failures(args)
    for name in ("crash", "suppress", "byzantine_watcher"):
        if options.get(name):
            take(name, _FAILURE_SOLVERS, failures=failures)
    return flags


def _apply_protocol_flags(
    args: argparse.Namespace, configs: Sequence[RunConfig]
) -> List[RunConfig]:
    """Apply each protocol flag to the configs whose solver takes it.

    The rule ``run``, ``compare`` and ``sweep`` share: a flag that no
    selected solver takes is a :class:`ConfigError` naming it (exit 2).
    """
    flags = _protocol_flags(args)
    selected = {config.solver for config in configs}
    unused: Dict[Tuple[str, ...], List[str]] = {}
    for flag, solvers, _ in flags:
        if selected.isdisjoint(solvers):
            unused.setdefault(solvers, []).append(flag)
    if unused:
        rules = "; ".join(
            f"{', '.join(names)} need one of the solvers {', '.join(solvers)}"
            for solvers, names in unused.items()
        )
        raise ConfigError(f"{rules} (selected: {', '.join(sorted(selected)) or 'none'})")
    _gossip_knobs(args, getattr(args, "monitoring", None))  # raises on misuse

    def apply(config: RunConfig) -> RunConfig:
        changes: Dict[str, Any] = {}
        params = config.params_dict()
        for _, solvers, change in flags:
            if config.solver in solvers:
                change = dict(change)
                params.update(change.pop("params", {}))
                changes.update(change)
        return config.replace(params=params, **changes)

    return [apply(config) for config in configs]


def _workload_configs(
    args: argparse.Namespace, scenario: ScenarioSpec, solvers: Sequence[str]
) -> List[RunConfig]:
    """``run``/``compare``: one config per solver, protocol flags applied.

    Without failure flags, ``online-broken`` on a scenario family runs the
    family's own failure plan, as in ``sweep``.
    """
    fallback = None
    if scenario.family is not None and not set(solvers).isdisjoint(_FAILURE_SOLVERS):
        fallback = family_broken_failures(
            scenario.family, scenario.family_params_dict(), seed=scenario.seed
        )
    configs = [
        RunConfig(
            solver=solver,
            scenario=scenario,
            capacity=_parse_capacity(args.capacity),
            omega=args.omega,
            failures=fallback if solver in _FAILURE_SOLVERS else None,
            params=_parse_params(args.param),
        )
        for solver in solvers
    ]
    return _apply_protocol_flags(args, configs)


def _profiled(args: argparse.Namespace, execute: Callable[[], Any]) -> Any:
    """``execute()``, under cProfile (top 20 to stderr) when ``--profile`` is set."""
    if not getattr(args, "profile", False):
        return execute()
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return execute()
    finally:
        profiler.disable()
        pstats.Stats(profiler, stream=sys.stderr).sort_stats("cumulative").print_stats(20)


def _command_run(args: argparse.Namespace) -> int:
    [config] = _workload_configs(args, _scenario_spec(args), [args.solver])
    if args.metrics_out:
        if config.shards > 1:
            raise ConfigError(
                "--metrics-out streams through the service harness, which does "
                "not shard; drop --shards or --metrics-out"
            )
        return _command_run_streaming(args, config)
    engine = _engine(args)
    result = _profiled(args, lambda: engine.run(config))
    print(ExperimentEngine.summary([result], title=f"Run {config.label()}").render())
    extras = result.extras_dict()
    if extras:
        detail = Table("Solver detail", ["counter", "value"])
        for key, value in extras.items():
            detail.add_row(key, value)
        print()
        print(detail.render())
    if args.json_out:
        save_json(result.to_json(), args.json_out)
    return 0 if result.feasible else 1


def _service_summary(result) -> Table:
    table = Table("Service run", ["quantity", "value"])
    table.add_row("jobs served / dispatched", f"{result.jobs_served}/{result.jobs_total}")
    table.add_row("feasible", result.feasible)
    table.add_row("windows closed", result.windows)
    table.add_row("checkpoints written", result.checkpoints_written)
    table.add_row("resumed / interrupted", f"{result.resumed} / {result.interrupted}")
    table.add_row("max per-vehicle energy", result.max_vehicle_energy)
    table.add_row("protocol messages", result.messages)
    table.add_row("transport", result.transport)
    table.add_row("sim time", result.sim_time)
    table.add_row("result hash", result.result_hash()[:16])
    return table


def _command_run_streaming(args: argparse.Namespace, config: RunConfig) -> int:
    """``run --metrics-out``: the same online run, through the service harness.

    Finite sequences stream byte-identically to the batch driver, so the
    printed numbers match a plain ``run`` exactly -- this path merely adds
    the windowed-metrics JSONL (and still composes with ``--profile``).
    """
    from repro.api.service import ServiceConfig
    from repro.api.solvers import online_fleet_config
    from repro.service import run_service

    broken = config.solver == "online-broken"
    fleet_config = online_fleet_config(config, broken=broken)
    jobs = config.scenario.jobs()
    if len(jobs) == 0:
        print("error: the workload is empty; nothing to stream", file=sys.stderr)
        return 2
    failures = config.failures
    if broken and (failures is None or failures.is_empty()):
        print(
            "error: the online-broken solver needs a non-empty failures spec",
            file=sys.stderr,
        )
        return 2
    service_config = ServiceConfig.from_demand(
        jobs.demand_map(),
        omega=config.omega,
        capacity=config.capacity,
        fleet=fleet_config,
        recovery_rounds=config.recovery_rounds,
        transport=config.effective_transport(),
        churn=failures.churn_events() if broken else (),
        dead_vehicles=failures.crashed if broken else (),
        suppressed=failures.suppressed if broken else (),
        byzantine_watchers=failures.byzantine_watchers if broken else (),
        partitions=failures.partitions if broken else (),
        seed=config.scenario.seed,
        window_jobs=args.window,
    )

    result = _profiled(
        args,
        lambda: run_service(service_config, jobs.jobs, metrics_path=args.metrics_out),
    )
    print(_service_summary(result).render())
    print(f"\nwrote {result.windows} metrics windows to {args.metrics_out}", file=sys.stderr)
    if args.json_out:
        save_json(result.to_json(), args.json_out)
    return 0 if result.feasible else 1


def _command_serve(args: argparse.Namespace) -> int:
    from repro.api.service import ServiceConfig
    from repro.service import load_checkpoint, run_service
    from repro.workloads.arrivals import streaming_arrivals

    if args.jobs is None and args.duration is None:
        print("error: serve needs --jobs N, --duration T, or both", file=sys.stderr)
        return 2
    if args.checkpoint_every is not None and args.checkpoint is None:
        print("error: --checkpoint-every needs --checkpoint PATH", file=sys.stderr)
        return 2
    if args.keep_checkpoints is not None and args.checkpoint is None:
        print("error: --keep-checkpoints needs --checkpoint PATH", file=sys.stderr)
        return 2
    outputs = dict(
        duration=args.duration,
        metrics_path=args.metrics_out,
        state_path=args.state_out,
        log_path=args.log_out,
        checkpoint_path=args.checkpoint,
        keep_checkpoints=args.keep_checkpoints,
        stop_after_checkpoints=args.stop_after_checkpoints,
    )
    if args.resume:
        payload = load_checkpoint(args.resume)
        config = ServiceConfig.from_json(payload["config"])
        jobs = streaming_arrivals(config.demand(), jobs=args.jobs)
        result = run_service(config, jobs, snapshot=payload, **outputs)
    else:
        if args.scenario is None and args.demand_json is None:
            print(
                "error: serve needs --scenario, --demand-json, or --resume",
                file=sys.stderr,
            )
            return 2
        demand = _scenario_spec(args).demand()
        failures = _parse_failures(args) or FailureSpec()
        monitoring = args.monitoring
        if monitoring is None and (not failures.is_empty() or args.recovery_rounds > 0):
            monitoring = "ring"
        fleet = monitoring_settings(monitoring, _gossip_knobs(args, monitoring))
        if args.escalation:
            fleet["escalation"] = True
        if args.hand_back:
            fleet["hand_back"] = True
        config = ServiceConfig.from_demand(
            demand,
            omega=args.omega,
            capacity=_parse_capacity(args.capacity),
            fleet=fleet,
            recovery_rounds=args.recovery_rounds,
            transport=_parse_transport(args),
            dead_vehicles=failures.crashed,
            suppressed=failures.suppressed,
            byzantine_watchers=failures.byzantine_watchers,
            seed=args.seed,
            lookahead=args.lookahead,
            window_jobs=args.window,
            checkpoint_every=args.checkpoint_every,
        )
        jobs = streaming_arrivals(demand, jobs=args.jobs)
        result = run_service(config, jobs, **outputs)
    print(_service_summary(result).render())
    if args.json_out:
        save_json(result.to_json(), args.json_out)
    return 0 if result.feasible else 1


def _command_sweep(args: argparse.Namespace) -> int:
    if args.scenarios == "none":
        names: List[str] = []
    elif args.scenarios == "all":
        names = _scenario_names()
    else:
        names = _split_csv(args.scenarios)
    if args.families == "none":
        families: List[str] = []
    elif args.families == "all":
        families = available_families()
    else:
        families = _split_csv(args.families)
    seeds = [int(seed) for seed in _split_csv(args.seeds)]
    solvers = _split_csv(args.solvers)
    capacity = _parse_capacity(args.capacity)
    scenarios = [ScenarioSpec(name=name, order=args.order or "random") for name in names]
    configs = config_matrix(scenarios, solvers, seeds=seeds, capacity=capacity)
    configs += family_matrix(
        families,
        solvers,
        seeds=seeds,
        capacity=capacity,
        order=args.order,
        preset=None if args.preset == "default" else args.preset,
    )
    if not configs:
        print("error: nothing to sweep (no scenarios and no families)", file=sys.stderr)
        return 2
    configs = _apply_protocol_flags(args, configs)
    engine = _engine(args, workers=args.workers)
    results = engine.run_many(configs)
    print(
        ExperimentEngine.summary(
            results, title=f"Sweep: {len(results)} runs ({engine.stats.cache_hits} cached)"
        ).render()
    )
    if args.out:
        Path(args.out).write_text(ExperimentEngine.results_payload(results))
        print(f"\nwrote {len(results)} results to {args.out}", file=sys.stderr)
    return 0 if all(result.feasible for result in results) else 1


def _command_compare(args: argparse.Namespace) -> int:
    scenario = _scenario_spec(args)
    configs = _workload_configs(args, scenario, _split_csv(args.solvers))
    engine = _engine(args, workers=args.workers)
    results = engine.run_many(configs)
    print(
        ExperimentEngine.summary(
            results, title=f"Comparison on scenario {scenario.name!r}"
        ).render()
    )
    return 0 if all(result.feasible for result in results) else 1


def _command_bounds(args: argparse.Namespace) -> int:
    demand = _scenario_spec(args).demand()
    bounds = offline_bounds(demand)
    table = Table("Offline characterization (Theorem 1.4.1)", ["quantity", "value"])
    table.add_row("support size", len(demand))
    table.add_row("total demand", demand.total())
    table.add_row("omega_c (Cor. 2.2.7)", bounds.omega_c)
    table.add_row("omega* = max_T omega_T (cubes)", bounds.omega_star)
    table.add_row("audited constructive capacity", bounds.constructive_capacity)
    table.add_row("(2*3^l + l) * omega* upper bound", bounds.upper_bound)
    table.add_row("realized gap", bounds.sandwich_ratio)
    print(table.render())
    return 0


def _command_online(args: argparse.Namespace) -> int:
    # Unlike run/compare/sweep, a family without --order stays random here.
    jobs = _scenario_spec(args, default_order="random").jobs()
    capacity = _parse_capacity(args.capacity)
    result = run_online(jobs, omega=args.omega, capacity=capacity)
    table = Table("Online strategy (Theorem 1.4.2)", ["quantity", "value"])
    table.add_row("jobs served / total", f"{result.jobs_served}/{result.jobs_total}")
    table.add_row("feasible", result.feasible)
    table.add_row("omega (cube parameter)", result.omega)
    table.add_row("offline lower bound omega*", result.omega_star)
    table.add_row("provisioned capacity", result.capacity)
    table.add_row("max per-vehicle energy", result.max_vehicle_energy)
    table.add_row("online / offline ratio", result.online_to_offline_ratio)
    table.add_row("replacements", result.replacements)
    table.add_row("protocol messages", result.messages)
    print(table.render())
    return 0 if result.feasible else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "scenarios": lambda: _command_scenarios(),
        "families": lambda: _command_families(),
        "solvers": lambda: _command_solvers(),
        "run": lambda: _command_run(args),
        "sweep": lambda: _command_sweep(args),
        "compare": lambda: _command_compare(args),
        "bounds": lambda: _command_bounds(args),
        "online": lambda: _command_online(args),
        "serve": lambda: _command_serve(args),
    }
    command = commands.get(args.command)
    if command is None:  # pragma: no cover - argparse rejects unknown commands
        parser.error(f"unknown command {args.command!r}")
        return 2
    try:
        return command()
    except (ConfigError, UnknownSolverError, OSError, json.JSONDecodeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
