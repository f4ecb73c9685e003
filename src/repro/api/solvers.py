"""The built-in solvers: every chapter and baseline behind one interface.

Each function here adapts an existing implementation to the registry's
``solver(config) -> RunResult`` convention:

============== ==============================================================
name           wraps
============== ==============================================================
offline        Theorem 1.4.1 characterization + audited Lemma 2.2.5 plan
online         the decentralized Chapter 3 strategy (Theorem 1.4.2)
online-broken  Chapter 3 with crash/suppression injection (Section 3.2.5,
               the simulated face of Chapter 4's broken vehicles)
online-transfer Chapter 5 energy transfers: line collection schedule with
               closed-form validation, or the Theorem 5.1.1 square bound
greedy         the greedy nearest-vehicle heuristic + capacity bisection
cvrp           single-depot CVRP (Clarke--Wright / sweep / nearest-neighbor)
tsp            single-vehicle nearest-neighbor + 2-opt tour
transportation the classical transportation LP (earth mover's distance)
============== ==============================================================

Importing this module populates the registry; :mod:`repro.api` does so on
import, which is why ``from repro.api import get_solver`` always sees the
full catalogue.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.api.config import ConfigError, RunConfig
from repro.api.registry import register_solver
from repro.api.result import RunResult
from repro.baselines.cvrp import (
    CVRPInstance,
    clarke_wright,
    nearest_neighbor_routes,
    sweep_routes,
)
from repro.baselines.greedy import greedy_nearest_vehicle_plan
from repro.baselines.transportation import transportation_problem
from repro.baselines.tsp import nearest_neighbor_tour, tour_length, two_opt
from repro.core.demand import DemandMap
from repro.core.feasibility import audit_plan, minimal_feasible_capacity
from repro.core.offline import offline_bounds
from repro.core.omega import omega_star_cubes
from repro.core.online import run_online
from repro.core.transfer import (
    TransferAccounting,
    line_tank_requirement,
    simulate_line_collection,
    transfer_lower_bound,
)
from repro.grid.lattice import Point
from repro.vehicles.fleet import FleetConfig
from repro.workloads.arrivals import sequential_arrivals

__all__ = ["BUILTIN_SOLVERS"]

#: Names this module registers, in catalogue order.
BUILTIN_SOLVERS = (
    "offline",
    "online",
    "online-broken",
    "online-transfer",
    "greedy",
    "cvrp",
    "tsp",
    "transportation",
)


def _unit_job_count(demand: DemandMap) -> int:
    """Number of unit jobs the demand expands into (the online workload size)."""
    return len(sequential_arrivals(demand))


def _omega_star(demand: DemandMap) -> float:
    return 0.0 if demand.is_empty() else omega_star_cubes(demand).omega


def _empty_result(config: RunConfig) -> RunResult:
    return RunResult(
        solver=config.solver,
        scenario=config.scenario.name,
        omega_star=0.0,
        capacity=None,
        feasible=True,
        max_vehicle_energy=0.0,
        total_energy=0.0,
        objective=0.0,
        jobs_total=0,
        jobs_served=0,
    )


# --------------------------------------------------------------------------- #
# Chapter 2: offline
# --------------------------------------------------------------------------- #


@register_solver(
    "offline",
    description="Theorem 1.4.1 offline characterization with the audited Lemma 2.2.5 plan",
)
def solve_offline(config: RunConfig) -> RunResult:
    demand = config.scenario.demand()
    if demand.is_empty():
        return _empty_result(config)
    bounds = offline_bounds(demand)
    jobs = _unit_job_count(demand)
    return RunResult(
        solver=config.solver,
        scenario=config.scenario.name,
        omega_star=bounds.omega_star,
        capacity=bounds.constructive_capacity,
        feasible=True,
        max_vehicle_energy=bounds.constructive_capacity,
        total_energy=demand.total(),
        objective=bounds.constructive_capacity,
        jobs_total=jobs,
        jobs_served=jobs,
        extras={
            "omega_c": bounds.omega_c,
            "upper_bound": bounds.upper_bound,
            "sandwich_ratio": bounds.sandwich_ratio,
        },
    )


# --------------------------------------------------------------------------- #
# Chapter 3: online (and its broken-vehicle variant)
# --------------------------------------------------------------------------- #


#: The gossip-detector knobs: :class:`FleetConfig` fields, run params and
#: (dashed) CLI flags of the same names.
GOSSIP_KNOBS = ("gossip_fanout", "suspicion_threshold", "quorum")


def monitoring_settings(mode: Optional[str], knobs: Mapping[str, Any]) -> Dict[str, Any]:
    """:class:`FleetConfig` overrides for a monitoring mode plus gossip knobs.

    ``"ring"`` is written as the historical boolean ``True``, so configs,
    checkpoints and hashes of ring runs stay byte-identical; ``"gossip"``
    opts into the epidemic detector; ``None`` sets no mode and leaves the
    caller's default.  The knobs pass through as given.  Shared by
    :func:`online_fleet_config` and ``repro serve``.
    """
    settings = dict(knobs)
    if mode == "ring":
        settings["monitoring"] = True
    elif mode == "gossip":
        settings["monitoring"] = "gossip"
    elif mode is not None:
        raise ConfigError(f"monitoring must be 'ring' or 'gossip', got {mode!r}")
    return settings


def online_fleet_config(config: RunConfig, *, broken: bool) -> FleetConfig:
    """The :class:`FleetConfig` an online-family run of ``config`` uses.

    Shared by the solvers and ``repro run --metrics-out``, so the batch and
    the streaming path run the same monitoring and gossip settings.
    Monitoring defaults to the ring loop for ``online-broken`` and to off
    for ``online``; the ``monitoring`` param overrides either (on the
    failure-free solver too, so ring/gossip equivalence is testable).
    """
    # The event driver is the only driver; the param survives as a
    # constant so existing configs (and their hashes) stay valid.
    engine = config.param("engine", "events")
    if engine != "events":
        raise ConfigError(
            f'the online solvers run only the "events" engine, got {engine!r}'
        )
    params = config.params_dict()
    settings = monitoring_settings(
        params.get("monitoring"),
        {name: params[name] for name in GOSSIP_KNOBS if name in params},
    )
    try:
        return FleetConfig(
            **{"monitoring": broken, "escalation": config.escalation, **settings}
        )
    except ValueError as error:
        raise ConfigError(str(error)) from None


def _run_online_family(config: RunConfig, *, broken: bool) -> RunResult:
    fleet_config = online_fleet_config(config, broken=broken)
    jobs = config.scenario.jobs()
    if len(jobs) == 0:
        return _empty_result(config)
    transport = config.effective_transport()
    failure_plan = None
    dead_vehicles = None
    churn = None
    if not broken and config.failures is not None and not config.failures.is_empty():
        raise ConfigError(
            'the "online" solver ignores failure specs; use "online-broken" '
            "to run with crashed/suppressed vehicles (a bare transport "
            "belongs on RunConfig.transport)"
        )
    if broken:
        if config.failures is None or config.failures.is_empty():
            raise ConfigError(
                "the online-broken solver needs a non-empty failures spec "
                "(crashed/suppressed vehicles, partitions, or churn)"
            )
        failure_plan = config.failures.to_plan()
        dead_vehicles = config.failures.crashed
        churn = config.failures.churn_events()
    result = run_online(
        jobs,
        omega=config.omega,
        capacity=config.capacity,
        config=fleet_config,
        rng=np.random.default_rng(config.scenario.seed),
        failure_plan=failure_plan,
        dead_vehicles=dead_vehicles,
        recovery_rounds=config.recovery_rounds,
        churn=churn,
        transport=transport,
        shards=config.shards,
        shard_workers=config.param("shard_workers", None),
    )
    extras = {
        "theorem_capacity": result.theorem_capacity,
        "total_travel": result.total_travel,
        "total_service": result.total_service,
        "replacements": result.replacements,
        "searches": result.searches,
        "failed_replacements": result.failed_replacements,
        "messages": result.messages,
        "heartbeat_rounds": result.heartbeat_rounds,
        "engine": "events",
        "events_processed": result.events_processed,
        "transport": result.transport,
        "messages_dropped": result.messages_dropped,
        "messages_corrupted": result.messages_corrupted,
    }
    if config.escalation:
        extras["escalation"] = True
        extras["escalations"] = result.escalations
        extras["escalated_replacements"] = result.escalated_replacements
        extras["adoptions"] = result.adoptions
    if broken and config.failures is not None:
        extras["crashed_vehicles"] = len(config.failures.crashed)
        extras["suppressed_vehicles"] = len(config.failures.suppressed)
        extras["partition_windows"] = len(config.failures.partitions)
        extras["churn_events"] = len(config.failures.churn)
        if config.failures.byzantine_watchers:
            extras["byzantine_watchers"] = len(config.failures.byzantine_watchers)
    # Gossip-mode counters and the detection-latency digest only appear
    # when opted into (the gossip detector, or the ``detection_latency``
    # param on a ring run) -- default-config extras, and with them every
    # golden hash, are byte-identical to the pre-gossip runs.
    if result.monitoring_mode == "gossip":
        extras["monitoring_mode"] = "gossip"
        extras["suspicions"] = result.suspicions
        extras["attestations"] = result.attestations
        extras["refused_attestations"] = result.refused_attestations
        extras["false_suspicions"] = result.false_suspicions
    if result.monitoring_mode == "gossip" or config.param("detection_latency", False):
        extras["detections"] = result.detections
        extras["detection_p50"] = result.detection_p50
        extras["detection_p99"] = result.detection_p99
    if config.shards > 1:
        # Sharded runs record which execution mode actually ran (and, on a
        # single-process fallback, the first disqualifying feature) so bench
        # numbers can't silently be misread as parallel.  Guarded behind
        # shards > 1: unsharded extras -- and their golden hashes -- are
        # untouched.
        extras["shard_mode"] = result.shard_mode
        if result.shard_mode_reason:
            extras["shard_mode_reason"] = result.shard_mode_reason
    return RunResult(
        solver=config.solver,
        scenario=config.scenario.name,
        omega_star=result.omega_star,
        capacity=result.capacity,
        feasible=result.feasible,
        max_vehicle_energy=result.max_vehicle_energy,
        total_energy=result.total_travel + result.total_service,
        objective=result.max_vehicle_energy,
        jobs_total=result.jobs_total,
        jobs_served=result.jobs_served,
        extras=extras,
    )


@register_solver(
    "online",
    description="the decentralized online strategy of Chapter 3 (Theorem 1.4.2)",
)
def solve_online(config: RunConfig) -> RunResult:
    return _run_online_family(config, broken=False)


@register_solver(
    "online-broken",
    description="the online strategy under crash/suppression injection (Section 3.2.5)",
)
def solve_online_broken(config: RunConfig) -> RunResult:
    return _run_online_family(config, broken=True)


# --------------------------------------------------------------------------- #
# Chapter 5: energy transfers
# --------------------------------------------------------------------------- #


def _collinear_axis(points: List[Point]) -> Optional[int]:
    """The axis along which all support points vary, if they are collinear."""
    if len(points) < 2:
        return None
    dim = len(points[0])
    varying = [
        axis for axis in range(dim) if len({point[axis] for point in points}) > 1
    ]
    if len(varying) == 1:
        return varying[0]
    return None


def _line_profile(demand: DemandMap, axis: int) -> List[float]:
    """Per-vertex demands along the (gap-filled) line spanned by the support."""
    support = demand.support()
    coordinates = [point[axis] for point in support]
    lo, hi = min(coordinates), max(coordinates)
    template = list(support[0])
    profile = []
    for coordinate in range(lo, hi + 1):
        template[axis] = coordinate
        profile.append(demand[tuple(template)])
    return profile


def _minimal_line_charge(
    demands: List[float], closed_form: float, accounting: TransferAccounting, a1: float, a2: float
) -> Tuple[float, object]:
    """Smallest feasible initial charge for the collection schedule.

    The closed form is exact up to the integrality of the schedule, so the
    search starts there and bisects within a small bracket.
    """

    def feasible(charge: float):
        sim = simulate_line_collection(demands, charge, accounting=accounting, a1=a1, a2=a2)
        return sim if sim.feasible else None

    hi = max(closed_form, 1e-9)
    best = feasible(hi)
    doublings = 0
    while best is None:
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            raise RuntimeError("no feasible initial charge found for the line schedule")
        best = feasible(hi)
    lo = 0.0
    while hi - lo > 1e-9 * max(1.0, hi):
        mid = (lo + hi) / 2.0
        sim = feasible(mid)
        if sim is not None:
            hi, best = mid, sim
        else:
            lo = mid
    return hi, best


@register_solver(
    "online-transfer",
    description="Chapter 5 energy transfers: line collection schedule or the Theorem 5.1.1 bound",
)
def solve_online_transfer(config: RunConfig) -> RunResult:
    demand = config.scenario.demand()
    if demand.is_empty():
        return _empty_result(config)
    accounting = TransferAccounting(config.param("accounting", "fixed"))
    a1 = float(config.param("a1", 0.0))
    a2 = float(config.param("a2", 0.0))
    jobs = _unit_job_count(demand)
    omega_star = _omega_star(demand)
    axis = _collinear_axis(demand.support())
    if axis is not None:
        # Section 5.2.1: large tanks on a line -- execute the collection
        # schedule and validate the closed form.
        profile = _line_profile(demand, axis)
        closed_form = line_tank_requirement(profile, accounting=accounting, a1=a1, a2=a2)
        charge, sim = _minimal_line_charge(profile, closed_form, accounting, a1, a2)
        return RunResult(
            solver=config.solver,
            scenario=config.scenario.name,
            omega_star=omega_star,
            capacity=charge,
            feasible=sim.feasible,
            max_vehicle_energy=charge,
            total_energy=charge * len(profile),
            objective=charge,
            jobs_total=jobs,
            jobs_served=jobs if sim.feasible else 0,
            extras={
                "mode": "line-tanks",
                "accounting": accounting.value,
                "closed_form_requirement": closed_form,
                "transfers": sim.transfers,
                "collector_distance": sim.distance,
                "transfer_overhead": sim.transfer_overhead,
            },
        )
    # General planar demand: the Theorem 5.1.1 transfer-aware lower bound.
    bound = transfer_lower_bound(demand)
    return RunResult(
        solver=config.solver,
        scenario=config.scenario.name,
        omega_star=omega_star,
        capacity=bound,
        feasible=True,
        max_vehicle_energy=bound,
        total_energy=demand.total(),
        objective=bound,
        jobs_total=jobs,
        jobs_served=jobs,
        extras={
            "mode": "square-bound",
            "transfer_vs_omega_star": bound / omega_star if omega_star else 1.0,
        },
    )


# --------------------------------------------------------------------------- #
# Baselines
# --------------------------------------------------------------------------- #


@register_solver(
    "greedy",
    description="greedy nearest-vehicle heuristic with capacity bisection (empirical W_off)",
)
def solve_greedy(config: RunConfig) -> RunResult:
    demand = config.scenario.demand()
    if demand.is_empty():
        return _empty_result(config)
    tolerance = float(config.param("tolerance", 1e-3))
    capacity, plan = minimal_feasible_capacity(
        demand,
        lambda w: greedy_nearest_vehicle_plan(demand, w),
        tolerance=tolerance,
    )
    audit = audit_plan(plan, demand, capacity=capacity)
    jobs = _unit_job_count(demand)
    return RunResult(
        solver=config.solver,
        scenario=config.scenario.name,
        omega_star=_omega_star(demand),
        capacity=capacity,
        feasible=audit.feasible,
        max_vehicle_energy=audit.max_vehicle_energy,
        total_energy=audit.total_energy,
        objective=audit.max_vehicle_energy,
        jobs_total=jobs,
        jobs_served=jobs if audit.feasible else 0,
        extras={"vehicles_used": len(plan), "bisection_tolerance": tolerance},
    )


_CVRP_HEURISTICS = {
    "clarke-wright": clarke_wright,
    "sweep": sweep_routes,
    "nearest-neighbor": nearest_neighbor_routes,
}


@register_solver(
    "cvrp",
    description="classical single-depot CVRP (Clarke--Wright / sweep / nearest-neighbor)",
)
def solve_cvrp(config: RunConfig) -> RunResult:
    demand = config.scenario.demand()
    if demand.is_empty():
        return _empty_result(config)
    heuristic_name = config.param("heuristic", "clarke-wright")
    if heuristic_name not in _CVRP_HEURISTICS:
        raise ConfigError(
            f"unknown CVRP heuristic {heuristic_name!r}; "
            f"choose from {sorted(_CVRP_HEURISTICS)}"
        )
    vehicle_capacity = float(
        config.param("vehicle_capacity", max(2.0 * demand.max_demand(), 10.0))
    )
    instance = CVRPInstance.from_demand_map(demand, capacity=vehicle_capacity)
    solution = _CVRP_HEURISTICS[heuristic_name](instance)
    jobs = _unit_job_count(demand)
    feasible = solution.is_feasible()
    total_length = solution.total_length()
    return RunResult(
        solver=config.solver,
        scenario=config.scenario.name,
        omega_star=_omega_star(demand),
        capacity=vehicle_capacity,
        feasible=feasible,
        max_vehicle_energy=solution.max_route_energy(),
        total_energy=total_length + demand.total(),
        objective=total_length,
        jobs_total=jobs,
        jobs_served=jobs if feasible else 0,
        extras={
            "heuristic": heuristic_name,
            "routes": len(solution.routes) + len(instance.full_load_stops),
            "depot": list(instance.depot),
        },
    )


@register_solver(
    "tsp",
    description="single-vehicle nearest-neighbor + 2-opt tour over the demand support",
)
def solve_tsp(config: RunConfig) -> RunResult:
    demand = config.scenario.demand()
    if demand.is_empty():
        return _empty_result(config)
    tour = two_opt(nearest_neighbor_tour(demand.support()))
    length = tour_length(tour, closed=True)
    jobs = _unit_job_count(demand)
    # A single vehicle walks the tour and performs every unit of service.
    single_vehicle_energy = length + demand.total()
    return RunResult(
        solver=config.solver,
        scenario=config.scenario.name,
        omega_star=_omega_star(demand),
        capacity=single_vehicle_energy,
        feasible=True,
        max_vehicle_energy=single_vehicle_energy,
        total_energy=single_vehicle_energy,
        objective=length,
        jobs_total=jobs,
        jobs_served=jobs,
        extras={"tour_stops": len(tour)},
    )


@register_solver(
    "transportation",
    description="the classical transportation LP (earth mover's distance) against the demand",
)
def solve_transportation(config: RunConfig) -> RunResult:
    demand = config.scenario.demand()
    if demand.is_empty():
        return _empty_result(config)
    supply_mode = config.param("supply", "center")
    total = demand.total()
    if supply_mode == "center":
        center = demand.bounding_box().center()
        supplies = {tuple(center): total}
    elif supply_mode == "uniform":
        box = demand.bounding_box()
        per_vertex = total / box.size
        supplies = {point: per_vertex for point in box.points()}
    else:
        raise ConfigError(
            f'unknown supply mode {supply_mode!r}; choose "center" or "uniform"'
        )
    result = transportation_problem(supplies, demand.as_dict())
    jobs = _unit_job_count(demand)
    mean_distance = result.cost / total if total else 0.0
    return RunResult(
        solver=config.solver,
        scenario=config.scenario.name,
        omega_star=_omega_star(demand),
        capacity=None,
        feasible=True,
        max_vehicle_energy=result.cost,
        total_energy=result.cost + total,
        objective=result.cost,
        jobs_total=jobs,
        jobs_served=jobs,
        extras={
            "supply_mode": supply_mode,
            "mean_transport_distance": mean_distance,
            "active_flows": len(result.flows),
        },
    )
