"""The adversarial scenario-family registry.

A *scenario family* is a named, parameterized recipe for a whole class of
workloads: "hotspot demand over an ``s x s`` window", "a fleet with timed
churn", "a network partition through the middle of the job sequence".
Families are the unit the sweep tooling enumerates -- ``repro sweep
--families all`` and the differential test suite iterate this registry, so
adding a family here makes it reachable from the API, the CLI, the
benchmarks, and the property tests with zero per-solver wiring.

Each :class:`ScenarioFamily` bundles

* a demand **builder** ``build(params, rng) -> DemandMap`` (the workload's
  spatial shape, deterministic per ``(params, seed)``),
* an optional **failure builder** ``failures(params, demand, rng)`` that
  derives the family's failure injection -- crashed regions, churn
  schedules, partition windows -- expressed on the job clock,
* ``defaults`` (laptop-scale) and ``small`` (CI-scale) parameter presets,
* a default arrival ``order``.

:func:`family_spec` turns a family into a plain
:class:`~repro.api.config.ScenarioSpec` (the spec's ``family`` field keeps
the run config frozen, hashable, and JSON round-trippable), and
:func:`family_config` / :func:`family_matrix` produce ready-to-run
:class:`~repro.api.config.RunConfig` objects with the family's failure
plan attached to failure-aware solvers.

To add a family: write (or reuse) a generator in
:mod:`repro.workloads.generators`, call :func:`register_family` with a
builder and presets, and the entire toolchain picks it up.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.demand import DemandMap
from repro.distsim.failures import ChurnSpec, PartitionSpec
from repro.grid.lattice import Box
from repro.workloads.generators import (
    clustered_demand,
    corner_demand,
    diurnal_demand,
    grid_demand,
    heavy_tailed_demand,
    hotspot_demand,
    mobility_demand,
    random_uniform_demand,
)

__all__ = [
    "ScenarioFamily",
    "UnknownFamilyError",
    "register_family",
    "get_family",
    "available_families",
    "family_descriptions",
    "build_family_demand",
    "build_family_failures",
    "family_broken_failures",
    "family_spec",
    "family_config",
    "family_matrix",
    "FAMILY_PRESETS",
]

DemandBuilder = Callable[[Dict[str, Any], np.random.Generator], DemandMap]
FailureBuilder = Callable[[Dict[str, Any], DemandMap, np.random.Generator], Any]

#: Recognized parameter presets: ``None``/"default" uses ``defaults``,
#: "small" overlays the CI-scale overrides.
FAMILY_PRESETS = ("default", "small")

#: Seed salts so the demand rng, the failure rng, the transport seed, and
#: the arrival rng of one scenario seed never share a stream.
_DEMAND_SALT = 0xD117
_FAILURE_SALT = 0xFA11
_TRANSPORT_SALT = 0x7A4


class UnknownFamilyError(KeyError):
    """Raised when a scenario family name is not registered."""

    def __init__(self, name: str, available: List[str]) -> None:
        self.name = name
        self.available = available
        super().__init__(
            f"unknown scenario family {name!r}; registered families: "
            f"{', '.join(available) or '(none)'}"
        )

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


@dataclass(frozen=True)
class ScenarioFamily:
    """One named, parameterized scenario recipe."""

    name: str
    description: str
    build: DemandBuilder
    #: Laptop-scale default parameters (must be JSON-serializable values).
    defaults: Mapping[str, Any]
    #: CI-scale overrides layered on top of ``defaults`` for quick runs.
    small: Mapping[str, Any] = field(default_factory=dict)
    #: Arrival ordering the family is designed around.
    default_order: str = "random"
    #: Optional failure injection derived from the parameters and demand.
    failures: Optional[FailureBuilder] = None
    tags: Tuple[str, ...] = ()

    def params(
        self, overrides: Optional[Mapping[str, Any]] = None, *, preset: Optional[str] = None
    ) -> Dict[str, Any]:
        """Resolved parameters: defaults, then preset overlay, then overrides."""
        if preset not in (None, *FAMILY_PRESETS):
            raise ValueError(f"preset must be one of {FAMILY_PRESETS}, got {preset!r}")
        resolved = dict(self.defaults)
        if preset == "small":
            resolved.update(self.small)
        if overrides:
            unknown = set(overrides) - set(resolved)
            if unknown:
                raise ValueError(
                    f"unknown parameters for family {self.name!r}: {sorted(unknown)}"
                )
            resolved.update(overrides)
        return resolved


_FAMILIES: Dict[str, ScenarioFamily] = {}


def register_family(family: ScenarioFamily, *, override: bool = False) -> ScenarioFamily:
    """Install a family in the registry (name collisions are errors)."""
    if family.name in _FAMILIES and not override:
        raise ValueError(f"scenario family {family.name!r} is already registered")
    _FAMILIES[family.name] = family
    return family


def get_family(name: str) -> ScenarioFamily:
    """Look a family up by name (raises :class:`UnknownFamilyError`)."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise UnknownFamilyError(name, available_families()) from None


def available_families() -> List[str]:
    """Registered family names, sorted."""
    return sorted(_FAMILIES)


def family_descriptions() -> Dict[str, str]:
    """Mapping of registered name -> one-line description (sorted by name)."""
    return {name: _FAMILIES[name].description for name in available_families()}


def _params_key(params: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(params.items()))


@functools.lru_cache(maxsize=512)
def _cached_demand(name: str, params_key: Tuple[Tuple[str, Any], ...], seed: int) -> DemandMap:
    family = get_family(name)
    rng = np.random.default_rng((seed, _DEMAND_SALT))
    return family.build(dict(params_key), rng)


def build_family_demand(
    name: str, params: Optional[Mapping[str, Any]] = None, *, seed: int = 0
) -> DemandMap:
    """The family's demand map for one ``(params, seed)`` -- cached, since
    demand maps are immutable and the engine resolves specs on every run."""
    family = get_family(name)
    resolved = family.params(params)
    return _cached_demand(name, _params_key(resolved), seed)


def build_family_failures(
    name: str, params: Optional[Mapping[str, Any]] = None, *, seed: int = 0
):
    """The family's :class:`~repro.api.config.FailureSpec` (``None`` for
    failure-free families), deterministic per ``(params, seed)``."""
    family = get_family(name)
    if family.failures is None:
        return None
    resolved = family.params(params)
    demand = _cached_demand(name, _params_key(resolved), seed)
    rng = np.random.default_rng((seed, _FAILURE_SALT))
    return family.failures(resolved, demand, rng)


def family_broken_failures(
    name: str, params: Optional[Mapping[str, Any]] = None, *, seed: int = 0
):
    """The failure spec an ``online-broken`` run of this family should use.

    Failure families contribute their own plan; for failure-free families a
    minimal deterministic crash (the lexicographically first support point)
    is synthesized, since that solver requires a non-empty spec.  Both the
    config builders here and the CLI resolve through this one helper, so
    ``run``, ``compare`` and ``sweep`` agree on what a family x
    ``online-broken`` pair means.
    """
    from repro.api.config import FailureSpec

    spec = build_family_failures(name, params, seed=seed)
    if spec is not None and not spec.without_transport().is_empty():
        return spec
    # Failure-free family, or one whose only contribution is a transport
    # (e.g. mobility's distance-latency channel): synthesize the minimal
    # deterministic crash so the solver always has a physical failure --
    # and so an explicit transport stripping the bundled one (CLI/engine
    # precedence) can never leave the spec empty.
    demand = build_family_demand(name, params, seed=seed)
    crashed = (min(demand.support()),)
    if spec is not None and spec.transport is not None:
        return FailureSpec(crashed=crashed, transport=spec.transport)
    return FailureSpec(crashed=crashed)


def family_spec(
    name: str,
    *,
    seed: int = 0,
    order: Optional[str] = None,
    preset: Optional[str] = None,
    **overrides: Any,
):
    """A frozen :class:`~repro.api.config.ScenarioSpec` for this family."""
    from repro.api.config import ScenarioSpec

    family = get_family(name)
    return ScenarioSpec(
        name=name,
        family=name,
        family_params=tuple(sorted(family.params(overrides, preset=preset).items())),
        order=order if order is not None else family.default_order,
        seed=seed,
    )


def family_config(
    name: str,
    solver: str,
    *,
    seed: int = 0,
    capacity: Any = "theorem",
    order: Optional[str] = None,
    preset: Optional[str] = None,
    recovery_rounds: Optional[int] = None,
    params: Optional[Mapping[str, Any]] = None,
    transport: Any = None,
    escalation: bool = False,
    **overrides: Any,
):
    """A ready-to-run :class:`~repro.api.config.RunConfig` for family x solver.

    The family's failure plan is attached only to failure-aware solvers
    (currently ``online-broken``) -- other solvers see the bare workload,
    which is what lets one family drive the full solver catalogue.  For
    ``online-broken`` the spec comes from :func:`family_broken_failures`.
    ``transport`` (a :class:`~repro.distsim.transport.TransportSpec`, kind
    name, or JSON mapping) rides on the config; when the family's own
    failure plan already carries one, the explicit argument wins (see
    :attr:`~repro.api.config.RunConfig.transport`).
    """
    from repro.api.config import RunConfig

    spec = family_spec(name, seed=seed, order=order, preset=preset, **overrides)
    failures = None
    rounds = 0
    if solver == "online-broken":
        failures = family_broken_failures(name, spec.family_params_dict(), seed=seed)
        rounds = (
            recovery_rounds
            if recovery_rounds is not None
            else get_family(name).defaults.get("recovery_rounds", 2)
        )
    return RunConfig(
        solver=solver,
        scenario=spec,
        capacity=capacity,
        failures=failures,
        transport=transport,
        escalation=escalation,
        recovery_rounds=rounds,
        params=params if params is not None else (),
    )


def family_matrix(
    families: Optional[Sequence[str]] = None,
    solvers: Sequence[str] = ("offline",),
    *,
    seeds: Sequence[int] = (0,),
    capacity: Any = "theorem",
    order: Optional[str] = None,
    preset: Optional[str] = None,
) -> List[Any]:
    """The cross product family x solver x seed as run configs.

    Enumeration order (family-major, then solver, then seed) matches
    :func:`repro.api.engine.config_matrix` and is part of the sweep format.
    ``order=None`` lets each family use its preferred arrival ordering.
    """
    names = list(families) if families is not None else available_families()
    configs = []
    for name in names:
        for solver in solvers:
            for seed in seeds:
                configs.append(
                    family_config(
                        name,
                        solver,
                        seed=seed,
                        capacity=capacity,
                        order=order,
                        preset=preset,
                    )
                )
    return configs


# --------------------------------------------------------------------------- #
# the built-in families
# --------------------------------------------------------------------------- #


def _window(params: Mapping[str, Any]) -> Box:
    return Box.cube((0, 0), int(params["side"]))


def _job_count(demand: DemandMap) -> int:
    return sum(int(math.ceil(v - 1e-12)) for _, v in demand.items())


def _build_hotspot(params: Dict[str, Any], rng: np.random.Generator) -> DemandMap:
    return hotspot_demand(
        _window(params),
        int(params["hotspots"]),
        int(params["jobs"]),
        rng,
        hotspot_share=float(params["hotspot_share"]),
        spread=int(params["spread"]),
    )


def _build_bursty(params: Dict[str, Any], rng: np.random.Generator) -> DemandMap:
    return random_uniform_demand(_window(params), int(params["jobs"]), rng)


def _build_heavy_tailed(params: Dict[str, Any], rng: np.random.Generator) -> DemandMap:
    return heavy_tailed_demand(
        _window(params), int(params["points"]), rng, alpha=float(params["alpha"])
    )


def _build_corners(params: Dict[str, Any], rng: np.random.Generator) -> DemandMap:
    return corner_demand(
        _window(params),
        float(params["per_corner"]),
        center_jobs=float(params["center_jobs"]),
    )


def _build_clustered(params: Dict[str, Any], rng: np.random.Generator) -> DemandMap:
    return clustered_demand(
        _window(params),
        int(params["clusters"]),
        int(params["jobs"]) // max(1, int(params["clusters"])),
        rng,
        spread=int(params["spread"]),
    )


def _build_uniform(params: Dict[str, Any], rng: np.random.Generator) -> DemandMap:
    return random_uniform_demand(_window(params), int(params["jobs"]), rng)


def _build_scale_up(params: Dict[str, Any], rng: np.random.Generator) -> DemandMap:
    return grid_demand(int(params["side"]), float(params["per_point"]))


def _regional_outage_failures(
    params: Dict[str, Any], demand: DemandMap, rng: np.random.Generator
):
    """Crash every vehicle vertex inside one randomly placed outage box."""
    from repro.api.config import FailureSpec

    window = _window(params)
    outage_side = int(params["outage_side"])
    span = max(1, int(params["side"]) - outage_side)
    corner = tuple(int(c) for c in rng.integers(0, span, size=window.dim))
    outage = Box.cube(corner, outage_side)
    return FailureSpec(crashed=tuple(sorted(outage.points())))


def _churn_failures(params: Dict[str, Any], demand: DemandMap, rng: np.random.Generator):
    """Vehicles leave at staggered times and rejoin a fixed span later."""
    from repro.api.config import FailureSpec

    jobs = max(1, _job_count(demand))
    count = int(params["churn_vehicles"])
    rejoin_after = max(1.0, float(params["rejoin_fraction"]) * jobs)
    support = demand.support()
    picks = rng.choice(len(support), size=min(count, len(support)), replace=False)
    events = []
    for rank, index in enumerate(sorted(int(i) for i in picks)):
        vertex = support[index]
        leave_at = float(1 + (rank + 1) * jobs // (count + 1))
        events.append(ChurnSpec(time=leave_at, vertex=vertex, action="leave"))
        events.append(ChurnSpec(time=leave_at + rejoin_after, vertex=vertex, action="join"))
    return FailureSpec(churn=tuple(events))


def _partition_failures(params: Dict[str, Any], demand: DemandMap, rng: np.random.Generator):
    """Cut the window in half for the middle third of the job sequence.

    With ``corruption_rate > 0`` the partition rides on a Byzantine
    :class:`~repro.distsim.transport.CorruptingTransport` (seeded from the
    family's failure stream), layering message corruption on top of the
    partition machinery.
    """
    from repro.api.config import FailureSpec
    from repro.distsim.transport import TransportSpec

    jobs = max(3, _job_count(demand))
    boundary = (int(params["side"]) - 1) / 2.0
    window = PartitionSpec(
        start=float(jobs // 3),
        end=float(2 * jobs // 3),
        axis=0,
        boundary=boundary,
    )
    transport = None
    rate = float(params.get("corruption_rate", 0.0))
    if rate > 0.0:
        transport = TransportSpec(
            "corrupting",
            {"rate": rate, "seed": int(rng.integers(0, 2**31)) ^ _TRANSPORT_SALT},
        )
    return FailureSpec(partitions=(window,), transport=transport)


register_family(
    ScenarioFamily(
        name="hotspot",
        description="thin uniform background with a few cells carrying ~85% of the load",
        build=_build_hotspot,
        defaults={"side": 16, "hotspots": 3, "jobs": 240, "hotspot_share": 0.85, "spread": 1},
        small={"side": 8, "hotspots": 2, "jobs": 40},
        tags=("demand", "skewed"),
    )
)

register_family(
    ScenarioFamily(
        name="bursty",
        description="uniform demand whose jobs arrive in concentrated same-position bursts",
        build=_build_bursty,
        defaults={"side": 14, "jobs": 220},
        small={"side": 7, "jobs": 36},
        default_order="bursty",
        tags=("arrivals",),
    )
)

register_family(
    ScenarioFamily(
        name="heavy-tailed",
        description="per-point demands drawn from a Pareto tail (a few points dominate)",
        build=_build_heavy_tailed,
        defaults={"side": 16, "points": 120, "alpha": 1.3},
        small={"side": 8, "points": 24},
        tags=("demand", "skewed"),
    )
)

register_family(
    ScenarioFamily(
        name="adversarial-corners",
        description="all demand at the window corners, maximally far from a central depot",
        build=_build_corners,
        defaults={"side": 24, "per_corner": 60.0, "center_jobs": 20.0},
        small={"side": 10, "per_corner": 12.0, "center_jobs": 4.0},
        tags=("demand", "adversarial"),
    )
)

register_family(
    ScenarioFamily(
        name="regional-outage",
        description="clustered demand with every vehicle in one random region crashed",
        build=_build_clustered,
        defaults={
            "side": 14,
            "clusters": 4,
            "jobs": 200,
            "spread": 2,
            "outage_side": 4,
            "recovery_rounds": 3,
        },
        small={"side": 8, "clusters": 2, "jobs": 36, "outage_side": 3},
        failures=_regional_outage_failures,
        tags=("failures", "correlated"),
    )
)

register_family(
    ScenarioFamily(
        name="churn",
        description="vehicles leave at staggered times and rejoin later (join/leave churn)",
        build=_build_uniform,
        defaults={
            "side": 14,
            "jobs": 200,
            "churn_vehicles": 8,
            "rejoin_fraction": 0.25,
            "recovery_rounds": 3,
        },
        small={"side": 7, "jobs": 36, "churn_vehicles": 3},
        failures=_churn_failures,
        tags=("failures", "churn"),
    )
)

register_family(
    ScenarioFamily(
        name="partition",
        description="the network splits into two halves for the middle third of the run",
        build=_build_uniform,
        defaults={"side": 14, "jobs": 200, "recovery_rounds": 2, "corruption_rate": 0.0},
        small={"side": 8, "jobs": 36},
        failures=_partition_failures,
        tags=("failures", "partition"),
    )
)

register_family(
    ScenarioFamily(
        name="diurnal",
        description="time-of-day sinusoidal load curve laid out along the x-axis",
        build=lambda params, rng: diurnal_demand(
            _window(params),
            int(params["jobs"]),
            rng,
            periods=float(params["periods"]),
            trough=float(params["trough"]),
        ),
        defaults={"side": 16, "jobs": 240, "periods": 1.0, "trough": 0.2},
        small={"side": 8, "jobs": 40},
        # Sequential arrivals sweep the slices in sorted order, so the
        # arrival rate follows the sinusoid as the clock advances.
        default_order="sequential",
        tags=("demand", "temporal"),
    )
)

def _build_mobility(params: Dict[str, Any], rng: np.random.Generator) -> DemandMap:
    return mobility_demand(
        _window(params),
        int(params["walkers"]),
        int(params["steps"]),
        rng,
        step=int(params["step"]),
    )


def _mobility_failures(params: Dict[str, Any], demand: DemandMap, rng: np.random.Generator):
    """Pair the drifting workload with its physical radio model: a transport
    whose delay grows with the lattice distance a message covers."""
    from repro.api.config import FailureSpec
    from repro.distsim.transport import TransportSpec

    transport = TransportSpec(
        "distance-latency",
        {"delay": float(params["link_delay"]), "per_step": float(params["step_delay"])},
    )
    return FailureSpec(transport=transport)


register_family(
    ScenarioFamily(
        name="mobility",
        description="drifting consumers deposit jobs along random-walk trails "
        "(paired with the distance-latency transport)",
        build=_build_mobility,
        defaults={
            "side": 16,
            "walkers": 4,
            "steps": 60,
            "step": 1,
            "link_delay": 0.005,
            "step_delay": 0.002,
            "recovery_rounds": 2,
        },
        small={"side": 8, "walkers": 2, "steps": 18},
        failures=_mobility_failures,
        tags=("demand", "mobility", "transport"),
    )
)

register_family(
    ScenarioFamily(
        name="scale-up",
        description="a regular demand grid sized for fleets of hundreds of vehicles",
        build=_build_scale_up,
        defaults={"side": 12, "per_point": 2.0},
        small={"side": 5, "per_point": 1.0},
        tags=("scale",),
    )
)
