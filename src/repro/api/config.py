"""Frozen run configurations: scenario + solver + knobs, hashable and JSON-safe.

A :class:`RunConfig` is the *complete* description of one experiment run:
which workload (:class:`ScenarioSpec`), which solver (a registry name), the
capacity/omega provisioning, an optional failure plan, an optional message
transport (:class:`~repro.distsim.transport.TransportSpec`), and
solver-specific parameters.  Configs are frozen, comparable, and round-trip through JSON
(:func:`RunConfig.to_json` / :func:`RunConfig.from_json`, also exposed via
:mod:`repro.io.serialize`), and :meth:`RunConfig.config_hash` gives a
stable content hash the engine uses as its cache key -- two configs with
the same hash produce byte-identical results.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.demand import DemandMap, JobSequence
from repro.distsim.failures import ChurnSpec, FailurePlan, PartitionSpec
from repro.distsim.transport import TransportSpec
from repro.grid.lattice import Point
from repro.workloads.arrivals import (
    alternating_arrivals,
    bursty_arrivals,
    random_arrivals,
    sequential_arrivals,
)

__all__ = [
    "ARRIVAL_ORDERS",
    "CapacitySpec",
    "ConfigError",
    "FailureSpec",
    "ScenarioSpec",
    "RunConfig",
    "TransportSpec",
]

#: Provisioning policy for the online family: ``"theorem"`` uses the
#: Lemma 3.3.1 budget, a float provisions that amount, ``None`` measures
#: with unbounded batteries.
CapacitySpec = Union[None, float, str]

ARRIVAL_ORDERS = ("random", "sequential", "alternating", "bursty")


class ConfigError(ValueError):
    """A run configuration failed validation."""


def _normalize_point(raw: Any) -> Point:
    if isinstance(raw, str) or not hasattr(raw, "__iter__"):
        raise ConfigError(f"not a lattice point: {raw!r}")
    point = []
    for coordinate in raw:
        if isinstance(coordinate, bool):
            raise ConfigError(f"not an integer coordinate: {coordinate!r} in {raw!r}")
        try:
            value = int(coordinate)
        except (TypeError, ValueError):
            raise ConfigError(
                f"not an integer coordinate: {coordinate!r} in {raw!r}"
            ) from None
        if value != coordinate:
            raise ConfigError(f"non-integer coordinate {coordinate!r} in {raw!r}")
        point.append(value)
    return tuple(point)


def _normalize_entries(raw: Any) -> Tuple[Tuple[Point, float], ...]:
    entries = []
    for item in raw:
        point, value = item
        value = float(value)
        if value < 0 or not math.isfinite(value):
            raise ConfigError(f"demand must be finite and non-negative, got {value}")
        entries.append((_normalize_point(point), value))
    entries.sort()
    return tuple(entries)


def _normalize_partition(raw: Any) -> PartitionSpec:
    if isinstance(raw, PartitionSpec):
        return raw
    if isinstance(raw, Mapping):
        try:
            return PartitionSpec(
                start=float(raw["start"]),
                end=float(raw["end"]),
                axis=int(raw.get("axis", 0)),
                boundary=float(raw.get("boundary", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigError(f"invalid partition window {raw!r}: {error}") from None
    raise ConfigError(f"not a partition window: {raw!r}")


def _normalize_churn(raw: Any) -> ChurnSpec:
    if isinstance(raw, ChurnSpec):
        return raw
    if isinstance(raw, Mapping):
        try:
            return ChurnSpec(
                time=float(raw["time"]),
                vertex=_normalize_point(raw["vertex"]),
                action=raw.get("action", "leave"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigError(f"invalid churn event {raw!r}: {error}") from None
    raise ConfigError(f"not a churn event: {raw!r}")


def _normalize_transport(raw: Any) -> Optional[TransportSpec]:
    if raw is None or isinstance(raw, TransportSpec):
        return raw
    try:
        if isinstance(raw, str):
            return TransportSpec(kind=raw)
        if isinstance(raw, Mapping):
            return TransportSpec.from_json(raw)
    except ValueError as error:
        raise ConfigError(str(error)) from None
    raise ConfigError(f"not a transport spec: {raw!r}")


@dataclass(frozen=True)
class FailureSpec:
    """Declarative failure injection for the online family.

    ``crashed`` vehicles are broken from the start (scenario 3): they cannot
    move, serve, or heartbeat, but their radios still relay protocol
    messages, so the monitoring loop can replace them.  ``suppressed``
    vehicles never initiate their own diffusing computations (scenario 2).
    Points name the vehicles' home vertices.

    ``partitions`` are timed network cuts and ``churn`` is a timed
    leave/join schedule (see :mod:`repro.distsim.failures`); both are
    expressed on the job clock (job ``k`` arrives at time ``k + 1``).

    ``transport`` is an adversarial delivery model
    (:class:`~repro.distsim.transport.TransportSpec`, e.g. seeded loss or
    Byzantine corruption) bundled with the rest of the failure plan --
    scenario-family failure builders use this channel.  A transport on a
    *failure-free* run belongs on :attr:`RunConfig.transport` instead.
    """

    crashed: Tuple[Point, ...] = ()
    suppressed: Tuple[Point, ...] = ()
    partitions: Tuple[PartitionSpec, ...] = ()
    churn: Tuple[ChurnSpec, ...] = ()
    transport: Optional[TransportSpec] = None
    #: Vehicles whose *failure detector* lies (gossip monitoring): they
    #: report healthy pairs silent, suspect without evidence, and invert
    #: attestations.  The quorum masks up to ``quorum - 1`` of them.
    byzantine_watchers: Tuple[Point, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "crashed", tuple(sorted(_normalize_point(p) for p in self.crashed))
        )
        object.__setattr__(
            self, "suppressed", tuple(sorted(_normalize_point(p) for p in self.suppressed))
        )
        object.__setattr__(
            self,
            "byzantine_watchers",
            tuple(sorted(_normalize_point(p) for p in self.byzantine_watchers)),
        )
        try:
            partitions = tuple(_normalize_partition(p) for p in self.partitions)
            churn = tuple(_normalize_churn(c) for c in self.churn)
        except ValueError as error:
            raise ConfigError(str(error)) from None
        object.__setattr__(
            self,
            "partitions",
            tuple(sorted(partitions, key=lambda p: (p.start, p.end, p.axis, p.boundary))),
        )
        object.__setattr__(
            self,
            "churn",
            tuple(sorted(churn, key=lambda c: (c.time, c.vertex, c.action))),
        )
        object.__setattr__(self, "transport", _normalize_transport(self.transport))

    def is_empty(self) -> bool:
        """Whether the spec injects nothing at all (every channel empty)."""
        return not (
            self.crashed
            or self.suppressed
            or self.partitions
            or self.churn
            or self.transport is not None
            or self.byzantine_watchers
        )

    def without_transport(self) -> "FailureSpec":
        """A copy with the transport channel cleared (an explicit
        :attr:`RunConfig.transport` overrides the bundled one)."""
        return dataclasses.replace(self, transport=None)

    def to_plan(self) -> FailurePlan:
        """The network-level :class:`FailurePlan` (suppression + partitions).

        Scenario 3 crashes are fleet-level (the vehicle dies, its radio
        lives) and are applied via :func:`repro.core.online.run_online`'s
        ``dead_vehicles`` argument; churn is likewise harness-level, via
        ``run_online``'s ``churn`` argument (see :meth:`churn_events`).
        """
        plan = FailurePlan()
        for point in self.suppressed:
            plan.suppress_initiation(point)
        for window in self.partitions:
            plan.add_partition(window)
        for point in self.byzantine_watchers:
            plan.mark_byzantine_watcher(point)
        return plan

    def churn_events(self) -> Tuple[ChurnSpec, ...]:
        """The timed leave/join schedule for the run harness."""
        return self.churn

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "crashed": [list(p) for p in self.crashed],
            "suppressed": [list(p) for p in self.suppressed],
        }
        if self.partitions:
            payload["partitions"] = [
                {"start": p.start, "end": p.end, "axis": p.axis, "boundary": p.boundary}
                for p in self.partitions
            ]
        if self.churn:
            payload["churn"] = [
                {"time": c.time, "vertex": list(c.vertex), "action": c.action}
                for c in self.churn
            ]
        if self.transport is not None:
            payload["transport"] = self.transport.to_json()
        if self.byzantine_watchers:
            payload["byzantine_watchers"] = [list(p) for p in self.byzantine_watchers]
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "FailureSpec":
        return cls(
            crashed=tuple(tuple(p) for p in payload.get("crashed", ())),
            suppressed=tuple(tuple(p) for p in payload.get("suppressed", ())),
            partitions=tuple(payload.get("partitions", ())),
            churn=tuple(payload.get("churn", ())),
            transport=payload.get("transport"),
            byzantine_watchers=tuple(
                tuple(p) for p in payload.get("byzantine_watchers", ())
            ),
        )


@functools.lru_cache(maxsize=None)
def _paper_scenario_demand(name: str) -> Optional[DemandMap]:
    """Demand map of a built-in paper scenario, generated once per process.

    The paper suite includes randomized scenarios whose generation is not
    free; the engine looks named scenarios up on every run, so the suite
    must not be rebuilt per lookup.  Demand maps are immutable, so sharing
    one instance across runs is safe (paper-scenario demands are
    seed-independent: the spec's seed only shuffles arrivals).  Returns
    ``None`` for names that are not paper scenarios.
    """
    from repro.workloads.scenarios import paper_scenarios

    for scenario in paper_scenarios():
        if scenario.name == name:
            return scenario.demand
    return None


def _named_scenario_demand(name: str, seed: int = 0) -> DemandMap:
    """Demand of a paper scenario, or of a scenario family as a fallback."""
    from repro.workloads.library import available_families
    from repro.workloads.scenarios import paper_scenarios

    demand = _paper_scenario_demand(name)
    if demand is not None:
        return demand
    if name in available_families():
        return _family_demand(name, (), seed)
    known = ", ".join(
        [s.name for s in paper_scenarios()] + available_families()
    )
    raise ConfigError(f"unknown paper scenario or family {name!r}; known scenarios: {known}")


def _family_demand(
    family: str, params: Tuple[Tuple[str, Any], ...], seed: int
) -> DemandMap:
    """Demand map built by a scenario family (cached inside the library)."""
    from repro.workloads.library import UnknownFamilyError, build_family_demand

    try:
        return build_family_demand(family, dict(params), seed=seed)
    except (UnknownFamilyError, ValueError) as error:
        raise ConfigError(str(error)) from None


@dataclass(frozen=True)
class ScenarioSpec:
    """A workload: a paper scenario, a scenario family, or an inline demand.

    Three sources, in precedence order:

    * ``entries`` set -- the entries *are* the demand map and ``name`` is a
      free label;
    * ``family`` set -- the demand is built by the named scenario family
      (see :mod:`repro.workloads.library`) from ``family_params`` and the
      spec's ``seed``;
    * otherwise ``name`` is looked up among the built-in paper scenarios
      (:func:`repro.workloads.scenarios.paper_scenarios`), falling back to
      a family of that name with default parameters.

    The spec also fixes the arrival ordering and its seed, so the job
    sequence a run sees is a pure function of the spec.
    """

    name: str
    entries: Optional[Tuple[Tuple[Point, float], ...]] = None
    order: str = "random"
    seed: int = 0
    #: Lattice dimension; only needed for inline scenarios with no entries
    #: (an empty demand map cannot infer it).
    dim: Optional[int] = None
    #: Scenario family name (see :mod:`repro.workloads.library`).
    family: Optional[str] = None
    #: Family parameters, stored as a sorted tuple of pairs (hashable).
    family_params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError(f"scenario name must be a non-empty string, got {self.name!r}")
        if self.dim is not None and (not isinstance(self.dim, int) or self.dim < 1):
            raise ConfigError(f"dim must be a positive integer, got {self.dim!r}")
        if self.order not in ARRIVAL_ORDERS:
            raise ConfigError(
                f"arrival order must be one of {ARRIVAL_ORDERS}, got {self.order!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.entries is not None:
            object.__setattr__(self, "entries", _normalize_entries(self.entries))
        if self.family is not None and (not self.family or not isinstance(self.family, str)):
            raise ConfigError(f"family must be a non-empty string, got {self.family!r}")
        if self.entries is not None and self.family is not None:
            raise ConfigError("a scenario is either inline (entries) or family-built, not both")
        object.__setattr__(self, "family_params", _normalize_params(self.family_params))
        if self.family_params and self.family is None:
            raise ConfigError("family_params given without a family name")

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_demand(
        cls, demand: DemandMap, *, name: str = "custom", order: str = "random", seed: int = 0
    ) -> "ScenarioSpec":
        """Wrap a concrete demand map as an inline scenario."""
        return cls(
            name=name,
            entries=tuple(demand.items()),
            order=order,
            seed=seed,
            dim=demand.dim,
        )

    @classmethod
    def named(cls, name: str, *, order: str = "random", seed: int = 0) -> "ScenarioSpec":
        """Reference a built-in paper scenario or family by name (validated eagerly)."""
        spec = cls(name=name, order=order, seed=seed)
        spec.demand()  # raises ConfigError on unknown names
        return spec

    @classmethod
    def from_family(
        cls,
        family: str,
        *,
        order: Optional[str] = None,
        seed: int = 0,
        **params: Any,
    ) -> "ScenarioSpec":
        """A spec built by the named scenario family (validated eagerly).

        Unspecified parameters take the family's defaults; the family's
        preferred arrival order is used unless ``order`` is given.
        """
        from repro.workloads.library import family_spec

        try:
            return family_spec(family, seed=seed, order=order, **params)
        except (KeyError, ValueError) as error:
            raise ConfigError(str(error)) from None

    # ------------------------------------------------------------------ #
    # materialization
    # ------------------------------------------------------------------ #

    def family_params_dict(self) -> Dict[str, Any]:
        """Family parameters as a plain dictionary."""
        return dict(self.family_params)

    def demand(self) -> DemandMap:
        """The demand map this spec describes."""
        if self.entries is not None:
            return DemandMap(dict(self.entries), dim=self.dim)
        if self.family is not None:
            return _family_demand(self.family, self.family_params, self.seed)
        return _named_scenario_demand(self.name, self.seed)

    def jobs(self) -> JobSequence:
        """The online job sequence: demand expanded under the spec's ordering."""
        demand = self.demand()
        if self.order == "sequential":
            return sequential_arrivals(demand)
        if self.order == "alternating":
            return alternating_arrivals(demand)
        if self.order == "bursty":
            return bursty_arrivals(demand, np.random.default_rng(self.seed))
        return random_arrivals(demand, np.random.default_rng(self.seed))

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"name": self.name, "order": self.order, "seed": self.seed}
        if self.entries is not None:
            payload["entries"] = [[list(point), value] for point, value in self.entries]
        if self.dim is not None:
            payload["dim"] = self.dim
        if self.family is not None:
            payload["family"] = self.family
            payload["family_params"] = {key: value for key, value in self.family_params}
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        entries = payload.get("entries")
        return cls(
            name=payload["name"],
            entries=tuple((tuple(p), v) for p, v in entries) if entries is not None else None,
            order=payload.get("order", "random"),
            seed=payload.get("seed", 0),
            dim=payload.get("dim"),
            family=payload.get("family"),
            family_params=payload.get("family_params", ()),
        )


def _normalize_params(raw: Any) -> Tuple[Tuple[str, Any], ...]:
    if isinstance(raw, Mapping):
        items = raw.items()
    else:
        items = tuple(raw)
    normalized = []
    for key, value in items:
        if not isinstance(key, str) or not key:
            raise ConfigError(f"param keys must be non-empty strings, got {key!r}")
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            raise ConfigError(f"param {key!r} is not JSON-serializable: {value!r}") from None
        normalized.append((key, value))
    normalized.sort(key=lambda item: item[0])
    return tuple(normalized)


@dataclass(frozen=True)
class RunConfig:
    """The complete, frozen description of one experiment run."""

    #: Registry name of the solver (see :mod:`repro.api.registry`).
    solver: str
    #: The workload (demand + arrival ordering + seed).
    scenario: ScenarioSpec
    #: Capacity provisioning for the online family (see :data:`CapacitySpec`).
    capacity: CapacitySpec = "theorem"
    #: Cube-partition parameter override (``None`` = the solver's default).
    omega: Optional[float] = None
    #: Failure injection (online-broken).
    failures: Optional[FailureSpec] = None
    #: Message transport for the online family (``None`` = the reliable
    #: fixed-delay channel).  When set, it overrides a transport bundled in
    #: ``failures``, which is dropped on construction.
    transport: Optional[TransportSpec] = None
    #: Whether an exhausted Phase I replacement search may escalate through
    #: the cube hierarchy (cross-cube replacement; online family only).
    escalation: bool = False
    #: Heartbeat rounds the monitoring loop may spend recovering a job.
    recovery_rounds: int = 0
    #: Cube-aligned shards to partition the run into (online family only;
    #: see :mod:`repro.distsim.sharding`).  Results are byte-identical to
    #: the single-shard run by construction.
    shards: int = 1
    #: Solver-specific parameters, stored as a sorted tuple of pairs so the
    #: config stays hashable; pass a dict, it is normalized on construction.
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.solver or not isinstance(self.solver, str):
            raise ConfigError(f"solver must be a non-empty string, got {self.solver!r}")
        if not isinstance(self.scenario, ScenarioSpec):
            raise ConfigError(f"scenario must be a ScenarioSpec, got {self.scenario!r}")
        if isinstance(self.capacity, str):
            if self.capacity != "theorem":
                raise ConfigError(
                    f'capacity must be "theorem", a positive number, or None; '
                    f"got {self.capacity!r}"
                )
        elif self.capacity is not None:
            value = float(self.capacity)
            if value <= 0 or not math.isfinite(value):
                raise ConfigError(f"capacity must be positive and finite, got {value}")
            object.__setattr__(self, "capacity", value)
        if self.omega is not None:
            omega = float(self.omega)
            if omega <= 0 or not math.isfinite(omega):
                raise ConfigError(f"omega must be positive and finite, got {omega}")
            object.__setattr__(self, "omega", omega)
        if not isinstance(self.escalation, bool):
            raise ConfigError(f"escalation must be a bool, got {self.escalation!r}")
        if not isinstance(self.recovery_rounds, int) or self.recovery_rounds < 0:
            raise ConfigError(
                f"recovery_rounds must be a non-negative integer, got {self.recovery_rounds!r}"
            )
        if (
            not isinstance(self.shards, int)
            or isinstance(self.shards, bool)
            or self.shards < 1
        ):
            raise ConfigError(
                f"shards must be a positive integer, got {self.shards!r}"
            )
        if self.failures is not None and not isinstance(self.failures, FailureSpec):
            raise ConfigError(f"failures must be a FailureSpec, got {self.failures!r}")
        object.__setattr__(self, "transport", _normalize_transport(self.transport))
        if self.transport is not None and self.failures is not None:
            # An explicit transport overrides the failure plan's bundled one.
            object.__setattr__(self, "failures", self.failures.without_transport())
        object.__setattr__(self, "params", _normalize_params(self.params))

    # ------------------------------------------------------------------ #
    # parameters
    # ------------------------------------------------------------------ #

    def params_dict(self) -> Dict[str, Any]:
        """Solver parameters as a plain dictionary."""
        return dict(self.params)

    def param(self, key: str, default: Any = None) -> Any:
        """One solver parameter with a default."""
        return dict(self.params).get(key, default)

    def effective_transport(self) -> Optional[TransportSpec]:
        """The transport this run should use, wherever it was configured."""
        if self.transport is not None:
            return self.transport
        if self.failures is not None:
            return self.failures.transport
        return None

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy of the config with fields replaced (re-validated)."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(changes)
        return RunConfig(**current)

    def validate(self) -> "RunConfig":
        """Full validation: field checks (done eagerly) plus registry/scenario lookups."""
        from repro.api.registry import solver_entry

        solver_entry(self.solver)  # raises UnknownSolverError
        self.scenario.demand()  # raises ConfigError on unknown names
        return self

    # ------------------------------------------------------------------ #
    # serialization and hashing
    # ------------------------------------------------------------------ #

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "type": "run_config",
            # Execution-semantics version, part of the content hash.  Bumped
            # when an unchanged config would no longer reproduce its cached
            # result -- e.g. v2: the online family's default engine flipped
            # from the lockstep rounds driver to the event driver, so
            # pre-transport disk caches must not be served for these hashes.
            "schema": 2,
            "solver": self.solver,
            "scenario": self.scenario.to_json(),
            "capacity": self.capacity,
            "omega": self.omega,
            "recovery_rounds": self.recovery_rounds,
            "params": {key: value for key, value in self.params},
        }
        # Serialize the failure spec whenever one is attached, even when all
        # of its channels are empty: dropping "empty-looking" specs made two
        # configs that differ only in FailureSpec fields canonicalize (and
        # hence hash) identically, so they collided in the engine's disk
        # cache.  ``failures=None`` keeps its historical serialized form.
        if self.failures is not None:
            payload["failures"] = self.failures.to_json()
        # Same reasoning for the transport: absent and present-but-default
        # must canonicalize differently.
        if self.transport is not None:
            payload["transport"] = self.transport.to_json()
        # Emitted only when enabled so every pre-escalation config keeps its
        # historical content hash (and hence its disk-cache entries).
        if self.escalation:
            payload["escalation"] = True
        # Same hash-preserving rule: the default shards=1 stays unserialized
        # (a sharded run produces byte-identical results, but it is still a
        # different execution plan, so shards>1 earns its own cache entry).
        if self.shards != 1:
            payload["shards"] = self.shards
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "RunConfig":
        if payload.get("type") != "run_config":
            raise ConfigError("payload is not a serialized run config")
        failures = payload.get("failures")
        return cls(
            solver=payload["solver"],
            scenario=ScenarioSpec.from_json(payload["scenario"]),
            capacity=payload.get("capacity", "theorem"),
            omega=payload.get("omega"),
            failures=FailureSpec.from_json(failures) if failures else None,
            transport=payload.get("transport"),
            escalation=payload.get("escalation", False),
            recovery_rounds=payload.get("recovery_rounds", 0),
            shards=payload.get("shards", 1),
            params=payload.get("params", ()),
        )

    def canonical_json(self) -> str:
        """Deterministic JSON text (sorted keys, no whitespace drift)."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        """Stable content hash -- the engine's cache key."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable identifier for progress lines and tables."""
        return f"{self.solver}/{self.scenario.name}#{self.scenario.seed}"
