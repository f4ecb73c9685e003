"""Frozen service-run configuration and result types for :mod:`repro.service`.

A :class:`ServiceConfig` is the complete, JSON-round-trippable description
of a *long-lived* service run: the demand map the fleet is provisioned
for, the protocol knobs (:class:`~repro.vehicles.fleet.FleetConfig`
overrides), failure injection, the transport, and the harness cadences
(look-ahead window, metrics window size, checkpoint cadence).  It is what
a checkpoint embeds, so ``resume(snapshot)`` can rebuild an identical
fleet without the caller re-supplying anything but the job stream.

Unlike :class:`~repro.api.config.RunConfig`, a service config does *not*
carry an arrival ordering: the jobs of a service run come from a
generator/iterator the caller owns (they may be infinite), so the config
only pins everything the *fleet side* of the run depends on.

This module deliberately does not import :mod:`repro.service` (the service
package imports these types), keeping the dependency arrow pointing one
way: ``api`` -> nothing, ``service`` -> ``api``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.api.config import (
    CapacitySpec,
    ConfigError,
    FailureSpec,
    _normalize_entries,
    _normalize_transport,
)
from repro.core.demand import DemandMap
from repro.distsim.failures import ChurnSpec, FailurePlan, PartitionSpec
from repro.distsim.transport import TransportSpec
from repro.grid.lattice import Point
from repro.vehicles.fleet import FleetConfig

__all__ = ["ServiceConfig", "ServiceResult"]

_FLEET_FIELDS = {f.name for f in dataclasses.fields(FleetConfig)}


def _normalize_fleet(raw: Any) -> Tuple[Tuple[str, Any], ...]:
    if isinstance(raw, FleetConfig):
        items = dataclasses.asdict(raw).items()
    elif isinstance(raw, Mapping):
        items = raw.items()
    else:
        items = tuple(raw)
    normalized = []
    for key, value in items:
        if key not in _FLEET_FIELDS:
            raise ConfigError(f"unknown FleetConfig field {key!r}")
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            raise ConfigError(f"fleet field {key!r} is not JSON-serializable") from None
        normalized.append((key, value))
    normalized.sort(key=lambda item: item[0])
    return tuple(normalized)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a long-lived service run depends on, minus the job stream."""

    #: The demand map the fleet is provisioned for, as sorted entries.
    demand_entries: Tuple[Tuple[Point, float], ...]
    #: Lattice dimension (only needed when the entries cannot infer it).
    dim: Optional[int] = None
    #: Cube-partition parameter; ``None`` = ``omega_c`` of the demand.
    omega: Optional[float] = None
    #: Capacity provisioning (same contract as :func:`repro.core.online.run_online`).
    capacity: CapacitySpec = "theorem"
    #: :class:`~repro.vehicles.fleet.FleetConfig` field overrides, stored as
    #: a sorted tuple of pairs (hashable; pass a dict or a ``FleetConfig``).
    fleet: Tuple[Tuple[str, Any], ...] = ()
    #: Heartbeat rounds the monitoring loop may spend recovering a job.
    recovery_rounds: int = 0
    #: Message transport (``None`` = the historical channel; randomized when
    #: ``seed`` is set, exactly as ``run_online(rng=...)``).
    transport: Optional[TransportSpec] = None
    #: Timed leave/join schedule, on the job clock.
    churn: Tuple[ChurnSpec, ...] = ()
    #: Vehicles broken from the start (scenario 3).
    dead_vehicles: Tuple[Point, ...] = ()
    #: Vehicles that never initiate their own computations (scenario 2).
    suppressed: Tuple[Point, ...] = ()
    #: Vehicles whose failure detector lies (gossip monitoring; see
    #: :attr:`repro.distsim.failures.FailurePlan.byzantine_watchers`).
    byzantine_watchers: Tuple[Point, ...] = ()
    #: Timed network partitions.
    partitions: Tuple[PartitionSpec, ...] = ()
    #: Seed of the run RNG (jitter transport); ``None`` = deterministic delay.
    seed: Optional[int] = None
    #: Arrivals scheduled ahead of the clock (the streaming look-ahead).
    lookahead: int = 64
    #: Jobs per metrics window.
    window_jobs: int = 1000
    #: Windows between automatic checkpoints (``None`` = never).
    checkpoint_every: Optional[int] = None
    #: Windows retained in the live-state file.
    keep_windows: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "demand_entries", _normalize_entries(self.demand_entries))
        if not self.demand_entries:
            raise ConfigError("a service needs a non-empty demand map")
        if self.omega is not None:
            omega = float(self.omega)
            if omega <= 0 or not math.isfinite(omega):
                raise ConfigError(f"omega must be positive and finite, got {omega}")
            object.__setattr__(self, "omega", omega)
        if isinstance(self.capacity, str):
            if self.capacity != "theorem":
                raise ConfigError(f"capacity must be \"theorem\", a number, or None")
        elif self.capacity is not None:
            value = float(self.capacity)
            if value <= 0 or not math.isfinite(value):
                raise ConfigError(f"capacity must be positive and finite, got {value}")
            object.__setattr__(self, "capacity", value)
        object.__setattr__(self, "fleet", _normalize_fleet(self.fleet))
        if not isinstance(self.recovery_rounds, int) or self.recovery_rounds < 0:
            raise ConfigError("recovery_rounds must be a non-negative integer")
        object.__setattr__(self, "transport", _normalize_transport(self.transport))
        # The failure fields normalize exactly as a FailureSpec's do.
        failures = self._failure_spec()
        object.__setattr__(self, "churn", failures.churn)
        object.__setattr__(self, "partitions", failures.partitions)
        object.__setattr__(self, "dead_vehicles", failures.crashed)
        object.__setattr__(self, "suppressed", failures.suppressed)
        object.__setattr__(self, "byzantine_watchers", failures.byzantine_watchers)
        if self.seed is not None and (not isinstance(self.seed, int) or self.seed < 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("lookahead", "window_jobs"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.checkpoint_every is not None and (
            not isinstance(self.checkpoint_every, int) or self.checkpoint_every < 1
        ):
            raise ConfigError("checkpoint_every must be a positive integer or None")
        if not isinstance(self.keep_windows, int) or self.keep_windows < 1:
            raise ConfigError("keep_windows must be a positive integer")

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_demand(cls, demand: DemandMap, **changes: Any) -> "ServiceConfig":
        """Wrap a concrete demand map as a service config."""
        return cls(demand_entries=tuple(demand.items()), dim=demand.dim, **changes)

    def replace(self, **changes: Any) -> "ServiceConfig":
        """A copy with fields replaced (re-validated)."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(changes)
        return ServiceConfig(**current)

    # ------------------------------------------------------------------ #
    # materialization
    # ------------------------------------------------------------------ #

    def demand(self) -> DemandMap:
        """The demand map the fleet is provisioned for."""
        return DemandMap(dict(self.demand_entries), dim=self.dim)

    def fleet_config(self) -> FleetConfig:
        """The :class:`FleetConfig` with this config's overrides applied."""
        return FleetConfig(**dict(self.fleet))

    def _failure_spec(self) -> FailureSpec:
        """The config's failure injection as a :class:`~repro.api.config.FailureSpec`."""
        return FailureSpec(
            crashed=self.dead_vehicles,
            suppressed=self.suppressed,
            partitions=self.partitions,
            churn=self.churn,
            byzantine_watchers=self.byzantine_watchers,
        )

    def failure_plan(self) -> FailurePlan:
        """A fresh network-level failure plan (suppression + partitions)."""
        return self._failure_spec().to_plan()

    # ------------------------------------------------------------------ #
    # serialization and hashing
    # ------------------------------------------------------------------ #

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "type": "service_config",
            "schema": 1,
            "demand_entries": [[list(point), value] for point, value in self.demand_entries],
            "capacity": self.capacity,
            "omega": self.omega,
            "recovery_rounds": self.recovery_rounds,
            "seed": self.seed,
            "lookahead": self.lookahead,
            "window_jobs": self.window_jobs,
            "checkpoint_every": self.checkpoint_every,
            "keep_windows": self.keep_windows,
        }
        if self.dim is not None:
            payload["dim"] = self.dim
        if self.fleet:
            payload["fleet"] = {key: value for key, value in self.fleet}
        if self.transport is not None:
            payload["transport"] = self.transport.to_json()
        if self.churn:
            payload["churn"] = [
                {"time": c.time, "vertex": list(c.vertex), "action": c.action}
                for c in self.churn
            ]
        if self.dead_vehicles:
            payload["dead_vehicles"] = [list(p) for p in self.dead_vehicles]
        if self.suppressed:
            payload["suppressed"] = [list(p) for p in self.suppressed]
        if self.byzantine_watchers:
            payload["byzantine_watchers"] = [list(p) for p in self.byzantine_watchers]
        if self.partitions:
            payload["partitions"] = [
                {"start": p.start, "end": p.end, "axis": p.axis, "boundary": p.boundary}
                for p in self.partitions
            ]
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ServiceConfig":
        # Keys this schema does not know are ignored: checkpoints written
        # when service configs carried a ``shards`` setting still load.
        if payload.get("type") != "service_config":
            raise ConfigError("payload is not a serialized service config")
        return cls(
            demand_entries=tuple((tuple(p), v) for p, v in payload["demand_entries"]),
            dim=payload.get("dim"),
            omega=payload.get("omega"),
            capacity=payload.get("capacity", "theorem"),
            fleet=payload.get("fleet", ()),
            recovery_rounds=payload.get("recovery_rounds", 0),
            transport=payload.get("transport"),
            churn=tuple(payload.get("churn", ())),
            dead_vehicles=tuple(tuple(p) for p in payload.get("dead_vehicles", ())),
            suppressed=tuple(tuple(p) for p in payload.get("suppressed", ())),
            byzantine_watchers=tuple(
                tuple(p) for p in payload.get("byzantine_watchers", ())
            ),
            partitions=tuple(payload.get("partitions", ())),
            seed=payload.get("seed"),
            lookahead=payload.get("lookahead", 64),
            window_jobs=payload.get("window_jobs", 1000),
            checkpoint_every=payload.get("checkpoint_every"),
            keep_windows=payload.get("keep_windows", 8),
        )

    def canonical_json(self) -> str:
        """Deterministic JSON text (sorted keys, no whitespace drift)."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        """Stable content hash of the config."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


#: Result fields covered by :meth:`ServiceResult.result_hash` -- the
#: *physical* outcome of the run.  Harness-side bookkeeping (windows
#: emitted, checkpoints written, whether the run was resumed) is excluded:
#: a resumed run must hash identically to the uninterrupted one.
_HASHED_FIELDS = (
    "jobs_total",
    "jobs_served",
    "feasible",
    "max_vehicle_energy",
    "total_travel",
    "total_service",
    "omega",
    "omega_star",
    "capacity",
    "theorem_capacity",
    "replacements",
    "searches",
    "failed_replacements",
    "messages",
    "messages_dropped",
    "messages_corrupted",
    "heartbeat_rounds",
    "escalations",
    "escalated_replacements",
    "adoptions",
    "hand_backs",
    "events_processed",
    "sim_time",
    "transport",
    "fleet_digest",
)


@dataclass
class ServiceResult:
    """Everything measured over one service run (or one resumed leg of it)."""

    #: Jobs dispatched to the fleet (arrival events that fired).
    jobs_total: int
    #: Jobs actually served.
    jobs_served: int
    #: Whether every dispatched job was served.
    feasible: bool
    max_vehicle_energy: float
    total_travel: float
    total_service: float
    omega: float
    omega_star: float
    capacity: Optional[float]
    theorem_capacity: float
    replacements: int
    searches: int
    failed_replacements: int
    messages: int
    messages_dropped: int
    messages_corrupted: int
    heartbeat_rounds: int
    escalations: int
    escalated_replacements: int
    adoptions: int
    hand_backs: int
    events_processed: int
    sim_time: float
    transport: str
    #: SHA-256 over the fleet's full physical state (energy ledgers,
    #: positions, working states) -- byte-identical iff the runs are.
    fleet_digest: str = ""
    #: Metrics windows emitted.
    windows: int = 0
    #: Checkpoints written during the run.
    checkpoints_written: int = 0
    #: Whether this run continued from a snapshot.
    resumed: bool = False
    #: Whether the run stopped early (``stop_after_checkpoints``); the
    #: physical fields then describe the state *at the stop point*.
    interrupted: bool = False
    #: Per-window rollup totals (equal to the batch counters by construction).
    rollup: Dict[str, Any] = field(default_factory=dict)
    #: Failure-detection mode: ``""``, ``"ring"`` or ``"gossip"``.  New
    #: observability fields below are excluded from ``result_hash`` (the
    #: explicit ``_HASHED_FIELDS`` tuple is unchanged), so pre-gossip
    #: result hashes are untouched.
    monitoring_mode: str = ""
    #: Gossip mode: quorum collections opened.
    suspicions: int = 0
    #: Gossip mode: co-signatures granted.
    attestations: int = 0
    #: Gossip mode: attestation requests declined.
    refused_attestations: int = 0
    #: Gossip mode: suspicions raised against pairs that were alive.
    false_suspicions: int = 0
    #: Crashed pairs whose detection latency was measured.
    detections: int = 0
    #: Median detection latency in heartbeat rounds (0.0 when none).
    detection_p50: float = 0.0
    #: 99th-percentile detection latency in heartbeat rounds (0.0 when none).
    detection_p99: float = 0.0

    def result_hash(self) -> str:
        """Stable hash of the physical outcome (see ``_HASHED_FIELDS``)."""
        payload = {name: getattr(self, name) for name in _HASHED_FIELDS}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def to_json(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["type"] = "service_result"
        payload["result_hash"] = self.result_hash()
        return payload

    def canonical_json(self) -> str:
        """Deterministic JSON text (sorted keys, no whitespace drift)."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ServiceResult":
        if payload.get("type") != "service_result":
            raise ConfigError("payload is not a serialized service result")
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in names})
