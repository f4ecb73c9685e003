"""The online simulation harness (Chapter 3 / Theorem 1.4.2).

:func:`run_online` plays a timed job sequence against the decentralized
strategy of Section 3.2: jobs are revealed one at a time, each is served by
the active vehicle of its black/white pair, exhausted vehicles are replaced
through Phase I/II diffusing computations, and (optionally) the monitoring
loop of Section 3.2.5 recovers from initiation failures and dead vehicles.

There is one arrival driver, :class:`~repro.core.stream.StreamDriver`:
arrivals, heartbeat ticks, churn and partition windows are all scheduled
on the fleet's discrete-event simulator at the jobs' arrival times, and
protocol messages interleave in timestamp order.  This is the
asynchronous system the paper analyzes; a lockstep round is only one
admissible schedule of it.  ``run_online``, every parallel-lockstep shard
worker and the streaming service (:mod:`repro.service`) drive their fleet
through that one driver and share the provisioning and counter helpers
below, so a finite service run equals the batch run by construction.

Message delivery itself is owned by a pluggable
:class:`~repro.distsim.transport.Transport`; pass ``transport=`` (an
instance, a :class:`~repro.distsim.transport.TransportSpec`, or a bare kind
name) to run the protocol over latency jitter, seeded loss, or Byzantine
corruption.

Failure timing (``FailurePlan`` partitions, churn schedules) is expressed
on the *job clock*: job ``k`` of a sequence built by
``JobSequence.from_positions`` arrives at time ``k + 1``.

The harness reports everything Theorem 1.4.2 talks about: whether every job
was served, the largest per-vehicle energy actually drawn (the empirical
``W_on``), the provisioned capacity, and the offline lower bound it should
be compared against.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import weakref
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Literal,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.demand import DemandMap, JobSequence
from repro.core.offline import online_upper_bound_factor
from repro.core.omega import demand_cube_maxima, omega_c, omega_star_cubes
from repro.core.plan import plan_window
from repro.core.stream import StreamDriver, frozen_heap
from repro.distsim.failures import ChurnSpec, FailurePlan
from repro.distsim.parallel_lockstep import (
    merge_parallel_lockstep_results,
    owning_shard,
    parallel_lockstep_eligibility,
    run_parallel_lockstep,
)
from repro.distsim.sharding import ShardPlan
from repro.distsim.transport import Transport, TransportSpec, build_transport
from repro.grid.cubes import CubeGrid, CubeHierarchy
from repro.grid.lattice import Point
from repro.vehicles.fleet import Fleet, FleetConfig

__all__ = [
    "OnlineResult",
    "run_online",
    "provision_fleet",
    "resolve_omega",
    "monitoring_mode",
]

#: Sharded-run mode selection is logged here (bench numbers must be
#: attributable to the mode that actually ran).
_LOG = logging.getLogger("repro.distsim.sharding")

CapacitySpec = Union[None, float, Literal["theorem"]]

#: Identity-keyed memo of the omega quantities per job sequence, each
#: computed lazily (a run with an explicit ``omega=`` never needs
#: ``omega_c`` at all).  Sequences are immutable by convention and
#: sweeps/benchmarks replay the same one many times, so each cube
#: maximization is paid at most once per workload instead of once per run.
#: The stored length guards the common violation of that convention
#: (extending ``jobs.jobs`` in place triggers a fresh computation); a
#: same-length in-place element swap is NOT detected -- sequences are
#: immutable by contract, the guard is a cheap backstop, not a content
#: hash.  Entries are evicted when the sequence is garbage-collected
#: (``weakref.finalize``), so the memo cannot leak.
_OMEGA_MEMO: Dict[int, Dict[str, float]] = {}


def _omega_memo_entry(jobs: JobSequence) -> Dict[str, float]:
    key = id(jobs)
    entry = _OMEGA_MEMO.get(key)
    if entry is None or entry["len"] != len(jobs):
        if entry is None:
            weakref.finalize(jobs, _OMEGA_MEMO.pop, key, None)
        entry = {"len": len(jobs)}
        _OMEGA_MEMO[key] = entry
    return entry


def resolve_omega(
    demand: DemandMap,
    omega: Optional[float] = None,
    memo: Optional[Dict[str, Any]] = None,
) -> Tuple[float, float]:
    """``(omega, omega_star)`` for a demand map, from one shared sweep.

    ``omega=None`` resolves to ``omega_c``, as the thesis's provisioning
    does.  ``omega_c`` and ``omega_star`` share one sliding-window sweep
    (:func:`~repro.core.omega.demand_cube_maxima`, the dominant
    provisioning cost at the 10^5-vehicle scale), and an explicit omega
    never computes ``omega_c`` at all.  ``memo`` caches the sweep and both
    quantities across calls (``run_online`` keeps one per job sequence).
    """
    memo = {} if memo is None else memo
    if (omega is None and "omega_c" not in memo) or "omega_star" not in memo:
        if "cube_maxima" not in memo:
            memo["cube_maxima"] = demand_cube_maxima(demand)
    if omega is None:
        if "omega_c" not in memo:
            memo["omega_c"] = omega_c(demand, maxima=memo["cube_maxima"])
        omega = memo["omega_c"]
    if omega <= 0:
        raise ValueError("omega must be positive for a non-empty demand")
    if "omega_star" not in memo:
        memo["omega_star"] = omega_star_cubes(demand, maxima=memo["cube_maxima"]).omega
    return omega, memo["omega_star"]


def monitoring_mode(config: FleetConfig) -> str:
    """The failure-detection mode a fleet config runs: ``""``, ``"ring"`` or ``"gossip"``."""
    if config.monitoring == "gossip":
        return "gossip"
    return "ring" if config.monitoring else ""


@dataclass
class OnlineResult:
    """Everything measured during one online run."""

    #: Number of jobs in the input sequence.
    jobs_total: int
    #: Jobs actually served (equal to ``jobs_total`` iff the run is feasible).
    jobs_served: int
    #: Whether every job was served by an adjacent active vehicle.
    feasible: bool
    #: Largest per-vehicle energy drawn -- the empirical online requirement.
    max_vehicle_energy: float
    #: Total travel energy across the fleet.
    total_travel: float
    #: Total service energy across the fleet.
    total_service: float
    #: The omega value the strategy partitioned the lattice with.
    omega: float
    #: The offline lower bound ``max_T omega_T`` (over cubes) for this demand.
    omega_star: float
    #: Capacity provisioned per vehicle (``None`` = unbounded measurement).
    capacity: Optional[float]
    #: The Lemma 3.3.1 capacity ``(4 * 3^l + l) * omega``.
    theorem_capacity: float
    #: Protocol counters.
    replacements: int
    searches: int
    failed_replacements: int
    messages: int
    heartbeat_rounds: int
    #: Per-vehicle energies at the end of the run (home vertex -> energy).
    vehicle_energies: Dict[Point, float] = field(default_factory=dict)
    #: Simulator events executed during the run (messages, arrivals, ticks).
    events_processed: int = 0
    #: Final simulation-clock time.
    sim_time: float = 0.0
    #: Registry name of the message transport the run used.
    transport: str = "reliable"
    #: Messages lost to failures or the transport.
    messages_dropped: int = 0
    #: Messages the transport mutated in flight (Byzantine corruption).
    messages_corrupted: int = 0
    #: Whether cross-cube escalation was enabled for the run.
    escalation: bool = False
    #: Phase I searches that escalated past their own cube.
    escalations: int = 0
    #: Replacements found by an escalated (cross-cube) round.
    escalated_replacements: int = 0
    #: Far pairs adopted by active vehicles with spare battery.
    adoptions: int = 0
    #: Adopted pairs handed back to their revived owners.
    hand_backs: int = 0
    #: Shards the run was asked to partition into (1 = unsharded).
    shards: int = 1
    #: Wall-clock seconds per worker shard (multi-process runs only).
    shard_timings: Dict[int, float] = field(default_factory=dict)
    #: How a sharded run executed: ``""`` (unsharded),
    #: ``"parallel-lockstep"`` (one worker process per shard, see
    #: :mod:`repro.distsim.parallel_lockstep`), or ``"single-process"``
    #: (the configuration couples shards, so one global fleet ran).
    shard_mode: str = ""
    #: The first disqualifying feature that forced a single-process run
    #: (empty when the workers ran, or when unsharded).
    shard_mode_reason: str = ""
    #: Failure-detection mode the run used: ``""`` (monitoring off),
    #: ``"ring"`` (Section 3.2.5 single-watcher loop) or ``"gossip"``
    #: (epidemic detector with quorum-attested replacement).
    monitoring_mode: str = ""
    #: Gossip mode: quorum collections opened (SuspectMessage broadcasts).
    suspicions: int = 0
    #: Gossip mode: co-signatures granted by attesters.
    attestations: int = 0
    #: Gossip mode: attestation requests declined (withheld signatures).
    refused_attestations: int = 0
    #: Gossip mode: suspicions raised against pairs that were in fact alive.
    false_suspicions: int = 0
    #: Crashed pairs whose detection latency was measured (crash tick to
    #: first attested replacement initiation, in heartbeat rounds).
    detections: int = 0
    #: Median detection latency in heartbeat rounds (0.0 when none).
    detection_p50: float = 0.0
    #: 99th-percentile detection latency in heartbeat rounds (0.0 when none).
    detection_p99: float = 0.0

    @property
    def online_to_offline_ratio(self) -> float:
        """``max_vehicle_energy / omega_star`` -- the constant Theorem 1.4.2 bounds.

        A degenerate scenario with ``omega_star == 0`` but positive energy
        spent violates *any* multiplicative bound, so it reports ``inf``
        rather than masquerading as meeting the Theorem 1.4.2 constant;
        only a run that spent nothing against a zero bound is a clean 1.0.
        """
        if self.omega_star == 0:
            return math.inf if self.max_vehicle_energy > 0 else 1.0
        return self.max_vehicle_energy / self.omega_star


def _resolve_capacity(
    demand: DemandMap, omega: float, capacity: CapacitySpec
) -> Tuple[Optional[float], float]:
    """``(provisioned, theorem_capacity)``: the Lemma 3.3.1 budget
    ``(4 * 3^l + l) * omega`` and what each vehicle actually gets."""
    theorem_capacity = online_upper_bound_factor(demand.dim) * omega
    provisioned = theorem_capacity if capacity == "theorem" else capacity
    return provisioned, theorem_capacity


def provision_fleet(
    demand: DemandMap,
    *,
    omega: float,
    capacity: CapacitySpec = "theorem",
    config: Optional[FleetConfig] = None,
    failure_plan: Optional[FailurePlan] = None,
    dead_vehicles: Optional[Iterable[Sequence[int]]] = None,
    transport: Optional[Transport] = None,
    window=None,
) -> Tuple[Fleet, FleetConfig, Optional[float], float]:
    """Build the fleet a driver runs against, exactly as :func:`run_online` does.

    ``omega`` must already be resolved (``run_online`` memoizes ``omega_c``
    per sequence; a streaming caller computes it from the demand map once).
    Returns ``(fleet, fleet_config, provisioned, theorem_capacity)`` --
    construction order and the dead-vehicle crash sweep are shared with the
    batch path so a service run provisions a byte-identical fleet.

    ``window`` overrides the planned lattice window: a sharded worker
    building a sub-fleet over a restricted demand passes the global run's
    window so cube geometry matches the single-process run.
    """
    provisioned, theorem_capacity = _resolve_capacity(demand, omega, capacity)
    base = config if config is not None else FleetConfig()
    fleet_config = dataclasses.replace(base, capacity=provisioned)
    fleet = Fleet(
        demand,
        omega,
        fleet_config,
        failure_plan=failure_plan,
        transport=transport,
        window=window,
    )
    if dead_vehicles is not None:
        # Scenario 3: these vehicles are dead from the start -- they cannot
        # move, serve, or heartbeat, but their radios still relay protocol
        # messages (communication is free in the thesis's model), so the
        # monitoring loop can replace them.  Points that host no vehicle in
        # this run are ignored.
        for identity in sorted({tuple(int(c) for c in p) for p in dead_vehicles}):
            if identity in fleet.vehicles:
                fleet.crash_vehicle(identity)
    return fleet, fleet_config, provisioned, theorem_capacity


class _ShardPartition:
    """The shared geometry split of the multi-process modes.

    Replicates the single-process geometry (cube side, planned window,
    hierarchy) *without* building the global fleet, then splits demand
    entries and jobs by owning shard.  Cube membership and shard routing
    are vectorized: a scalar ``grid.cube_index`` per point costs more than
    the worker runs at the 10^5 scale, so points and job positions reduce
    to cube multi-indices in one array op each, and a dense cube-lattice
    lookup table turns cube -> shard into a single fancy-index.
    """

    def __init__(
        self, jobs: JobSequence, demand: DemandMap, omega: float, shards: int
    ) -> None:
        self.shards = shards
        self.cube_side = max(1, int(math.ceil(omega)))
        self.window = plan_window(demand, self.cube_side)
        grid = CubeGrid(self.window, self.cube_side)
        hierarchy = CubeHierarchy(grid)

        entries = demand.as_dict()
        self._lo = np.asarray(self.window.lo, dtype=np.int64)
        points = np.asarray(list(entries), dtype=np.int64)
        point_cubes = (points - self._lo) // self.cube_side
        occupied = {tuple(row) for row in np.unique(point_cubes, axis=0).tolist()}
        self.plan = ShardPlan(hierarchy, shards, cubes=occupied)

        lut_shape = tuple(
            (hi - low) // self.cube_side + 1
            for low, hi in zip(self.window.lo, self.window.hi)
        )
        self.shard_lut = np.zeros(lut_shape, dtype=np.int64)
        for shard in range(shards):
            for index in self.plan.cubes_of(shard):
                self.shard_lut[index] = shard

        point_shards = self.shard_lut[tuple(point_cubes.T)].tolist()
        self.entries_by_shard: List[List[Tuple[Point, float]]] = [
            [] for _ in range(shards)
        ]
        for (point, value), shard in zip(entries.items(), point_shards):
            self.entries_by_shard[shard].append((point, value))

        job_positions = np.asarray([job.position for job in jobs], dtype=np.int64)
        job_cubes = (job_positions - self._lo) // self.cube_side
        self.job_shards: List[int] = self.shard_lut[tuple(job_cubes.T)].tolist()
        self.jobs_by_shard: List[List[Tuple[float, Point, float]]] = [
            [] for _ in range(shards)
        ]
        for job, shard in zip(jobs, self.job_shards):
            self.jobs_by_shard[shard].append((job.time, job.position, job.energy))

    def shard_of_vertex(self, vertex: Sequence[int], default: int) -> int:
        """The shard owning a lattice vertex's cube (``default`` off-grid)."""
        owner = owning_shard(self.shard_lut, self.window.lo, self.cube_side, vertex)
        return default if owner is None else owner


def _fleet_counters(fleet: Fleet) -> Dict[str, Any]:
    """One fleet's run counters, keyed by :class:`OnlineResult` field name.

    Plain picklable data: the single-process tail, every shard worker and
    the service harness call this (every key is also a
    :class:`~repro.api.service.ServiceResult` field), and
    :func:`merge_parallel_lockstep_results` combines the worker copies key
    by key -- so a new counter is one new result field plus one line here.
    """
    stats = fleet.stats
    simulator = fleet.simulator
    return {
        "max_vehicle_energy": fleet.max_energy_used(),
        "replacements": stats.replacements,
        "searches": stats.searches_started,
        "failed_replacements": stats.failed_replacements,
        "messages": fleet.messages_sent(),
        "heartbeat_rounds": stats.heartbeat_rounds,
        "events_processed": simulator.events_processed,
        "sim_time": simulator.now,
        "messages_dropped": fleet.messages_dropped(),
        "messages_corrupted": fleet.messages_corrupted(),
        "escalations": stats.escalations_started,
        "escalated_replacements": stats.escalated_replacements,
        "adoptions": stats.adoptions,
        "suspicions": stats.suspicions,
        "attestations": stats.attestations,
        "refused_attestations": stats.refused_attestations,
        "false_suspicions": stats.false_suspicions,
        "hand_backs": stats.hand_backs,
    }


def _detection_counters(fleet: Fleet) -> Dict[str, Any]:
    """The fleet's detection-latency digest: count, p50 and p99 (0.0 when empty).

    A single-fleet sketch: multi-process runs report none by design.
    """
    digest = fleet.detection_digest
    return {
        "detections": int(digest.count),
        "detection_p50": digest.quantile(0.5) if digest.count else 0.0,
        "detection_p99": digest.quantile(0.99) if digest.count else 0.0,
    }


def _online_result(
    jobs_total: int, counters: Dict[str, Any], config: FleetConfig, **run: Any
) -> OnlineResult:
    """The one :class:`OnlineResult` constructor.

    ``counters`` holds the measured fields (``jobs_served`` plus what
    :func:`_fleet_counters` reports, energies and totals, and any shard
    timings or detection digests); ``run`` holds the run-level fields
    (omega, capacities, transport, shard mode).  The resolved fleet
    ``config`` supplies the escalation flag and monitoring mode.
    """
    return OnlineResult(
        jobs_total=jobs_total,
        feasible=counters["jobs_served"] == jobs_total,
        escalation=config.escalation,
        monitoring_mode=monitoring_mode(config),
        **counters,
        **run,
    )


def _shard_payloads(
    jobs: JobSequence,
    demand: DemandMap,
    omega: float,
    provisioned: Optional[float],
    config: FleetConfig,
    transport: Union[TransportSpec, str, None],
    shards: int,
    failure_plan: Optional[FailurePlan],
    dead_vehicles: Optional[Iterable[Sequence[int]]],
    churn_events: Sequence[ChurnSpec],
) -> List[Dict[str, Any]]:
    """One worker payload per non-empty shard of a multi-process run.

    Beyond the demand/job split (:class:`_ShardPartition`), each payload
    carries the resolved fleet config, the pickled failure plan, the full
    dead-vehicle and churn lists (foreign entries no-op), and -- when the
    run needs fleet-wide clock/round replication (monitoring or timed
    partitions) -- the arrival times of every *other* shard's jobs,
    replayed as tick events (see :mod:`repro.distsim.parallel_lockstep`).
    """
    split = _ShardPartition(jobs, demand, omega, shards)
    transport_payload = (
        transport.to_json() if isinstance(transport, TransportSpec) else transport
    )
    spawned = [shard for shard in range(shards) if split.entries_by_shard[shard]]
    first_spawned = spawned[0] if spawned else 0
    partitions = failure_plan.partitions if failure_plan is not None else []
    # Clock/round replication is needed exactly when some fleet-wide state
    # advances inside arrival events: the heartbeat round counter
    # (monitoring) or the failure clock consulted by partition windows.
    replicate = bool(config.monitoring) or bool(partitions)

    churn_sorted = tuple(
        sorted(churn_events, key=lambda e: (e.time, e.vertex, e.action))
    )
    churn_owner = [
        split.shard_of_vertex(spec.vertex, first_spawned) for spec in churn_sorted
    ]
    dead = (
        sorted({tuple(int(c) for c in p) for p in dead_vehicles})
        if dead_vehicles is not None
        else None
    )
    job_times = [job.time for job in jobs]
    return [
        {
            "shard": shard,
            "entries": split.entries_by_shard[shard],
            "dim": demand.dim,
            "window_lo": split.window.lo,
            "window_hi": split.window.hi,
            "omega": float(omega),
            "capacity": provisioned,
            "config": config,
            "transport": transport_payload,
            "jobs": split.jobs_by_shard[shard],
            "foreign_times": (
                [
                    time
                    for time, owner in zip(job_times, split.job_shards)
                    if owner != shard
                ]
                if replicate
                else []
            ),
            "failure_plan": failure_plan,
            "dead": dead,
            "churn": churn_sorted,
            "churn_owned": sum(1 for owner in churn_owner if owner == shard),
            "shard_lut": split.shard_lut,
            "cube_side": split.cube_side,
        }
        for shard in spawned
    ]


def run_online(
    jobs: JobSequence,
    *,
    omega: Optional[float] = None,
    capacity: CapacitySpec = "theorem",
    config: Optional[FleetConfig] = None,
    failure_plan: Optional[FailurePlan] = None,
    dead_vehicles: Optional[Iterable[Sequence[int]]] = None,
    recovery_rounds: int = 0,
    churn: Optional[Iterable[ChurnSpec]] = None,
    transport: Union[Transport, TransportSpec, str, None] = None,
    shards: int = 1,
    shard_workers: Optional[int] = None,
) -> OnlineResult:
    """Run the online strategy on a job sequence.

    Parameters
    ----------
    jobs:
        The timed job sequence (revealed to the fleet one job at a time).
    omega:
        The cube-partition parameter.  Defaults to ``omega_c`` of the
        sequence's demand map, as the thesis's provisioning does.
    capacity:
        ``"theorem"`` provisions every vehicle with the Lemma 3.3.1 budget
        ``(4 * 3^l + l) * omega``; a float provisions that amount; ``None``
        runs with unbounded batteries and merely measures the energy drawn.
    config:
        Fleet configuration; its ``capacity`` field is overridden by the
        ``capacity`` argument.
    failure_plan:
        Crash / suppression / partition injection for the failure-scenario
        experiments.  Partition windows are expressed on the job clock.
    dead_vehicles:
        Home vertices of vehicles that are broken from the start (scenario
        3); dead vehicles cannot act but their radios still relay.
    recovery_rounds:
        When a job cannot be served immediately (its pair's vehicle is dead
        or out of energy), run this many heartbeat rounds -- letting the
        monitoring loop install a replacement -- and retry once.  Requires
        ``config.monitoring``.
    churn:
        Timed :class:`~repro.distsim.failures.ChurnSpec` events (vehicles
        leaving and rejoining), expressed on the job clock.  Vertices that
        host no vehicle in this run are ignored.
    transport:
        The message delivery model: a
        :class:`~repro.distsim.transport.Transport` instance (single-use),
        a :class:`~repro.distsim.transport.TransportSpec`, or a bare kind
        name such as ``"lossy"``.  Defaults to the paper's reliable channel
        with the fixed ``config.message_delay``.
    shards:
        Partition the run into this many cube-aligned shards (see
        :mod:`repro.distsim.sharding`).  The result is byte-identical to
        the ``shards=1`` run.  Configurations whose protocol traffic stays
        inside each shard -- no escalation, recovery rounds or caller-owned
        transport instance; crashes, partitions, churn, ring and gossip
        monitoring, the default channel and every spec-built transport are
        fine -- fan out to one worker process per shard
        (``"parallel-lockstep"``, see
        :mod:`repro.distsim.parallel_lockstep`); everything else runs the
        one global fleet single-process (``"single-process"``).  The mode
        that ran (and, for the single-process fallback, the first
        disqualifying feature) is recorded on the result as
        ``shard_mode`` / ``shard_mode_reason`` and logged under
        ``repro.distsim.sharding``.
    shard_workers:
        Concurrency cap for the worker processes (default: one process per
        non-empty shard, up to the CPU count).  Results are identical at
        any worker count.
    """
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise ValueError(f"shards must be a positive integer, got {shards!r}")
    transport_instance = build_transport(transport)
    transport_kind = (
        transport_instance.kind if transport_instance is not None else "reliable"
    )
    base = config if config is not None else FleetConfig()
    if len(jobs) == 0:
        nothing = {
            "jobs_served": 0,
            "max_vehicle_energy": 0.0,
            "total_travel": 0.0,
            "total_service": 0.0,
            "replacements": 0,
            "searches": 0,
            "failed_replacements": 0,
            "messages": 0,
            "heartbeat_rounds": 0,
        }
        return _online_result(
            0,
            nothing,
            base,
            omega=0.0,
            omega_star=0.0,
            capacity=None,
            theorem_capacity=0.0,
            transport=transport_kind,
        )

    memo = _omega_memo_entry(jobs)
    if "demand" not in memo:
        memo["demand"] = jobs.demand_map()
    demand = memo["demand"]
    omega, omega_star = resolve_omega(demand, omega, memo)

    churn_events = tuple(churn) if churn is not None else ()
    shard_mode = ""
    shard_mode_reason = ""
    if shards > 1:
        eligible, shard_mode_reason = parallel_lockstep_eligibility(
            transport,
            config,
            failure_plan,
            recovery_rounds,
        )
        shard_mode = "parallel-lockstep" if eligible else "single-process"
        _LOG.info(
            "run_online shards=%d mode=%s%s",
            shards,
            shard_mode,
            f" ({shard_mode_reason})" if shard_mode_reason else "",
        )
    provisioned, theorem_capacity = _resolve_capacity(demand, omega, capacity)

    if shard_mode == "parallel-lockstep":
        payloads = _shard_payloads(
            jobs,
            demand,
            omega,
            provisioned,
            base,
            transport,
            shards,
            failure_plan,
            dead_vehicles,
            churn_events,
        )
        # Detection-latency digests are a single-fleet sketch: multi-process
        # runs report none by design.
        counters = merge_parallel_lockstep_results(
            run_parallel_lockstep(payloads, workers=shard_workers)
        )
    else:
        fleet, fleet_config, _, _ = provision_fleet(
            demand,
            omega=omega,
            capacity=capacity,
            config=base,
            failure_plan=failure_plan,
            dead_vehicles=dead_vehicles,
            transport=transport_instance,
        )
        with frozen_heap():
            served = StreamDriver(
                fleet,
                fleet_config,
                fleet.failure_plan,
                jobs,
                recovery_rounds=recovery_rounds,
                churn=churn_events,
            ).run()
            counters = _fleet_counters(fleet)
            counters.update(
                _detection_counters(fleet),
                jobs_served=served,
                total_travel=fleet.total_travel(),
                total_service=fleet.total_service(),
                vehicle_energies=fleet.vehicle_energies(),
            )

    return _online_result(
        len(jobs),
        counters,
        base,
        omega=float(omega),
        omega_star=omega_star,
        capacity=provisioned,
        theorem_capacity=theorem_capacity,
        transport=transport_kind,
        shards=shards,
        shard_mode=shard_mode,
        shard_mode_reason=shard_mode_reason,
    )
