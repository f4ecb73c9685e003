"""The online simulation harness (Chapter 3 / Theorem 1.4.2).

:func:`run_online` plays a timed job sequence against the decentralized
strategy of Section 3.2: jobs are revealed one at a time, each is served by
the active vehicle of its black/white pair, exhausted vehicles are replaced
through Phase I/II diffusing computations, and (optionally) the monitoring
loop of Section 3.2.5 recovers from initiation failures and dead vehicles.

Both drivers now run on the same event clock:

* ``engine="events"`` (the default): arrivals, heartbeat ticks, churn and
  partition windows are all scheduled on the fleet's discrete-event
  simulator at the jobs' arrival times; protocol messages interleave in
  timestamp order.  This is the asynchronous system the paper actually
  analyzes, and the only driver under which timed failures and non-trivial
  transports (latency, loss, corruption) have a meaningful clock position.
* ``engine="rounds"``: a thin adapter over the same clock that schedules
  each job as a *round barrier* event and settles the network to quiescence
  inside the barrier -- the historical lockstep "deliver, settle,
  heartbeat" semantics, byte-identical to the pre-adapter rounds driver on
  failure-free runs (the conformance tests assert both the adapter/event
  equivalence and the physical fingerprint).

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
import heapq
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
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.demand import DemandMap, JobSequence
from repro.core.offline import online_upper_bound_factor
from repro.core.omega import demand_cube_maxima, omega_c, omega_star_cubes
from repro.core.plan import plan_window
from repro.distsim.failures import ChurnSpec, FailurePlan, apply_churn
from repro.distsim.parallel_lockstep import (
    merge_parallel_lockstep_results,
    parallel_lockstep_eligibility,
    run_parallel_lockstep,
)
from repro.distsim.sharding import ShardPlan
from repro.distsim.transport import Transport, TransportSpec, build_transport
from repro.grid.cubes import CubeGrid, CubeHierarchy
from repro.grid.lattice import Point
from repro.vehicles.fleet import Fleet, FleetConfig

__all__ = ["OnlineResult", "run_online", "provision_fleet", "ONLINE_ENGINES"]

#: Sharded-run mode selection is logged here (bench numbers must be
#: attributable to the mode that actually ran).
_LOG = logging.getLogger("repro.distsim.sharding")

CapacitySpec = Union[None, float, Literal["theorem"]]

#: The two harness drivers (see the module docstring); the first is the default.
ONLINE_ENGINES = ("events", "rounds")

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
    #: Which harness driver produced the result.
    engine: str = "events"
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


def _serve_with_recovery(
    fleet: Fleet,
    config: FleetConfig,
    job,
    recovery_rounds: int,
) -> bool:
    """Round-mode service: deliver, recover via heartbeat rounds, then tick."""
    served = fleet.deliver_job(job.position, job.energy)
    if not served and recovery_rounds > 0 and config.monitoring:
        for _ in range(recovery_rounds):
            fleet.run_heartbeat_round()
        served = fleet.retry_job(job.position, job.energy)
    if config.monitoring:
        fleet.run_heartbeat_round()
    return served


def _churn_hooks(fleet: Fleet):
    """The leave/join callbacks both drivers feed to :func:`apply_churn`.

    Vertices that host no vehicle in this run are ignored, mirroring the
    ``dead_vehicles`` contract.
    """

    def leave(vertex: Point) -> None:
        if vertex in fleet.vehicles:
            fleet.crash_vehicle(vertex)

    def join(vertex: Point) -> None:
        if vertex in fleet.vehicles:
            fleet.revive_vehicle(vertex)

    return leave, join


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
    rng: Optional[np.random.Generator] = None,
    failure_plan: Optional[FailurePlan] = None,
    dead_vehicles: Optional[Iterable[Sequence[int]]] = None,
    transport: Optional[Transport] = None,
    escalation: Optional[bool] = None,
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
    overrides: Dict[str, object] = {"capacity": provisioned}
    if escalation is not None:
        overrides["escalation"] = bool(escalation)
    fleet_config = dataclasses.replace(base, **overrides)
    fleet = Fleet(
        demand,
        omega,
        fleet_config,
        rng=rng,
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


def _schedule_churn(
    fleet: Fleet,
    churn: Sequence[ChurnSpec],
    plan: FailurePlan,
    churn_applied: Set[ChurnSpec],
) -> None:
    """Schedule every not-yet-applied churn event on the fleet's clock.

    Specs already in ``churn_applied`` are skipped (a resumed run re-schedules
    only its remaining churn); the rest are pushed in the canonical
    ``(time, vertex, action)`` order so same-time events keep their relative
    sequence across batch, streaming, and resumed runs.
    """
    simulator = fleet.simulator
    leave, join = _churn_hooks(fleet)
    for spec in sorted(churn, key=lambda e: (e.time, e.vertex, e.action)):
        if spec in churn_applied:
            continue

        def _churn_event(spec: ChurnSpec = spec) -> None:
            plan.set_time(simulator.now)
            apply_churn([spec], simulator.now, churn_applied, leave=leave, join=join)

        simulator.schedule_at(spec.time, _churn_event, kind="churn")


def _arrival_logic(
    fleet: Fleet,
    fleet_config: FleetConfig,
    plan: FailurePlan,
    recovery_rounds: int,
    record,
):
    """The event-mode per-job service logic, shared by batch and streaming.

    Returns ``make_handler(index, job)`` producing the zero-argument arrival
    action the calendar queue executes.  ``record(index, job, latency)`` is
    called once per *successfully served* job -- immediately on delivery
    (latency 0) or from the recovery retry (latency = retry delay); a job
    whose retry also fails is never recorded.
    """
    simulator = fleet.simulator

    def _heartbeat() -> None:
        fleet.run_heartbeat_round(settle=False)

    def _arrival(index: int, job, pair_key) -> None:
        plan.set_time(simulator.now)
        if fleet.deliver_job(job.position, job.energy, settle=False, pair_key=pair_key):
            record(index, job, simulator.now - job.time)
            if fleet_config.monitoring:
                _heartbeat()
            return
        if recovery_rounds > 0 and fleet_config.monitoring:
            # Recovery must happen *on the clock*: each heartbeat round is a
            # scheduled event so its protocol messages (watch initiations,
            # Phase I/II replacements) are delivered before the retry fires
            # -- all strictly before the next arrival at +1.  The whole
            # recovery window goes to the calendar queue as one batch.
            spacing = 0.5 / recovery_rounds
            now = simulator.now
            simulator.schedule_batch(
                (
                    (now + spacing * round_index, _heartbeat)
                    for round_index in range(1, recovery_rounds + 1)
                ),
                kind="heartbeat",
            )

            def _retry(index: int = index, job=job) -> None:
                if fleet.retry_job(job.position, job.energy, settle=False):
                    record(index, job, simulator.now - job.time)

            simulator.schedule(0.7, _retry, kind="retry")
            simulator.schedule(0.8, _heartbeat, kind="heartbeat")
        elif fleet_config.monitoring:
            _heartbeat()

    def make_handler(index: int, job, pair_key=None):
        def _handler() -> None:
            _arrival(index, job, pair_key)

        return _handler

    return make_handler


def _run_rounds(
    fleet: Fleet,
    fleet_config: FleetConfig,
    jobs: JobSequence,
    recovery_rounds: int,
    churn: Sequence[ChurnSpec],
    plan: FailurePlan,
) -> int:
    """The lockstep driver as a thin adapter over the event clock.

    Each job becomes one *round barrier* event scheduled at the job's
    arrival time; the barrier delivers the job, runs the recovery heartbeat
    rounds, and settles the network to quiescence before the next barrier
    is scheduled -- exactly the historical "deliver, settle, heartbeat"
    sequence, so the physical outcome (energies, messages, counters) is
    byte-identical to the pre-adapter rounds driver on failure-free runs.
    The only difference is that the barriers now *live on the clock*: the
    simulation time of a round-mode run advances through the jobs' arrival
    times instead of idling near zero.
    """
    simulator = fleet.simulator
    served_count = 0
    churn_applied: Set[ChurnSpec] = set()
    leave, join = _churn_hooks(fleet)

    for job in jobs:
        served = False

        def _barrier(job=job) -> None:
            nonlocal served
            plan.set_time(job.time)
            apply_churn(churn, job.time, churn_applied, leave=leave, join=join)
            served = _serve_with_recovery(fleet, fleet_config, job, recovery_rounds)

        # A message storm may already have pushed the clock past this job's
        # arrival time; the barrier then fires immediately (the failure
        # clock still uses job.time, as the lockstep driver always did).
        simulator.schedule_at(max(job.time, simulator.now), _barrier, kind="round-barrier")
        simulator.run_until_quiescent()
        if served:
            served_count += 1
    return served_count


def _run_events(
    fleet: Fleet,
    fleet_config: FleetConfig,
    jobs: JobSequence,
    recovery_rounds: int,
    churn: Sequence[ChurnSpec],
    plan: FailurePlan,
    *,
    foreign_times: Sequence[float] = (),
) -> int:
    """The event driver: arrivals and failure windows on the simulator clock.

    ``foreign_times`` are arrival times of jobs owned by *other* shards in
    a multi-process run: each becomes a *tick* event replaying the
    reference arrival's fleet-wide bookkeeping prefix -- advance the
    failure clock, and (when monitoring) run the global heartbeat round
    over this fleet's vehicles -- so the worker's clocks and round numbers
    match the single-process run event for event.  Ticks join the arrival
    batch in one merged time-sorted schedule, putting them first in their
    time bucket exactly as the arrivals they mirror are in the reference.

    Each job becomes an arrival event at its ``job.time``; churn events are
    scheduled at their own times; the failure clock tracks the simulation
    clock, so partition windows activate exactly when the clock enters
    them.  Protocol messages drain between arrivals in timestamp order
    (message delays are assumed small against the inter-arrival gap, which
    is the thesis's standing assumption).
    """
    simulator = fleet.simulator
    served: List[bool] = [False] * len(jobs)
    churn_applied: Set[ChurnSpec] = set()
    _schedule_churn(fleet, churn, plan, churn_applied)

    def record(index: int, job, latency: float) -> None:
        served[index] = True

    make_handler = _arrival_logic(fleet, fleet_config, plan, recovery_rounds, record)

    # The whole arrival sequence goes to the calendar queue in one call,
    # pre-routed with a single vectorized position->pair lookup.
    routed = fleet.route_positions([job.position for job in jobs])
    arrival_entries = (
        (job.time, make_handler(index, job, routed[index]))
        for index, job in enumerate(jobs)
    )
    if foreign_times:

        def _tick() -> None:
            # The bookkeeping prefix/suffix of a foreign shard's arrival
            # (mirrors ``_arrival_logic``): failure clock, then the global
            # heartbeat round -- recovery_rounds == 0 is an eligibility
            # precondition, so the round runs unconditionally.
            plan.set_time(simulator.now)
            if fleet_config.monitoring:
                fleet.run_heartbeat_round(settle=False)

        entries = heapq.merge(
            arrival_entries,
            ((time, _tick) for time in foreign_times),
            key=lambda entry: entry[0],
        )
    else:
        entries = arrival_entries
    simulator.schedule_batch(entries, kind="arrival")
    simulator.run_until_quiescent()
    return sum(served)


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
        try:
            cube = tuple(
                (int(c) - int(low)) // self.cube_side
                for c, low in zip(vertex, self.window.lo)
            )
            if any(c < 0 for c in cube):
                return default
            return int(self.shard_lut[cube])
        except (IndexError, TypeError, ValueError):
            return default


def _fleet_counters(fleet: Fleet) -> Dict[str, Any]:
    """One fleet's run counters, keyed by :class:`OnlineResult` field name.

    Plain picklable data: the single-process tail and every shard worker
    call this, and :func:`merge_parallel_lockstep_results` combines the
    worker copies key by key -- so a new counter is one new result field
    plus one line here.
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
    }


def _online_result(
    jobs_total: int, counters: Dict[str, Any], config: FleetConfig, **run: Any
) -> OnlineResult:
    """The one :class:`OnlineResult` constructor.

    ``counters`` holds the measured fields (``jobs_served`` plus what
    :func:`_fleet_counters` reports, energies and totals, and any shard
    timings or detection digests); ``run`` holds the run-level fields
    (omega, capacities, engine, transport, shard mode).  The resolved
    fleet ``config`` supplies the escalation flag and monitoring mode.
    """
    monitoring = config.monitoring
    return OnlineResult(
        jobs_total=jobs_total,
        feasible=counters["jobs_served"] == jobs_total,
        escalation=config.escalation,
        monitoring_mode=(
            "gossip" if monitoring == "gossip" else ("ring" if monitoring else "")
        ),
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
    rng: Optional[np.random.Generator] = None,
    failure_plan: Optional[FailurePlan] = None,
    dead_vehicles: Optional[Iterable[Sequence[int]]] = None,
    recovery_rounds: int = 0,
    churn: Optional[Iterable[ChurnSpec]] = None,
    engine: str = "events",
    transport: Union[Transport, TransportSpec, str, None] = None,
    escalation: Optional[bool] = None,
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
    engine:
        ``"events"`` (the event-driven driver, the default) or ``"rounds"``
        (the lockstep compatibility adapter; see the module docstring).
    transport:
        The message delivery model: a
        :class:`~repro.distsim.transport.Transport` instance (single-use),
        a :class:`~repro.distsim.transport.TransportSpec`, or a bare kind
        name such as ``"lossy"``.  Defaults to the historical channel
        (fixed ``config.message_delay``, randomized when ``rng`` is given).
    escalation:
        Whether an exhausted Phase I search may escalate through the cube
        hierarchy (cross-cube replacement; see
        :class:`~repro.vehicles.fleet.FleetConfig`).  ``None`` keeps the
        ``config``'s setting.
    shards:
        Partition the run into this many cube-aligned shards (see
        :mod:`repro.distsim.sharding`).  The result is byte-identical to
        the ``shards=1`` run.  Configurations whose protocol traffic stays
        inside each shard -- no escalation, gossip, recovery rounds or
        shared random stream; crashes, partitions, churn, ring monitoring
        and edge-stream transports are fine -- fan out to one worker
        process per shard (``"parallel-lockstep"``, see
        :mod:`repro.distsim.parallel_lockstep`); everything else runs the
        one global fleet single-process (``"single-process"``).  The mode
        that ran (and, for the single-process fallback, the first
        disqualifying feature) is recorded on the result as
        ``shard_mode`` / ``shard_mode_reason`` and logged under
        ``repro.distsim.sharding``.  Requires ``engine="events"``.
    shard_workers:
        Concurrency cap for the worker processes (default: one process per
        non-empty shard, up to the CPU count).  Results are identical at
        any worker count.
    """
    if engine not in ONLINE_ENGINES:
        raise ValueError(f"engine must be one of {ONLINE_ENGINES}, got {engine!r}")
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise ValueError(f"shards must be a positive integer, got {shards!r}")
    if shards > 1 and engine != "events":
        raise ValueError("sharded runs require engine='events'")
    transport_instance = build_transport(transport)
    # A provisioned fleet reports the channel its network actually built
    # (the shared-rng jitter default, say); everything else reports this.
    transport_kind = (
        transport_instance.kind if transport_instance is not None else "reliable"
    )
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
            FleetConfig(),
            omega=0.0,
            omega_star=0.0,
            capacity=None,
            theorem_capacity=0.0,
            engine=engine,
            transport=transport_kind,
        )

    memo = _omega_memo_entry(jobs)
    if "demand" not in memo:
        memo["demand"] = jobs.demand_map()
    demand = memo["demand"]
    # omega_c and omega_star share one sliding-window sweep (the dominant
    # provisioning cost at the 10^5-vehicle scale), memoized per sequence.
    if (omega is None and "omega_c" not in memo) or "omega_star" not in memo:
        if "cube_maxima" not in memo:
            memo["cube_maxima"] = demand_cube_maxima(demand)
    if omega is None:
        if "omega_c" not in memo:
            memo["omega_c"] = omega_c(demand, maxima=memo["cube_maxima"])
        omega = memo["omega_c"]
    if omega <= 0:
        raise ValueError("omega must be positive for a non-empty job sequence")
    if "omega_star" not in memo:
        memo["omega_star"] = omega_star_cubes(
            demand, maxima=memo["cube_maxima"]
        ).omega
    omega_star = memo["omega_star"]

    churn_events = tuple(churn) if churn is not None else ()
    shard_mode = ""
    shard_mode_reason = ""
    if shards > 1:
        eligible, shard_mode_reason = parallel_lockstep_eligibility(
            transport,
            transport_instance,
            config,
            rng,
            failure_plan,
            recovery_rounds,
            escalation,
        )
        shard_mode = "parallel-lockstep" if eligible else "single-process"
        _LOG.info(
            "run_online shards=%d mode=%s%s",
            shards,
            shard_mode,
            f" ({shard_mode_reason})" if shard_mode_reason else "",
        )
    # The run-level escalation override is resolved *before* pickling: a
    # worker provisions straight from this config, so it must already
    # carry the setting the reference fleet would run with.
    base = config if config is not None else FleetConfig()
    if escalation is not None:
        base = dataclasses.replace(base, escalation=bool(escalation))
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
            rng=rng,
            failure_plan=failure_plan,
            dead_vehicles=dead_vehicles,
            transport=transport_instance,
        )
        driver = _run_events if engine == "events" else _run_rounds
        served = driver(
            fleet, fleet_config, jobs, recovery_rounds, churn_events, fleet.failure_plan
        )
        counters = _fleet_counters(fleet)
        digest = fleet.detection_digest
        counters.update(
            jobs_served=served,
            total_travel=fleet.total_travel(),
            total_service=fleet.total_service(),
            vehicle_energies=fleet.vehicle_energies(),
            detections=int(digest.count),
            detection_p50=digest.quantile(0.5) if digest.count else 0.0,
            detection_p99=digest.quantile(0.99) if digest.count else 0.0,
        )
        transport_kind = fleet.transport_kind

    return _online_result(
        len(jobs),
        counters,
        base,
        omega=float(omega),
        omega_star=omega_star,
        capacity=provisioned,
        theorem_capacity=theorem_capacity,
        engine=engine,
        transport=transport_kind,
        shards=shards,
        shard_mode=shard_mode,
        shard_mode_reason=shard_mode_reason,
    )
