"""The multi-process shard engine: closed per-shard sub-simulations.

The paper's Section 3.2 protocol is local to each cube, so a sharded run
either splits into closed per-shard sub-simulations or does not split at
all.  This module is the engine for runs that split (``shard_mode ==
"parallel-lockstep"``):

* **Monitoring without escalation.**  With ``FleetConfig.escalation`` off
  the fleet builds no hierarchical watch ring: heartbeats flow between
  cube-local watch pairs, Phase I/II replacement is intra-cube, and the
  engaged-set round tick touches only local vehicles.  Every logical send
  therefore stays inside the cube that owns both endpoints -- and cubes are
  exactly what :class:`~repro.distsim.sharding.ShardPlan` assigns whole to
  shards -- so no message ever crosses a shard and each worker runs its
  sub-fleet to quiescence on its own.
* **Crashes, initiation suppression, partitions, churn.**  The
  :class:`~repro.distsim.failures.FailurePlan` is declarative (sets of
  identities, timed partition windows, churn specs), so it partitions by
  owning shard trivially; what does *not* partition is the failure
  **clock** and the fleet-wide heartbeat **round numbering**, which the
  reference run advances inside every arrival event.  Workers replicate
  them: every foreign arrival time is scheduled as a *tick* event (advance
  the failure clock; run the global heartbeat round over the local
  vehicles) and every churn spec is scheduled in every shard (foreign
  vertices no-op through the ``vertex in fleet.vehicles`` guard).  Each
  shard then executes exactly the reference event sequence restricted to
  its own vehicles, with identical clocks and round numbers -- byte
  identity follows, and the replicated bookkeeping events are subtracted
  from the merged ``events_processed``.
* **Spec-built transports.**  Every transport a spec or kind name builds
  is a function of the edge: latencies are fixed or keyed per edge, and
  ``LossyTransport`` / ``CorruptingTransport`` derive their draws from
  ``(seed, purpose, sender, destination, message counter)`` through the
  counter-based mix of :mod:`repro.distsim.keyed`, keyed on identities
  rather than dense registry indices (which differ between sub-fleets),
  so each worker rebuilds the spec and reproduces the single-process
  draws of its edges.
* **Gossip monitoring.**  Digests, suspicions and attestations all go to
  members of the sender's own cube, and peer draws are keyed per vehicle,
  so a gossip round stays inside each shard exactly as a ring round does.

Everything outside the class -- escalation (replacement migrates vehicles
*between* shards), ``recovery_rounds`` (conditional mid-run global rounds
that cannot be precomputed per shard), caller-owned transport instances,
closure drop rules -- is rejected by :func:`parallel_lockstep_eligibility`
with the first disqualifying feature as a human-readable reason;
``run_online`` then runs the one global fleet single-process and records
that reason, so bench numbers can't silently be misread as parallel.

Workers enforce the zero-boundary-traffic claim through their registry at
no per-send cost: a worker registers only its own shard's vehicles, so a
send to a vehicle another shard owns is an unknown destination, which the
worker re-raises as an error naming both shards -- any future eligibility
bug fails loudly instead of silently diverging.
:func:`merge_parallel_lockstep_results` reassembles the per-cube state in
global lex order, so even float summation order matches the single-process
run bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.distsim.failures import FailurePlan

__all__ = [
    "parallel_lockstep_eligibility",
    "owning_shard",
    "run_parallel_lockstep",
    "merge_parallel_lockstep_results",
]

#: Worker counters merged by maximum instead of by sum: every shard runs
#: every global heartbeat round (replicated), and clocks and the largest
#: per-vehicle energy are maxima by nature.
_MAX_MERGED = frozenset({"max_vehicle_energy", "heartbeat_rounds", "sim_time"})


def parallel_lockstep_eligibility(
    transport,
    config,
    failure_plan: Optional[FailurePlan],
    recovery_rounds: int,
) -> Tuple[bool, str]:
    """Whether a sharded run may fan out to per-shard worker processes.

    Returns ``(eligible, reason)`` where ``reason`` names the *first*
    disqualifying feature (empty when eligible) -- recorded on the result
    so a single-process fallback is always attributable.  The checks
    mirror the structural argument in the module docstring: anything that
    would generate cross-shard traffic or fail to pickle into a worker
    process disqualifies.
    """
    if config is not None and config.escalation:
        return (
            False,
            "escalation: cross-cube replacement migrates vehicles between shards",
        )
    if recovery_rounds != 0:
        return (
            False,
            "recovery_rounds: conditional mid-run heartbeat rounds cannot be "
            "precomputed per shard",
        )
    if failure_plan is not None and failure_plan.drop_predicates:
        return (
            False,
            "failure-plan drop predicates: arbitrary callables do not pickle "
            "into worker processes",
        )
    if transport is None:
        return (True, "")  # the fixed-delay reliable default, rebuilt per worker
    from repro.distsim.transport import TransportSpec

    if not isinstance(transport, (str, TransportSpec)):
        return (
            False,
            "caller-owned transport instance: workers need a rebuildable "
            "spec or kind name",
        )
    return (True, "")


def owning_shard(lut, lo: Sequence[int], side: int, vertex: Any) -> Optional[int]:
    """The shard owning ``vertex``'s cube, or ``None`` off the lookup table.

    ``lut`` is the dense cube -> shard table of a run whose cube lattice of
    side ``side`` is anchored at window corner ``lo``.
    """
    try:
        cube = tuple((int(c) - int(low)) // side for c, low in zip(vertex, lo))
    except (TypeError, ValueError):
        return None
    if len(cube) != lut.ndim or any(not 0 <= c < n for c, n in zip(cube, lut.shape)):
        return None
    return int(lut[cube])


def _parallel_lockstep_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one shard's sub-fleet to quiescence.

    Rebuilds the sub-fleet from plain picklable data (demand entries,
    resolved omega and capacity, the fleet config, the *global* window
    corners, the failure plan and dead-vehicle sweep, a rebuildable
    transport description) and schedules the shard's jobs, every churn
    spec (foreign vertices no-op) and -- when the run needs clock/round
    replication -- one *tick* event per foreign arrival time.  Only the
    shard's own vehicles are registered, so a cross-shard send raises
    :class:`~repro.distsim.network.UnknownDestination`; the worker
    re-raises it as a ``RuntimeError`` naming its shard, the destination
    and the shard that owns it.  Harness imports stay lazy: distsim sits
    below the vehicle protocol and must not depend on it at import time.
    """
    import time as _time

    from repro.core.demand import DemandMap, Job
    from repro.core.online import _fleet_counters, provision_fleet
    from repro.core.stream import StreamDriver, frozen_heap
    from repro.distsim.network import UnknownDestination
    from repro.distsim.transport import TransportSpec
    from repro.grid.lattice import Box

    start = _time.perf_counter()
    demand = DemandMap(
        {tuple(point): value for point, value in payload["entries"]},
        dim=payload["dim"],
    )
    window = Box(tuple(payload["window_lo"]), tuple(payload["window_hi"]))
    transport = payload["transport"]
    if isinstance(transport, dict):
        transport = TransportSpec.from_json(transport).build()
    elif isinstance(transport, str):
        transport = TransportSpec(kind=transport).build()
    fleet, fleet_config, _, _ = provision_fleet(
        demand,
        omega=payload["omega"],
        capacity=payload["capacity"],
        config=payload["config"],
        failure_plan=payload["failure_plan"],
        dead_vehicles=payload["dead"],
        transport=transport,
        window=window,
    )
    with frozen_heap():
        # Positions pickled straight out of valid Job objects: the trusted
        # constructor skips the per-job validation, which dominates the
        # rebuild at 10^5 jobs; the driver pulls them lazily.
        jobs = (
            Job.trusted(time, tuple(position), energy)
            for time, position, energy in payload["jobs"]
        )
        try:
            served = StreamDriver(
                fleet,
                fleet_config,
                fleet.failure_plan,
                jobs,
                churn=payload["churn"],
                ticks=payload["foreign_times"],
            ).run()
        except UnknownDestination as error:
            destination = error.destination
            owner = owning_shard(
                payload["shard_lut"], payload["window_lo"], payload["cube_side"], destination
            )
            raise RuntimeError(
                f"shard isolation violated: shard {payload['shard']} sent to "
                f"{destination!r}, owned by shard {owner}; this configuration "
                "should have run single-process"
            ) from error

        counters = _fleet_counters(fleet)
        counters["jobs_served"] = served
        # Replicated bookkeeping events (foreign-arrival ticks, churn specs
        # owned by other shards) execute once per shard but once in the
        # reference run; subtract them so merged events sum to the reference.
        counters["events_processed"] -= len(payload["foreign_times"]) + (
            len(payload["churn"]) - payload["churn_owned"]
        )

        # Per-cube state segments in the worker's creation (= lex) order: the
        # merge re-sorts segments globally so merged travel/service sums
        # replay the single-process float-addition order exactly.
        flat = fleet.flat
        segments = []
        for index, cube_id in flat.cube_id_of.items():
            lo, hi = flat.cube_slices[cube_id]
            segments.append(
                (
                    index,
                    flat.identities[lo:hi],
                    list(flat.travel[lo:hi]),
                    list(flat.service[lo:hi]),
                )
            )
    return {
        "shard": payload["shard"],
        "counters": counters,
        "segments": segments,
        "elapsed": _time.perf_counter() - start,
    }


def run_parallel_lockstep(
    payloads: Sequence[Dict[str, Any]], *, workers: Optional[int] = None
) -> List[Dict[str, Any]]:
    """One :func:`_parallel_lockstep_worker` per payload, in a process pool.

    A single payload runs inline; results come back in payload order
    regardless of completion order, and each worker is a closed
    deterministic sub-simulation, so the merged result is independent of
    ``workers`` (any concurrency level reproduces the same bytes).
    """
    if not payloads:
        return []
    if len(payloads) == 1:
        return [_parallel_lockstep_worker(payloads[0])]
    import os
    from concurrent.futures import ProcessPoolExecutor

    if workers is None:
        workers = min(len(payloads), os.cpu_count() or 1)
    else:
        workers = max(1, min(int(workers), len(payloads)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_parallel_lockstep_worker, payloads))


def merge_parallel_lockstep_results(
    results: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Merge worker results into single-process-equivalent run counters.

    Worker counters sum, except the replicated or extremal ones in
    ``_MAX_MERGED``, which take the maximum.  The per-cube travel/service
    segments are concatenated in *global* lex cube order -- the
    single-process creation order -- before one sequential sum, so the
    merged ``total_travel``/``total_service`` floats (and the merged
    ``vehicle_energies`` insertion order) are bit-identical to the
    unsharded run's.
    """
    merged: Dict[str, Any] = {}
    for key in results[0]["counters"] if results else ():
        values = [result["counters"][key] for result in results]
        merged[key] = max(values) if key in _MAX_MERGED else sum(values)

    segments = sorted(
        (segment for result in results for segment in result["segments"]),
        key=lambda segment: segment[0],
    )
    total_travel = 0.0
    total_service = 0.0
    vehicle_energies: Dict[Tuple[int, ...], float] = {}
    for _index, identities, travel, service in segments:
        for identity, travel_energy, service_energy in zip(identities, travel, service):
            total_travel += travel_energy
            total_service += service_energy
            vehicle_energies[tuple(identity)] = travel_energy + service_energy
    merged["total_travel"] = total_travel
    merged["total_service"] = total_service
    merged["vehicle_energies"] = vehicle_energies
    merged["shard_timings"] = {result["shard"]: result["elapsed"] for result in results}
    return merged
