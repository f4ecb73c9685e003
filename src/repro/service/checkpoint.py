"""Versioned snapshots of a running service: capture, save, load, restore.

A checkpoint is taken only at a *clean boundary* (all events strictly
before the next arrival executed, nothing transient pending -- see
:meth:`repro.core.stream.StreamDriver.at_clean_point`), which is what
keeps the format small and exact:

* The calendar queue holds only arrival and churn events, both of which
  are *re-derived* (pending arrivals from the snapshot's job list, churn
  from the embedded config minus the applied set) rather than serialized
  as live events.  Re-pushing them onto a fresh queue in the original
  order reproduces their relative sequence numbers, and the queue's
  statistics are overwritten afterwards so ``events_processed`` continues
  exactly as in an uninterrupted run.
* The transport's FIFO clamp (``_last_delivery``) is dropped: at a clean
  point every recorded delivery time is ``<= now``, so the clamp
  ``max(now + delay, last)`` can never bind for any future send.
* All protocol state lives in the fleet: flat registry arrays in full,
  per-vehicle protocol fields sparsely (only vehicles that diverge from
  their constructed state), plus the pair registry, cube residency, and
  counters.  The restored fleet is *bit-identical* to the captured one,
  which the differential suite asserts end-to-end (resume-at-T equals
  uninterrupted).

JSON keeps every float exact (``repr`` round-trip), so "byte-identical"
means exactly that, not "close".
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.demand import Job
from repro.distsim.failures import ChurnSpec
from repro.io.serialize import load_json, save_json
from repro.vehicles.fleet import Fleet
from repro.vehicles.registry import WATCH_NEVER, WATCH_NONE
from repro.vehicles.state import TransferState, WorkingState

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "capture_checkpoint",
    "restore_checkpoint",
    "save_checkpoint",
    "save_rotated_checkpoint",
    "rotated_checkpoint_path",
    "load_checkpoint",
    "restore_fleet_state",
    "restore_transport_state",
    "fleet_digest",
]

CHECKPOINT_SCHEMA = "repro.service/checkpoint"
CHECKPOINT_VERSION = 1

_WORKING_BY_CODE = {0: WorkingState.IDLE, 1: WorkingState.ACTIVE, 2: WorkingState.DONE}


def _tag_to_json(tag: Tuple[Any, int]) -> List[Any]:
    return [list(tag[0]), int(tag[1])]


def _tag_from_json(raw: Any) -> Tuple[Any, int]:
    return (tuple(raw[0]), int(raw[1]))


# --------------------------------------------------------------------- #
# fleet state
# --------------------------------------------------------------------- #


def _vehicle_entry(fleet: Fleet, index: int, vehicle) -> Dict[str, Any]:
    """The sparse protocol-state record of one vehicle (empty = untouched)."""
    entry: Dict[str, Any] = {}
    if vehicle.jobs_served:
        entry["jobs_served"] = vehicle.jobs_served
    if vehicle.engaged_tag is not None:
        entry["engaged_tag"] = _tag_to_json(vehicle.engaged_tag)
    if vehicle.last_tag is not None:
        entry["last_tag"] = _tag_to_json(vehicle.last_tag)
    if vehicle.parent is not None:
        entry["parent"] = list(vehicle.parent)
    if vehicle.child is not None:
        entry["child"] = list(vehicle.child)
    if vehicle.deficit:
        entry["deficit"] = vehicle.deficit
    if vehicle.initiated:
        entry["initiated"] = [
            [_tag_to_json(tag), [list(info["destination"]), list(info["pair_key"])]]
            for tag, info in vehicle.initiated.items()
        ]
    if vehicle.last_heard:
        entry["last_heard"] = [
            [list(pair), round_id] for pair, round_id in vehicle.last_heard.items()
        ]
    if vehicle._engaged_tag_seen is not None:
        entry["engaged_tag_seen"] = _tag_to_json(vehicle._engaged_tag_seen)
    if vehicle._engaged_rounds:
        entry["engaged_rounds"] = vehicle._engaged_rounds
    if vehicle.adopted_pairs:
        entry["adopted_pairs"] = [list(p) for p in vehicle.adopted_pairs]
    if vehicle.escalations:
        entry["escalations"] = [
            [
                _tag_to_json(tag),
                {
                    "rings": [[list(m) for m in ring] for ring in esc["rings"]],
                    "level": esc["level"],
                    "pending": esc["pending"],
                    "candidates": [
                        [bool(spare), list(identity), list(pos) if pos else None]
                        for spare, identity, pos in esc["candidates"]
                    ],
                    "rounds": esc["rounds"],
                },
            ]
            for tag, esc in vehicle.escalations.items()
        ]
    if vehicle.status.transfer != TransferState.WAITING:
        entry["transfer"] = vehicle.status.transfer.value
    if vehicle._gossip_counter:
        entry["gossip_counter"] = vehicle._gossip_counter
    if vehicle.gossip_reports:
        entry["gossip_reports"] = [
            [
                list(pair),
                [[list(reporter), round_id] for reporter, round_id in sorted(reporters.items())],
            ]
            for pair, reporters in sorted(vehicle.gossip_reports.items())
        ]
    if vehicle.pending_suspicions:
        entry["pending_suspicions"] = [
            [
                list(pair),
                {
                    "granted": [list(g) for g in sorted(pending["granted"])],
                    "round": pending["round"],
                },
            ]
            for pair, pending in sorted(vehicle.pending_suspicions.items())
        ]
    original_pair = fleet.flat.pair_keys[fleet.flat.vehicle_pair[index]]
    if vehicle.pair_key != original_pair:
        # Takeovers may have rehomed the vehicle; its communication graph
        # was computed from the position it held *at rehoming time* and
        # cannot be re-derived from the drifted current position, so the
        # residency is serialized verbatim.
        entry["residency"] = {
            "cube_index": list(vehicle.cube_index),
            "neighbors": [list(n) for n in vehicle.neighbors],
            "cube_peers": [list(p) for p in vehicle.cube_peers],
        }
    return entry


def _fleet_state(fleet: Fleet) -> Dict[str, Any]:
    flat = fleet.flat
    vehicles: Dict[str, Any] = {}
    pair_live: List[int] = []
    for index, identity in enumerate(flat.identities):
        vehicle = fleet.vehicles[identity]
        pair_live.append(
            flat.pair_id_of[vehicle.pair_key] if vehicle.pair_key is not None else -1
        )
        entry = _vehicle_entry(fleet, index, vehicle)
        if entry:
            vehicles[str(index)] = entry
    return {
        "travel": list(flat.travel),
        "service": list(flat.service),
        "state": list(flat.state),
        "broken": list(flat.broken),
        "watch": list(flat.watch),
        "positions": [list(p) for p in flat.positions],
        "pair_live": pair_live,
        "registry": [
            [list(pair), list(identity)] for pair, identity in sorted(fleet.registry.items())
        ],
        "cube_members": [
            [list(index), [list(m) for m in members]]
            for index, members in sorted(fleet._cube_members.items())
        ],
        "stats": dataclasses.asdict(fleet.stats),
        "computation_round": fleet._computation_round,
        "heartbeat_round": fleet._heartbeat_round,
        "monitoring_baseline": fleet.monitoring_baseline,
        "crash_rounds": [
            [list(pair), round_id] for pair, round_id in sorted(fleet._crash_rounds.items())
        ],
        "detection_digest": fleet.detection_digest.to_json(),
        "vehicles": vehicles,
    }


def restore_fleet_state(fleet: Fleet, payload: Dict[str, Any]) -> None:
    """Overlay a captured fleet state onto a freshly constructed fleet."""
    from array import array

    flat = fleet.flat
    flat.travel[:] = array("d", payload["travel"])
    flat.service[:] = array("d", payload["service"])
    flat.state[:] = array("b", payload["state"])
    flat.broken[:] = array("b", payload["broken"])
    flat.watch[:] = array("q", payload["watch"])
    flat.positions[:] = [tuple(p) for p in payload["positions"]]

    pair_live = payload["pair_live"]
    for index, identity in enumerate(flat.identities):
        vehicle = fleet.vehicles[identity]
        # Direct field writes: the status dataclass validates *transitions*,
        # not states, and the registry arrays were already restored above
        # (the observer that mirrors them must not fire twice).
        vehicle.status.working = _WORKING_BY_CODE[flat.state[index]]
        vehicle.status.transfer = TransferState.WAITING
        vehicle.broken = bool(flat.broken[index])
        vehicle.pair_key = (
            flat.pair_keys[pair_live[index]] if pair_live[index] >= 0 else None
        )
        vehicle._monitored_pair = (
            flat.pair_keys[flat.watch[index]] if flat.watch[index] >= 0 else None
        )
        vehicle.jobs_served = 0
        vehicle.engaged_tag = None
        vehicle.last_tag = None
        vehicle.parent = None
        vehicle.child = None
        vehicle.deficit = 0
        vehicle.initiated = {}
        vehicle.last_heard = {}
        vehicle._engaged_tag_seen = None
        vehicle._engaged_rounds = 0
        vehicle.adopted_pairs = []
        vehicle.escalations = {}
        vehicle._gossip_counter = 0
        vehicle.gossip_reports = {}
        vehicle.pending_suspicions = {}

    for index_str, entry in payload["vehicles"].items():
        vehicle = fleet.vehicles[flat.identities[int(index_str)]]
        vehicle.jobs_served = entry.get("jobs_served", 0)
        if "engaged_tag" in entry:
            vehicle.engaged_tag = _tag_from_json(entry["engaged_tag"])
        if "last_tag" in entry:
            vehicle.last_tag = _tag_from_json(entry["last_tag"])
        if "parent" in entry:
            vehicle.parent = tuple(entry["parent"])
        if "child" in entry:
            vehicle.child = tuple(entry["child"])
        vehicle.deficit = entry.get("deficit", 0)
        if "initiated" in entry:
            vehicle.initiated = {
                _tag_from_json(tag): {
                    "destination": tuple(info[0]),
                    "pair_key": tuple(info[1]),
                }
                for tag, info in entry["initiated"]
            }
        if "last_heard" in entry:
            vehicle.last_heard = {
                tuple(pair): round_id for pair, round_id in entry["last_heard"]
            }
        if "engaged_tag_seen" in entry:
            vehicle._engaged_tag_seen = _tag_from_json(entry["engaged_tag_seen"])
        vehicle._engaged_rounds = entry.get("engaged_rounds", 0)
        if "adopted_pairs" in entry:
            vehicle.adopted_pairs = [tuple(p) for p in entry["adopted_pairs"]]
        if "escalations" in entry:
            vehicle.escalations = {
                _tag_from_json(tag): {
                    "rings": [[tuple(m) for m in ring] for ring in esc["rings"]],
                    "level": esc["level"],
                    "pending": esc["pending"],
                    "candidates": [
                        (spare, tuple(identity), tuple(pos) if pos else None)
                        for spare, identity, pos in esc["candidates"]
                    ],
                    "rounds": esc["rounds"],
                }
                for tag, esc in entry["escalations"]
            }
        if "transfer" in entry:
            vehicle.status.transfer = TransferState(entry["transfer"])
        vehicle._gossip_counter = entry.get("gossip_counter", 0)
        if "gossip_reports" in entry:
            vehicle.gossip_reports = {
                tuple(pair): {
                    tuple(reporter): round_id for reporter, round_id in reporters
                }
                for pair, reporters in entry["gossip_reports"]
            }
        if "pending_suspicions" in entry:
            vehicle.pending_suspicions = {
                tuple(pair): {
                    "granted": {tuple(g) for g in pending["granted"]},
                    "round": pending["round"],
                }
                for pair, pending in entry["pending_suspicions"]
            }
        if "residency" in entry:
            residency = entry["residency"]
            vehicle.cube_index = tuple(residency["cube_index"])
            vehicle.coloring = fleet.colorings[vehicle.cube_index]
            vehicle.neighbors = [tuple(n) for n in residency["neighbors"]]
            vehicle.cube_peers = [tuple(p) for p in residency["cube_peers"]]

    # The engaged set and the watch-heard mirror are not serialized (the
    # snapshot format predates them); both are pure functions of the
    # restored per-vehicle state, so rebuild them deterministically.
    flat.engaged.clear()
    for index, identity in enumerate(flat.identities):
        vehicle = fleet.vehicles[identity]
        if (
            vehicle._engaged_tag is not None
            or vehicle.escalations
            or vehicle._engaged_rounds
            or vehicle._engaged_tag_seen is not None
        ):
            flat.engaged.add(index)
        monitored = vehicle._monitored_pair
        flat.watch_heard[index] = (
            WATCH_NONE
            if monitored is None
            else vehicle.last_heard.get(monitored, WATCH_NEVER)
        )

    fleet.registry.clear()
    fleet.registry.update(
        (tuple(pair), tuple(identity)) for pair, identity in payload["registry"]
    )
    fleet._cube_members.clear()
    fleet._cube_members.update(
        (tuple(index), [tuple(m) for m in members])
        for index, members in payload["cube_members"]
    )
    for name, value in payload["stats"].items():
        setattr(fleet.stats, name, value)
    fleet._computation_round = payload["computation_round"]
    fleet._heartbeat_round = payload["heartbeat_round"]
    fleet.monitoring_baseline = payload["monitoring_baseline"]
    fleet._crash_rounds = {
        tuple(pair): round_id for pair, round_id in payload.get("crash_rounds", ())
    }
    if "detection_digest" in payload:
        from repro.service.metrics import LatencyDigest

        fleet.detection_digest = LatencyDigest.from_json(payload["detection_digest"])


def fleet_digest(fleet: Fleet) -> str:
    """SHA-256 over the fleet's complete captured state.

    Two runs have equal digests iff their physical *and* protocol state is
    byte-identical -- the strongest equality the differential suite checks.
    """
    text = json.dumps(_fleet_state(fleet), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# transport / rng state
# --------------------------------------------------------------------- #


def _transport_state(transport) -> Optional[Dict[str, Any]]:
    if transport is None:
        return None
    payload: Dict[str, Any] = {
        "kind": transport.kind,
        "messages_scheduled": transport.messages_scheduled,
        "messages_dropped": transport.messages_dropped,
        "messages_corrupted": transport.messages_corrupted,
    }
    rng = getattr(transport, "_rng", None)
    if isinstance(rng, np.random.Generator):
        payload["rng"] = rng.bit_generator.state
    for name in ("retransmissions", "attempts_lost"):
        if hasattr(transport, name):
            payload[name] = getattr(transport, name)
    streams = transport.stream_state() if hasattr(transport, "stream_state") else None
    if streams is not None:
        payload["streams"] = streams
    inner = getattr(transport, "inner", None)
    if inner is not None:
        payload["inner"] = _transport_state(inner)
    return payload


def restore_transport_state(transport, payload: Optional[Dict[str, Any]]) -> None:
    """Overlay captured transport counters/streams onto a fresh transport."""
    if transport is None or payload is None:
        return
    if payload["kind"] != transport.kind:
        raise ValueError(
            f"snapshot transport kind {payload['kind']!r} does not match "
            f"the rebuilt {transport.kind!r}"
        )
    transport.messages_scheduled = payload["messages_scheduled"]
    transport.messages_dropped = payload["messages_dropped"]
    transport.messages_corrupted = payload["messages_corrupted"]
    rng = getattr(transport, "_rng", None)
    if isinstance(rng, np.random.Generator) and "rng" in payload:
        rng.bit_generator.state = payload["rng"]
    for name in ("retransmissions", "attempts_lost"):
        if name in payload and hasattr(transport, name):
            setattr(transport, name, payload[name])
    if "streams" in payload and hasattr(transport, "restore_stream_state"):
        transport.restore_stream_state(payload["streams"])
    inner = getattr(transport, "inner", None)
    if inner is not None:
        restore_transport_state(inner, payload.get("inner"))


# --------------------------------------------------------------------- #
# the snapshot
# --------------------------------------------------------------------- #


def capture_checkpoint(
    config,
    driver,
    *,
    rng: Optional[np.random.Generator] = None,
    recorder=None,
) -> Dict[str, Any]:
    """Snapshot a service run at a clean boundary (see module docstring)."""
    fleet = driver.fleet
    simulator = fleet.simulator
    plan = fleet.failure_plan
    stats = simulator.queue.stats
    payload: Dict[str, Any] = {
        "schema": CHECKPOINT_SCHEMA,
        "version": CHECKPOINT_VERSION,
        "config": config.to_json(),
        "clock": simulator.now,
        "jobs": {
            "consumed": driver.consumed,
            "dispatched": driver.dispatched,
            "served": driver.served,
        },
        "pending_arrivals": [
            [index, job.time, list(job.position), job.energy]
            for index, job in driver.pending_arrivals()
        ],
        "churn_applied": [
            [spec.time, list(spec.vertex), spec.action]
            for spec in sorted(
                driver.churn_applied, key=lambda c: (c.time, c.vertex, c.action)
            )
        ],
        "event_stats": {
            "scheduled": stats.scheduled,
            "executed": stats.executed,
            "cancelled_skipped": stats.cancelled_skipped,
        },
        "network": {
            "messages_sent": fleet.network.messages_sent,
            "messages_delivered": fleet.network.messages_delivered,
            "messages_dropped": fleet.network.messages_dropped,
        },
        "transport": _transport_state(fleet.network.transport),
        "rng": rng.bit_generator.state if rng is not None else None,
        "failure_plan": {
            "crashed": sorted([list(p) for p in plan.crashed]),
            "initiation_suppressed": sorted(
                [list(p) for p in plan.initiation_suppressed]
            ),
            "dropped_count": plan.dropped_count,
            "partition_dropped_count": plan.partition_dropped_count,
            "clock": plan.clock,
            "byzantine_watchers": sorted(
                [list(p) for p in plan.byzantine_watchers]
            ),
        },
        "fleet": _fleet_state(fleet),
    }
    if recorder is not None:
        payload["metrics"] = recorder.state_to_json()
    return payload


def restore_checkpoint(
    fleet: Fleet, snapshot: Dict[str, Any], rng: Optional[np.random.Generator] = None
) -> None:
    """Overlay a snapshot's simulation state onto a freshly provisioned fleet.

    The inverse of :func:`capture_checkpoint` for everything the fleet
    owns: the clock, the fleet and transport state, the network counters,
    the run RNG and the failure plan's mutable sets and counters.  Driver
    state (pending arrivals, applied churn, event statistics) and metrics
    state stay with the caller.
    """
    fleet.simulator.clock.advance(snapshot["clock"])
    restore_fleet_state(fleet, snapshot["fleet"])
    restore_transport_state(fleet.network.transport, snapshot["transport"])
    network = snapshot["network"]
    fleet.network.messages_sent = network["messages_sent"]
    fleet.network.messages_delivered = network["messages_delivered"]
    fleet.network.messages_dropped = network["messages_dropped"]
    if rng is not None and snapshot["rng"] is not None:
        rng.bit_generator.state = snapshot["rng"]
    plan = fleet.failure_plan
    plan_state = snapshot["failure_plan"]
    plan.crashed = {tuple(p) for p in plan_state["crashed"]}
    plan.initiation_suppressed = {tuple(p) for p in plan_state["initiation_suppressed"]}
    plan.dropped_count = plan_state["dropped_count"]
    plan.partition_dropped_count = plan_state["partition_dropped_count"]
    plan.clock = plan_state["clock"]
    plan.byzantine_watchers = {
        tuple(p) for p in plan_state.get("byzantine_watchers", ())
    }


def save_checkpoint(payload: Dict[str, Any], path) -> None:
    """Write a snapshot atomically (:func:`repro.io.serialize.save_json`)."""
    save_json(payload, path)


def rotated_checkpoint_path(path, ordinal: int) -> Path:
    """The rotation slot for the snapshot taken after window ``ordinal``.

    ``checkpoint.json`` at window 12 becomes ``checkpoint.w00000012.json``;
    the zero-padded ordinal makes lexicographic order equal numeric order,
    which is what keeps pruning deterministic.
    """
    path = Path(path)
    return path.with_name(f"{path.stem}.w{ordinal:08d}{path.suffix}")


def save_rotated_checkpoint(payload: Dict[str, Any], path, *, ordinal: int, keep: int) -> Path:
    """Write a snapshot to its rotation slot and prune older slots.

    The latest snapshot is *also* written to ``path`` itself, so every
    resume flow that points at the un-numbered path keeps working; the
    numbered siblings retain the last ``keep`` snapshots for resuming
    from an older point (e.g. after a corrupted latest write).  Ordinals
    are the recorder's window index -- monotonic across resumed legs, so
    a resumed run rotates into fresh slots instead of colliding with the
    previous leg's files.
    """
    if keep < 1:
        raise ValueError(f"keep must be at least 1, got {keep}")
    path = Path(path)
    slot = rotated_checkpoint_path(path, ordinal)
    save_json(payload, slot)
    save_json(payload, path)
    pattern = f"{path.stem}.w????????{path.suffix}"
    slots = sorted(path.parent.glob(pattern))
    for stale in slots[: max(0, len(slots) - keep)]:
        stale.unlink()
    return slot


def load_checkpoint(source) -> Dict[str, Any]:
    """Load and validate a snapshot (a path, or an already-parsed payload)."""
    payload = source if isinstance(source, dict) else load_json(source)
    if payload.get("schema") != CHECKPOINT_SCHEMA:
        raise ValueError(f"not a service checkpoint: schema {payload.get('schema')!r}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {payload.get('version')!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    return payload


def pending_jobs_from_json(payload: Dict[str, Any]) -> List[Tuple[int, Job]]:
    """The snapshot's scheduled-but-not-dispatched arrivals, as ``(index, Job)``."""
    return [
        (index, Job(time=time, position=tuple(position), energy=energy))
        for index, time, position, energy in payload["pending_arrivals"]
    ]


def churn_applied_from_json(payload: Dict[str, Any]) -> set:
    """The already-applied churn specs recorded in a snapshot."""
    return {
        ChurnSpec(time=time, vertex=tuple(vertex), action=action)
        for time, vertex, action in payload["churn_applied"]
    }
