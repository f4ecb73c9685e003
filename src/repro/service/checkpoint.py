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

The format is declared once, in the tables under "the format" below:
``_VEHICLE_FIELDS`` for the sparse per-vehicle entries (plus the
``transfer`` and ``residency`` branches of :func:`_vehicle_entry`), then
one name tuple per flat-array, fleet-round, failure-plan, network,
event-stats and transport section.  Capture and restore both iterate
them, so a field added to a table is written and read back alike.
Capture writes a vehicle's ``jobs_served`` from the registry's ``served``
column and runs the table walk only for the vehicles :func:`_touched`
finds with other state, which it reads without the per-vehicle
properties.  The metrics recorder's part is
:data:`repro.service.metrics._STATE_FIELDS`.

JSON keeps every float exact (``repr`` round-trip), so "byte-identical"
means exactly that, not "close".  Snapshots are written compact with
sorted keys (:func:`repro.io.atomic.compact_json`); the reader ignores
whitespace, so indented snapshots from earlier builds still resume.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from array import array
from itertools import compress, count, repeat
from operator import attrgetter, is_not
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.demand import Job
from repro.distsim.failures import ChurnSpec
from repro.io.atomic import atomic_write_json, atomic_write_text, compact_json
from repro.io.serialize import load_json
from repro.service.metrics import LatencyDigest
from repro.vehicles.fleet import Fleet
from repro.vehicles.monitoring import HEARD_AT_START
from repro.vehicles.state import TransferState, WorkingState
from repro.vehicles.vehicle import VehicleProcess

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "capture_checkpoint",
    "restore_checkpoint",
    "restore_event_stats",
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


def _read(owner, names) -> Dict[str, Any]:
    """The named attributes ``owner`` has, keyed by name."""
    return {name: getattr(owner, name) for name in names if hasattr(owner, name)}


def _write(owner, payload: Dict[str, Any], names) -> None:
    """Set each named attribute ``owner`` has back from ``payload``."""
    for name in names:
        if hasattr(owner, name):
            setattr(owner, name, payload[name])


def _tag_to_json(tag: Tuple[Any, int]) -> List[Any]:
    return [list(tag[0]), int(tag[1])]


def _tag_from_json(raw: Any) -> Tuple[Any, int]:
    return (tuple(raw[0]), int(raw[1]))


def _points_to_json(points) -> List[Any]:
    return [list(p) for p in points]


def _points_from_json(raw) -> List[Any]:
    return [tuple(p) for p in raw]


def _rounds_to_json(items) -> List[Any]:
    """``(point, round)`` items as ``[[point, round], ...]``."""
    return [[list(point), round_id] for point, round_id in items]


def _rounds_from_json(raw) -> Dict[Any, int]:
    return {tuple(point): round_id for point, round_id in raw}


def _initiated_to_json(initiated) -> List[Any]:
    return [
        [_tag_to_json(tag), [list(info["destination"]), list(info["pair_key"])]]
        for tag, info in initiated.items()
    ]


def _initiated_from_json(raw) -> Dict[Any, Dict[str, Any]]:
    return {
        _tag_from_json(tag): {"destination": tuple(destination), "pair_key": tuple(pair)}
        for tag, (destination, pair) in raw
    }


def _escalations_to_json(escalations) -> List[Any]:
    return [
        [
            _tag_to_json(tag),
            {
                "rings": [_points_to_json(ring) for ring in esc["rings"]],
                "level": esc["level"],
                "pending": esc["pending"],
                "candidates": [
                    [bool(spare), list(identity), list(pos) if pos else None]
                    for spare, identity, pos in esc["candidates"]
                ],
                "rounds": esc["rounds"],
            },
        ]
        for tag, esc in escalations.items()
    ]


def _escalations_from_json(raw) -> Dict[Any, Dict[str, Any]]:
    return {
        _tag_from_json(tag): {
            "rings": [_points_from_json(ring) for ring in esc["rings"]],
            "level": esc["level"],
            "pending": esc["pending"],
            "candidates": [
                (spare, tuple(identity), tuple(pos) if pos else None)
                for spare, identity, pos in esc["candidates"]
            ],
            "rounds": esc["rounds"],
        }
        for tag, esc in raw
    }


def _reports_to_json(reports) -> List[Any]:
    return [
        [list(pair), _rounds_to_json(sorted(reporters.items()))]
        for pair, reporters in sorted(reports.items())
    ]


def _reports_from_json(raw) -> Dict[Any, Dict[Any, int]]:
    return {tuple(pair): _rounds_from_json(reporters) for pair, reporters in raw}


def _suspicions_to_json(suspicions) -> List[Any]:
    return [
        [
            list(pair),
            {"granted": _points_to_json(sorted(pending["granted"])), "round": pending["round"]},
        ]
        for pair, pending in sorted(suspicions.items())
    ]


def _suspicions_from_json(raw) -> Dict[Any, Dict[str, Any]]:
    return {
        tuple(pair): {
            "granted": set(_points_from_json(pending["granted"])),
            "round": pending["round"],
        }
        for pair, pending in raw
    }


# --------------------------------------------------------------------- #
# the format: every snapshot section, declared once
# --------------------------------------------------------------------- #

#: A vehicle's sparse protocol fields (Algorithm 2's ``num``/``par``/
#: ``child``/``init``, monitoring, escalation and gossip bookkeeping):
#: ``(snapshot key, attribute, encode, decode)``.  The constructor leaves
#: every one falsy, so an entry carries a field only while it is truthy and
#: restore writes back just the keys present.  ``transfer`` and
#: ``residency`` are the two entry keys outside the table.
_VEHICLE_FIELDS = (
    ("jobs_served", "jobs_served", int, int),
    ("engaged_tag", "_engaged_tag", _tag_to_json, _tag_from_json),
    ("last_tag", "last_tag", _tag_to_json, _tag_from_json),
    ("parent", "parent", list, tuple),
    ("child", "child", list, tuple),
    ("deficit", "deficit", int, int),
    ("initiated", "initiated", _initiated_to_json, _initiated_from_json),
    ("last_heard", "last_heard", lambda heard: _rounds_to_json(heard.items()), _rounds_from_json),
    ("engaged_tag_seen", "_engaged_tag_seen", _tag_to_json, _tag_from_json),
    ("engaged_rounds", "_engaged_rounds", int, int),
    ("adopted_pairs", "adopted_pairs", _points_to_json, _points_from_json),
    ("escalations", "escalations", _escalations_to_json, _escalations_from_json),
    ("gossip_counter", "_gossip_counter", int, int),
    ("gossip_reports", "gossip_reports", _reports_to_json, _reports_from_json),
    ("pending_suspicions", "pending_suspicions", _suspicions_to_json, _suspicions_from_json),
)
_VEHICLE_VALUES = attrgetter(*(attribute for _, attribute, _, _ in _VEHICLE_FIELDS))
_VEHICLE_DECODE = {key: (attribute, decode) for key, attribute, _, decode in _VEHICLE_FIELDS}
#: The ``_VEHICLE_FIELDS`` values held in plain attributes, not in the
#: registry or the detector blocks: a vehicle whose values here are all
#: falsy, and whose detector row is empty, writes only its served count.
_VEHICLE_STORED_VALUES = attrgetter(
    *(
        attribute
        for _, attribute, _, _ in _VEHICLE_FIELDS
        if not isinstance(getattr(VehicleProcess, attribute, None), property)
    )
)

#: The registry's numeric arrays: ``(snapshot key, array typecode)``.
_FLAT_ARRAYS = (("travel", "d"), ("service", "d"), ("state", "b"), ("broken", "b"), ("watch", "q"))
#: The fleet's round counters: ``(snapshot key, attribute)``.
_FLEET_ROUNDS = (
    ("computation_round", "_computation_round"),
    ("heartbeat_round", "_heartbeat_round"),
)
#: The failure plan's mutable point sets (sorted lists in the snapshot)
#: and its counters.
_PLAN_SETS = ("crashed", "initiation_suppressed", "byzantine_watchers")
_PLAN_COUNTERS = ("dropped_count", "partition_dropped_count", "clock")
_NETWORK_COUNTERS = ("messages_sent", "messages_delivered", "messages_dropped")
#: Event-queue statistics: captured here, written back by the harness once
#: the resumed driver has re-pushed its arrivals (:func:`restore_event_stats`).
_EVENT_STATS = ("scheduled", "executed", "cancelled_skipped")
#: Transport counters; the last two exist on the retransmitting wrapper only.
_TRANSPORT_COUNTERS = (
    "messages_scheduled",
    "messages_dropped",
    "messages_corrupted",
    "retransmissions",
    "attempts_lost",
)


# --------------------------------------------------------------------- #
# fleet state
# --------------------------------------------------------------------- #


def _vehicle_entry(vehicle, original_pair) -> Dict[str, Any]:
    """The sparse protocol-state record of one vehicle (empty = untouched);
    ``original_pair`` is the pair it was built for."""
    entry: Dict[str, Any] = {
        key: encode(value)
        for (key, _, encode, _), value in zip(_VEHICLE_FIELDS, _VEHICLE_VALUES(vehicle))
        if value
    }
    if vehicle.status.transfer != TransferState.WAITING:
        entry["transfer"] = vehicle.status.transfer.value
    if vehicle.pair_key != original_pair:
        # Takeovers may have rehomed the vehicle; its communication graph
        # was computed from the position it held *at rehoming time* and
        # cannot be re-derived from the drifted current position, so the
        # residency is serialized verbatim.
        entry["residency"] = {
            "cube_index": list(vehicle.cube_index),
            "neighbors": _points_to_json(vehicle.neighbors),
            "cube_peers": _points_to_json(vehicle.cube_peers),
        }
    return entry


def _touched(fleet: Fleet, vehicles, pair_live: List[int]) -> Set[int]:
    """The dense indices whose entry may hold more than ``jobs_served``.

    A vehicle is in the set when a plain protocol field is truthy, its
    transfer state is not ``WAITING``, it answers for a pair other than the
    one it was built for, or its detector block row holds any state -- a
    superset of the vehicles :func:`_vehicle_entry` writes more for.
    """
    touched = set(compress(count(), map(any, map(_VEHICLE_STORED_VALUES, vehicles))))
    transfers = map(attrgetter("status.transfer"), vehicles)
    touched.update(compress(count(), map(is_not, transfers, repeat(TransferState.WAITING))))
    rehomed = np.asarray(pair_live, dtype=np.int64) != fleet.flat.vehicle_pair
    touched.update(np.flatnonzero(rehomed).tolist())
    if fleet.detector is not None:
        touched.update(fleet.detector.rows_in_use())
    return touched


def _fleet_state(fleet: Fleet) -> Dict[str, Any]:
    flat = fleet.flat
    vehicles = fleet._vehicles_by_index()
    pair_id_of = flat.pair_id_of
    pair_live = [
        -1 if pair_key is None else pair_id_of[pair_key]
        for pair_key in map(attrgetter("pair_key"), vehicles)
    ]
    # Every entry starts as its served count, read off the registry column;
    # only the touched vehicles run the table walk.
    entries: Dict[str, Any] = {
        str(index): {"jobs_served": served} for index, served in enumerate(flat.served) if served
    }
    for index in sorted(_touched(fleet, vehicles, pair_live)):
        entry = _vehicle_entry(vehicles[index], flat.pair_keys[flat.vehicle_pair[index]])
        if entry:
            entries[str(index)] = entry
    # Tuples encode exactly like lists, so points, pairs and the cubes'
    # member tuples go out as they are stored: copying ~10^5 of them into
    # fresh lists changes no byte and only feeds the garbage collector.
    # The shallow copy of ``positions`` keeps the snapshot apart from a
    # list the fleet mutates in place; member tuples are only ever
    # replaced, never mutated.
    return {
        **{key: getattr(flat, key).tolist() for key, _ in _FLAT_ARRAYS},
        **{key: getattr(fleet, attribute) for key, attribute in _FLEET_ROUNDS},
        "positions": list(flat.positions),
        "pair_live": pair_live,
        "registry": sorted(fleet.registry.items()),
        "cube_members": sorted(fleet._cube_members.items()),
        "stats": dataclasses.asdict(fleet.stats),
        # The round never-heard pairs count as heard at; kept in the format
        # so a checkpoint written by a build with another rule is refused.
        "monitoring_baseline": HEARD_AT_START,
        "crash_rounds": _rounds_to_json(sorted(fleet._crash_rounds.items())),
        "detection_digest": fleet.detection_digest.to_json(),
        "vehicles": entries,
    }


def restore_fleet_state(fleet: Fleet, payload: Dict[str, Any]) -> None:
    """Overlay a captured fleet state onto a freshly constructed fleet.

    Only what the capture records is written: every other per-vehicle
    field keeps the falsy value the constructor gave it, which is why the
    target must be freshly provisioned.  Raises ``ValueError`` -- before
    touching the fleet -- when the state counts never-heard pairs from a
    round other than ``HEARD_AT_START``.
    """
    if payload["monitoring_baseline"] != HEARD_AT_START:
        raise ValueError(
            f"checkpoint monitoring_baseline {payload['monitoring_baseline']!r} is "
            f"not {HEARD_AT_START}: never-heard pairs count as heard at round "
            f"{HEARD_AT_START}"
        )

    flat = fleet.flat
    for key, typecode in _FLAT_ARRAYS:
        getattr(flat, key)[:] = array(typecode, payload[key])
    flat.positions[:] = _points_from_json(payload["positions"])

    # Residency first: the detector blocks a detector field allocates read
    # every vehicle's cube and every cube's members.
    fleet._cube_members.clear()
    fleet._cube_members.update(
        (tuple(index), tuple(_points_from_json(members)))
        for index, members in payload["cube_members"]
    )
    entries = [
        (fleet.vehicles[flat.identities[int(index_str)]], entry)
        for index_str, entry in payload["vehicles"].items()
    ]
    for vehicle, entry in entries:
        if "residency" in entry:
            residency = entry["residency"]
            vehicle.cube_index = tuple(residency["cube_index"])
            vehicle.coloring = fleet.colorings[vehicle.cube_index]
            vehicle.neighbors = _points_from_json(residency["neighbors"])
            vehicle.cube_peers = _points_from_json(residency["cube_peers"])
    for vehicle, entry in entries:
        for key, raw in entry.items():
            if key in _VEHICLE_DECODE:
                attribute, decode = _VEHICLE_DECODE[key]
                setattr(vehicle, attribute, decode(raw))
        if "transfer" in entry:
            vehicle.status.transfer = TransferState(entry["transfer"])

    # The array-derived fields are written directly: the status dataclass
    # validates *transitions*, not states, and the registry arrays are
    # already restored (the observer that mirrors them must not fire
    # twice); the watch goes through its setter, for the detector blocks.
    # The engaged set is not serialized (the format predates it); it is a
    # pure function of the restored per-vehicle state, rebuilt here.
    pair_live = payload["pair_live"]
    flat.engaged.clear()
    for index, identity in enumerate(flat.identities):
        vehicle = fleet.vehicles[identity]
        vehicle.status.working = _WORKING_BY_CODE[flat.state[index]]
        vehicle.broken = bool(flat.broken[index])
        vehicle.pair_key = flat.pair_keys[pair_live[index]] if pair_live[index] >= 0 else None
        vehicle.monitored_pair = (
            flat.pair_keys[flat.watch[index]] if flat.watch[index] >= 0 else None
        )
        if (
            vehicle._engaged_tag is not None
            or vehicle.escalations
            or vehicle._engaged_rounds
            or vehicle._engaged_tag_seen is not None
        ):
            flat.engaged.add(index)

    fleet.registry.clear()
    fleet.registry.update(
        (tuple(pair), tuple(identity)) for pair, identity in payload["registry"]
    )
    for name, value in payload["stats"].items():
        setattr(fleet.stats, name, value)
    for key, attribute in _FLEET_ROUNDS:
        setattr(fleet, attribute, payload[key])
    fleet._crash_rounds = _rounds_from_json(payload.get("crash_rounds", ()))
    if "detection_digest" in payload:
        fleet.detection_digest = LatencyDigest.from_json(payload["detection_digest"])


def fleet_digest(fleet: Fleet) -> str:
    """SHA-256 over the fleet's complete captured state.

    Two runs have equal digests iff their physical *and* protocol state is
    byte-identical -- the strongest equality the differential suite checks.
    """
    text = json.dumps(_fleet_state(fleet), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# transport state
# --------------------------------------------------------------------- #


def _transport_state(transport) -> Optional[Dict[str, Any]]:
    if transport is None:
        return None
    payload: Dict[str, Any] = {"kind": transport.kind, **_read(transport, _TRANSPORT_COUNTERS)}
    streams = transport.stream_state()
    if streams is not None:
        payload["streams"] = streams
    inner = getattr(transport, "inner", None)
    if inner is not None:
        payload["inner"] = _transport_state(inner)
    return payload


def restore_transport_state(transport, payload: Optional[Dict[str, Any]]) -> None:
    """Overlay captured transport counters/streams onto a fresh transport.

    A seeded transport's state without ``streams`` was written by the
    removed global loss stream, whose draws no build can replay.
    """
    if transport is None or payload is None:
        return
    if payload["kind"] != transport.kind:
        raise ValueError(
            f"snapshot transport kind {payload['kind']!r} does not match "
            f"the rebuilt {transport.kind!r}"
        )
    if "streams" not in payload and transport.stream_state() is not None:
        raise ValueError(
            f"snapshot {payload['kind']!r} transport was written by the removed "
            "global stream, which this build cannot resume (checkpoint version "
            f"{CHECKPOINT_VERSION}); rerun it from the start"
        )
    _write(transport, payload, _TRANSPORT_COUNTERS)
    if "streams" in payload:
        transport.restore_stream_state(payload["streams"])
    inner = getattr(transport, "inner", None)
    if inner is not None:
        restore_transport_state(inner, payload.get("inner"))


# --------------------------------------------------------------------- #
# the snapshot
# --------------------------------------------------------------------- #


def capture_checkpoint(config_json, driver, *, recorder=None) -> Dict[str, Any]:
    """Snapshot a service run at a clean boundary (see module docstring).

    ``config_json`` is the run's :meth:`~repro.api.service.ServiceConfig.to_json`,
    built once per run: it holds every demand entry.
    """
    fleet = driver.fleet
    simulator = fleet.simulator
    plan = fleet.failure_plan
    payload: Dict[str, Any] = {
        "schema": CHECKPOINT_SCHEMA,
        "version": CHECKPOINT_VERSION,
        "config": config_json,
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
        "event_stats": _read(simulator.queue.stats, _EVENT_STATS),
        "network": _read(fleet.network, _NETWORK_COUNTERS),
        "transport": _transport_state(fleet.network.transport),
        "failure_plan": {
            **{name: sorted(_points_to_json(getattr(plan, name))) for name in _PLAN_SETS},
            **_read(plan, _PLAN_COUNTERS),
        },
        "fleet": _fleet_state(fleet),
    }
    if recorder is not None:
        payload["metrics"] = recorder.state_to_json()
    return payload


def restore_checkpoint(fleet: Fleet, snapshot: Dict[str, Any]) -> None:
    """Overlay a snapshot's simulation state onto a freshly provisioned fleet.

    The inverse of :func:`capture_checkpoint` for everything the fleet
    owns: the clock, the fleet and transport state, the network counters
    and the failure plan's mutable sets and counters.  Driver state
    (pending arrivals, applied churn, and the event statistics, which
    :func:`restore_event_stats` writes once the driver has re-pushed its
    arrivals) and metrics state stay with the caller.  The ``"rng"`` entry of older snapshots is
    ignored: no channel a snapshot can be resumed on draws from a run RNG
    (a jitter-era snapshot is refused by its transport kind).
    """
    fleet.simulator.clock.advance(snapshot["clock"])
    restore_fleet_state(fleet, snapshot["fleet"])
    restore_transport_state(fleet.network.transport, snapshot["transport"])
    _write(fleet.network, snapshot["network"], _NETWORK_COUNTERS)
    plan = fleet.failure_plan
    plan_state = snapshot["failure_plan"]
    for name in _PLAN_SETS:
        setattr(plan, name, set(_points_from_json(plan_state.get(name, ()))))
    _write(plan, plan_state, _PLAN_COUNTERS)


def restore_event_stats(stats, snapshot: Dict[str, Any]) -> None:
    """Overwrite the event-queue statistics with the snapshot's."""
    _write(stats, snapshot["event_stats"], _EVENT_STATS)


def save_checkpoint(payload: Dict[str, Any], path) -> None:
    """Write a snapshot atomically as compact, sorted-key JSON
    (:func:`repro.io.atomic.atomic_write_json`)."""
    atomic_write_json(payload, path)


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
    text = compact_json(payload)
    atomic_write_text(text, slot)
    atomic_write_text(text, path)
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
