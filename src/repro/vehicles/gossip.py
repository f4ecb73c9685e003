"""Gossip monitoring's deterministic peer draws, and the detector blocks.

The gossip failure detector (``FleetConfig.monitoring = "gossip"``)
replaces the single-watcher timer of the Section 3.2.5 monitoring ring
with three layers, following the tunable-fanout gossiping family of
De Florio & Blondia and pod-style quorum attestation:

1. **Epidemic freshness.** Every round each vehicle sends a separate
   :class:`~repro.vehicles.messages.GossipDigest` of its most recently
   heard ``(pair_key, round)`` entries to ``fanout`` peers drawn from its
   own cube, next to (not inside) the heartbeat an active vehicle
   broadcasts, so liveness information spreads through a cube of ``k``
   vehicles in O(log k) rounds and survives the lossy/corrupting
   transports (which only mutate protocol messages, never digests).
   Carrying the digest inside an active sender's heartbeat is the open
   plan of ROADMAP item 8.  Digests never leave the cube: every reporter,
   watcher and attester of a pair lives in the pair's cube (Section
   3.2.5), and quorum intersection is per cube, so fleet-wide relaying
   would add no detection power -- only O(fleet) state per vehicle.
2. **Multi-reporter suspicion.** A pair is suspected only once
   ``suspicion_threshold`` *distinct* vehicles have reported it silent --
   reports travel inside the digests, deduplicated by reporter identity.
3. **Quorum attestation.** The ring watcher collects ``quorum``
   co-signatures (``SuspectMessage``/``AttestMessage``) before starting
   the replacement search, masking up to ``quorum - 1`` Byzantine
   watchers.

Peer selection must be byte-identical at any worker, process, or shard
count, so it never consults a shared RNG: each draw is the counter-based
keyed mix (:mod:`repro.distsim.keyed`) of ``(identity, per-vehicle
counter, slot)``, a pure function of state that checkpoints and restores
exactly.  :func:`peer_draws` computes a whole round's draws -- every
ticking vehicle, every slot -- as one array expression, and
:func:`peer_indices` maps them onto the cube's shared sorted member list
(:meth:`~repro.vehicles.fleet.Fleet.cube_members`) as one more.  Shards
own whole cubes, so gossip runs shard like ring runs.

**The blocks.**  Both detectors' state lives in :class:`DetectorBlocks`,
one array row per vehicle (its dense index) and, within a row, one column
per pair of the vehicle's cube:

* ``heard`` -- int32, rows x pair columns: the last round the pair was
  heard from, ``-1`` where never heard, plus ``first``, the sequence in
  which each cell was first heard (the insertion order a checkpoint
  writes ``last_heard`` in);
* ``reports`` -- int32, rows x pair columns x reporter slots: the round
  of each silence report, ``-1`` where none;
* ``flags`` -- int8, rows x pair columns: 1 where the cell may hold
  reports or an open suspicion (and each vehicle's ``_flagged``: whether
  its row may), so a heartbeat for a quiet row writes one cell;
* ``watch_col`` -- each row's watched column (``-1``: none), so a
  round's watch test is one gather, ``heard[rows, watch_col[rows]]``;
* the pending suspicions, by row and pair.

A cube's columns start as its pairs in key order and its reporter slots
as its members in identity order.  A ring fleet under escalation also
hears pairs of other cubes: a write for a pair the row's cube lacks
appends a column to that cube (widening the arrays when it outgrows
them), and :meth:`~repro.vehicles.fleet.Fleet.rehome_vehicle` lays a
migrant's row out again under its new cube, first-heard order kept.
Gossip rejects escalation, so its columns stay in key order.  A gossip
round (:meth:`DetectorBlocks.run_round`) reads the
blocks of every ticking vehicle at once: the staleness rule over
``heard`` gives every silent pair, a stable per-row sort gives the
canonical freshest entries, and the reports block, read in pair-major,
reporter-minor order, gives each digest's sorted silence reports.  The
blocks are allocated at a fleet's first heartbeat round or detector
write.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.distsim.keyed import coordinate_keys, mix, stream_root, unit
from repro.grid.lattice import Point
from repro.vehicles.messages import ExistingMessage, GossipDigest
from repro.vehicles.monitoring import HEARD_AT_START, is_stale
from repro.vehicles.registry import STATE_ACTIVE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vehicles.fleet import Fleet
    from repro.vehicles.vehicle import VehicleProcess

__all__ = [
    "GOSSIP_ENTRY_CAP",
    "DetectorBlocks",
    "peer_draws",
    "peer_indices",
]

#: The chain state of every peer draw.  Fixed forever: changing it would
#: silently re-route every gossip run.
_PEER_ROOT = stream_root(0, 0x60551B)

#: Maximum number of ``(pair_key, round)`` freshness entries per digest.
#: Caps digest size at O(1) per message regardless of fleet size; the
#: freshest entries are the ones worth spreading.
GOSSIP_ENTRY_CAP = 8

#: Sorts after every real index in the taken-position table.
_NOT_TAKEN = np.iinfo(np.int64).max


def peer_draws(keys: np.ndarray, counters: Sequence[int], fanout: int) -> np.ndarray:
    """The ``(n, fanout)`` peer draws in ``[0, 1)`` of ``n`` vehicles.

    Row ``v``, column ``s`` is the keyed mix of ``(keys[v], counters[v],
    s)``: vehicle ``v``'s identity key
    (:func:`~repro.distsim.keyed.identity_key`), its gossip counter this
    round, and the slot.
    """
    state = mix(
        _PEER_ROOT,
        np.asarray(keys, dtype=np.uint64)[:, None],
        np.array(counters, dtype=np.uint64)[:, None],
        np.arange(fanout, dtype=np.uint64)[None, :],
    )
    return unit(state)


def peer_indices(draws: np.ndarray, low, member, size) -> np.ndarray:
    """Map each row of ``draws`` onto indices into a sorted candidate list.

    Row ``v`` picks from ``size[v]`` candidates, among which the sender
    sits at index ``low[v]`` when ``member[v]`` (it is never picked).
    Slot ``s`` turns its draw ``u`` into an index ``floor(u * r)`` into
    the ``r`` candidates not yet taken, and the index-th untaken candidate
    is found by stepping past every taken index at or below it, in
    ascending order -- the same picks a copied pool with ``pop(index)``
    would yield.  Returns ``(n, fanout)`` candidate indices, ``-1`` for
    slots past the ``size - member`` candidates there are.
    """
    draws = np.asarray(draws, dtype=np.float64)
    rows, fanout = draws.shape
    member = np.asarray(member, dtype=bool)
    remaining = np.asarray(size, dtype=np.int64) - member
    taken = np.full((rows, fanout + 1), _NOT_TAKEN, dtype=np.int64)
    taken[:, 0] = np.where(member, low, _NOT_TAKEN)
    chosen = np.full((rows, fanout), -1, dtype=np.int64)
    for slot in range(fanout):
        valid = slot < remaining
        index = (draws[:, slot] * (remaining - slot)).astype(np.int64)
        for rank in range(slot + 1):
            index += taken[:, rank] <= index
        chosen[:, slot] = np.where(valid, index, -1)
        taken[:, slot + 1] = np.where(valid, index, _NOT_TAKEN)
        taken.sort(axis=1)
    return chosen


def _row_bounds(rows: np.ndarray, count: int) -> List[int]:
    """Where each of ``count`` rows starts in the sorted row ids ``rows``
    (plus the end): row ``i`` owns ``[bounds[i], bounds[i + 1])``."""
    return np.searchsorted(rows, np.arange(count + 1)).tolist()


class DetectorBlocks:
    """The failure detector state of a fleet, one block of rows per cube.

    Row ``i`` belongs to the vehicle at dense index ``i`` and is read
    through the columns and reporter slots of the cube that vehicle lives
    in (see the module docstring for the layout).  Each vehicle caches
    what a heartbeat's fast path reads: its cube's pair -> column map, a
    memoryview of its ``heard`` row, and whether its ``flags`` row may be
    set (a plain attribute: a memoryview read per delivery costs more).
    """

    def __init__(self, fleet: "Fleet") -> None:
        self.fleet = fleet
        self._vehicles = fleet._vehicles_by_index()
        indices = sorted(fleet.colorings)
        #: Cube multi-index -> cube id (the position among sorted cubes).
        self._cube_ids = {index: cube for cube, index in enumerate(indices)}
        #: Per cube: its pairs (the columns; in key order, then any other
        #: cube's pair a write appended) and the column of each pair.
        self._pairs = [
            sorted(pair.black for pair in fleet.colorings[index].pairs) for index in indices
        ]
        self._cols = [{pair: col for col, pair in enumerate(pairs)} for pairs in self._pairs]
        #: Per cube: its members in identity order (the reporter slots, and
        #: the peer candidates), then any other reporter a write appended,
        #: and the slot of each.
        self._reporters = [list(fleet.cube_members(index)) for index in indices]
        self._slots = [
            {reporter: slot for slot, reporter in enumerate(reporters)}
            for reporters in self._reporters
        ]
        count = len(self._vehicles)
        width = max(map(len, self._pairs))
        depth = max(map(len, self._reporters))
        self.heard = np.full((count, width), -1, dtype=np.int32)
        self.first = np.zeros((count, width), dtype=np.int64)
        self.reports = np.full((count, width, depth), -1, dtype=np.int32)
        self.flags = np.zeros((count, width), dtype=np.int8)
        #: Each row's draw counter, keying its deterministic peer picks.
        self.counter = np.zeros(count, dtype=np.int64)
        #: Open quorum collections: row -> ``{pair_key: {"granted": set of
        #: co-signers, "round": last SuspectMessage round}}``.
        self.suspicions: Dict[int, Dict[Point, Dict[str, Any]]] = {}
        self._seq = 0
        #: Per cube: its pair and member counts.
        self._pair_count = np.array([len(pairs) for pairs in self._pairs], dtype=np.intp)
        self._member_count = np.array(
            [len(reporters) for reporters in self._reporters], dtype=np.intp
        )
        self.cube_of = np.array(
            [self._cube_ids[vehicle.cube_index] for vehicle in self._vehicles], dtype=np.intp
        )
        #: Each row's own reporter slot: its index among its cube's members
        #: (-1 for a residency set outside them, as a ring restore may).
        self.self_slot = np.array(
            [
                self._slots[cube].get(vehicle.identity, -1)
                for cube, vehicle in zip(self.cube_of.tolist(), self._vehicles)
            ],
            dtype=np.intp,
        )
        self._keys = coordinate_keys(fleet.flat.homes)
        self._bind()
        #: Each row's watched-pair column, ``-1`` where it watches nothing;
        #: the ``monitored_pair`` setter keeps it (:meth:`watch`).
        self.watch_col = np.full(count, -1, dtype=np.intp)
        for vehicle in self._vehicles:
            self.watch(vehicle, vehicle._monitored_pair)

    # ------------------------------------------------------------------ #
    # layout
    # ------------------------------------------------------------------ #

    def _bind(self) -> None:
        """Build the key tables and every vehicle's views of its row."""
        count, width, depth = self.reports.shape
        #: Key of column / slot ``k`` of cube ``c`` at ``c * width + k`` /
        #: ``c * depth + k``.
        self._pair_table = np.full(len(self._pairs) * width, None, dtype=object)
        self._reporter_table = np.full(len(self._reporters) * depth, None, dtype=object)
        for cube, (pairs, reporters) in enumerate(zip(self._pairs, self._reporters)):
            self._pair_table[cube * width : cube * width + len(pairs)] = pairs
            self._reporter_table[cube * depth : cube * depth + len(reporters)] = reporters
        self._report_rows = [memoryview(cells) for cells in self.reports.reshape(count, -1)]
        self._flag_rows = [memoryview(flags) for flags in self.flags]
        for vehicle, cube, flagged in zip(
            self._vehicles, self.cube_of.tolist(), self.flags.any(axis=1).tolist()
        ):
            vehicle._heard_cols = self._cols[cube]
            vehicle._heard_row = memoryview(self.heard[vehicle._index])
            vehicle._flagged = flagged

    def _resize(self, width: int, depth: int) -> None:
        """Widen the arrays to ``width`` pair columns and ``depth`` reporter
        slots, every cell kept."""
        _, old_width, old_depth = self.reports.shape
        pad = ((0, 0), (0, width - old_width))
        self.heard = np.pad(self.heard, pad, constant_values=-1)
        self.first = np.pad(self.first, pad)
        self.flags = np.pad(self.flags, pad)
        self.reports = np.pad(self.reports, (*pad, (0, depth - old_depth)), constant_values=-1)
        self._bind()

    def _column(self, cube: int, pair_key: Point) -> int:
        """The column of ``pair_key`` in ``cube``, appended if it has none."""
        cols = self._cols[cube]
        col = cols.get(pair_key)
        if col is None:
            pairs = self._pairs[cube]
            col = cols[pair_key] = len(pairs)
            pairs.append(pair_key)
            self._pair_count[cube] += 1
            width = self.heard.shape[1]
            if col < width:
                self._pair_table[cube * width + col] = pair_key
            else:
                self._resize(2 * width, self.reports.shape[2])
        return col

    def _slot(self, cube: int, reporter: Point) -> int:
        """The slot of ``reporter`` in ``cube``, appended if it has none."""
        slots = self._slots[cube]
        slot = slots.get(reporter)
        if slot is None:
            reporters = self._reporters[cube]
            slot = slots[reporter] = len(reporters)
            reporters.append(reporter)
            self._member_count[cube] += 1
            depth = self.reports.shape[2]
            if slot < depth:
                self._reporter_table[cube * depth + slot] = reporter
            else:
                self._resize(self.heard.shape[1], 2 * depth)
        return slot

    def rehome(self, vehicle: "VehicleProcess") -> None:
        """Lay ``vehicle``'s row out again under the cube it now lives in:
        its heard rounds (in first-heard order), silence reports,
        suspicions and watch move to that cube's columns."""
        heard, reports = self.heard_of(vehicle), self.reports_of(vehicle)
        row = vehicle._index
        cube = self._cube_ids[vehicle.cube_index]
        self.cube_of[row] = cube
        self.self_slot[row] = self._slots[cube].get(vehicle.identity, -1)
        vehicle._heard_cols = self._cols[cube]
        self.set_heard_of(vehicle, heard)
        self.set_reports_of(vehicle, reports)
        self.watch(vehicle, vehicle._monitored_pair)

    # ------------------------------------------------------------------ #
    # one vehicle's state (handlers, checkpoints)
    # ------------------------------------------------------------------ #

    def watch(self, vehicle: "VehicleProcess", pair_key: Optional[Point]) -> None:
        """Point the row's watch column at ``pair_key`` (``None``: nothing)."""
        row = vehicle._index
        self.watch_col[row] = -1 if pair_key is None else self._column(self.cube_of[row], pair_key)

    def store(self, vehicle: "VehicleProcess", pair_key: Point, heard: int) -> None:
        """Set ``pair_key`` as last heard at ``heard`` (a round, >= 0)."""
        row = vehicle._index
        col = self._column(self.cube_of[row], pair_key)
        if self.heard[row, col] < 0:
            self._seq += 1
            self.first[row, col] = self._seq
        self.heard[row, col] = heard

    def note_heard(self, vehicle: "VehicleProcess", pair_key: Point, heard: int) -> None:
        """One ``(pair_key, heard)`` freshness entry: a fresher round is
        stored, retiring the silence reports it supersedes and any open
        suspicion -- a pair that spoke is not dead.  The common cases run
        on the vehicle's views alone: a round no fresher costs one read,
        and a fresher one for a pair already heard, with no report or
        suspicion open on it, one write.  (A heartbeat runs those cases
        inline in ``VehicleProcess.on_message``.)"""
        row = vehicle._index
        col = vehicle._heard_cols.get(pair_key)
        if col is None:
            col = self._column(self.cube_of[row], pair_key)
        heard_row = vehicle._heard_row
        previous = heard_row[col]
        if heard <= previous:
            return
        if previous >= 0 and not self._flag_rows[row][col]:
            heard_row[col] = heard
            return
        self.store(vehicle, pair_key, heard)
        if self.flags[row, col]:
            cell = self.reports[row, col]
            cell[cell <= heard] = -1
            pending = self.suspicions.get(row)
            if pending is not None:
                pending.pop(pair_key, None)
                if not pending:
                    del self.suspicions[row]
            self.flags[row, col] = (cell >= 0).any()
            vehicle._flagged = bool(self.flags[row].any())

    def heard_at(self, vehicle: "VehicleProcess", pair_key: Point) -> int:
        """The round ``pair_key`` was last heard at, ``-1`` if never."""
        col = vehicle._heard_cols.get(pair_key)
        return -1 if col is None else vehicle._heard_row[col]

    def heard_round(self, vehicle: "VehicleProcess", pair_key: Point) -> int:
        """The round ``pair_key`` was last heard at, ``HEARD_AT_START`` if
        never."""
        heard = self.heard_at(vehicle, pair_key)
        return HEARD_AT_START if heard < 0 else heard

    def watch_stale(self, rows: np.ndarray, round_id: int, miss: int) -> np.ndarray:
        """Per row of ``rows``, whether its watched pair is stale at
        ``round_id``: one gather of the watched cells."""
        cols = self.watch_col[rows]
        last = self.heard.ravel().take(rows * self.heard.shape[1] + cols)
        return (cols >= 0) & is_stale(round_id, np.where(last < 0, HEARD_AT_START, last), miss)

    def merge_digest(self, vehicle: "VehicleProcess", heard, silent) -> None:
        """Max-merge a digest's ``heard`` entries, then union its ``silent``
        reports, skipping the receiver's own pair and reports older than
        what it heard since."""
        cols = vehicle._heard_cols
        heard_row = vehicle._heard_row
        for pair_key, round_id in heard:
            if round_id > heard_row[cols[pair_key]]:
                self.note_heard(vehicle, pair_key, round_id)
        if not silent:
            return
        row = vehicle._index
        own = vehicle.pair_key
        slots = self._slots[self.cube_of[row]]
        cells = self._report_rows[row]
        depth = self.reports.shape[2]
        for pair_key, reporter, reported in silent:
            if pair_key == own:
                continue  # this vehicle *is* the pair: obviously alive
            col = cols[pair_key]
            last = heard_row[col]
            if reported <= (last if last >= 0 else HEARD_AT_START):
                continue  # superseded: the pair has spoken since
            cell = col * depth + slots[reporter]
            if reported > cells[cell]:
                cells[cell] = reported
                self.flags[row, col] = 1
                vehicle._flagged = True

    def reporters(self, vehicle: "VehicleProcess", pair_key: Point) -> List[Point]:
        """The distinct vehicles that reported ``pair_key`` silent."""
        row = vehicle._index
        cube = self.cube_of[row]
        col = self._cols[cube].get(pair_key)
        if col is None:
            return []
        reporters = self._reporters[cube]
        return [reporters[slot] for slot in np.flatnonzero(self.reports[row, col] >= 0).tolist()]

    def suspicion(self, vehicle: "VehicleProcess", pair_key: Point) -> Optional[Dict[str, Any]]:
        """The open quorum collection for ``pair_key``, if any."""
        return self.suspicions.get(vehicle._index, {}).get(pair_key)

    def open_suspicion(self, vehicle: "VehicleProcess", pair_key: Point) -> Dict[str, Any]:
        """The collection for ``pair_key``, opened with no co-signer if new."""
        row = vehicle._index
        self.flags[row, self._column(self.cube_of[row], pair_key)] = 1
        vehicle._flagged = True
        pending = self.suspicions.setdefault(row, {})
        return pending.setdefault(pair_key, {"granted": set()})

    def close_suspicion(self, vehicle: "VehicleProcess", pair_key: Point, *, reports: bool) -> None:
        """Drop the collection for ``pair_key`` and, with ``reports``, every
        silence report of it."""
        row = vehicle._index
        pending = self.suspicions.get(row)
        if pending is not None:
            pending.pop(pair_key, None)
            if not pending:
                del self.suspicions[row]
        if reports:
            col = self._cols[self.cube_of[row]].get(pair_key)
            if col is not None:
                self.reports[row, col] = -1

    def heard_of(self, vehicle: "VehicleProcess") -> Dict[Point, int]:
        """``last_heard`` as a dict, in first-heard order."""
        row = vehicle._index
        first = self.first[row]
        cols = np.flatnonzero(first)
        cols = cols[np.argsort(first[cols])]
        pairs = self._pairs[self.cube_of[row]]
        return dict(
            zip([pairs[col] for col in cols.tolist()], self.heard[row, cols].tolist())
        )

    def set_heard_of(self, vehicle: "VehicleProcess", heard: Dict[Point, int]) -> None:
        row = vehicle._index
        self.heard[row] = -1
        self.first[row] = 0
        for pair_key, round_id in heard.items():
            self.store(vehicle, pair_key, round_id)

    def reports_of(self, vehicle: "VehicleProcess") -> Dict[Point, Dict[Point, int]]:
        """Silence reports by pair: ``{pair_key: {reporter: report_round}}``."""
        row = vehicle._index
        cube = self.cube_of[row]
        pairs, reporters = self._pairs[cube], self._reporters[cube]
        block = self.reports[row]
        cols, slots = np.nonzero(block >= 0)
        out: Dict[Point, Dict[Point, int]] = {}
        for col, slot, reported in zip(cols.tolist(), slots.tolist(), block[cols, slots].tolist()):
            out.setdefault(pairs[col], {})[reporters[slot]] = reported
        return out

    def set_reports_of(self, vehicle: "VehicleProcess", reports) -> None:
        row = vehicle._index
        cube = self.cube_of[row]
        cells = [
            (self._column(cube, pair_key), self._slot(cube, reporter), reported)
            for pair_key, reporters in reports.items()
            for reporter, reported in reporters.items()
        ]
        self.reports[row] = -1
        for col, slot, reported in cells:
            self.reports[row, col, slot] = reported
        self._reflag(row)

    def suspicions_of(self, vehicle: "VehicleProcess") -> Dict[Point, Dict[str, Any]]:
        return dict(self.suspicions.get(vehicle._index, {}))

    def counter_of(self, vehicle: "VehicleProcess") -> int:
        return int(self.counter[vehicle._index])

    def set_counter_of(self, vehicle: "VehicleProcess", counter: int) -> None:
        self.counter[vehicle._index] = counter

    def rows_in_use(self) -> List[int]:
        """The rows holding any detector state: a heard round, a silence
        report, a nonzero draw counter or an open suspicion."""
        rows = len(self.counter)
        used = (
            self.first.any(axis=1)
            | (self.reports.reshape(rows, -1) >= 0).any(axis=1)
            | (self.counter != 0)
        )
        used[list(self.suspicions)] = True
        return np.flatnonzero(used).tolist()

    def set_suspicions_of(self, vehicle: "VehicleProcess", suspicions) -> None:
        row = vehicle._index
        self.suspicions.pop(row, None)
        if suspicions:
            self.suspicions[row] = dict(suspicions)
        self._reflag(row)

    def _reflag(self, row: int) -> None:
        cube = self.cube_of[row]
        suspected = [self._column(cube, pair_key) for pair_key in self.suspicions.get(row, ())]
        flags = (self.reports[row] >= 0).any(axis=1).astype(np.int8)
        flags[suspected] = 1
        self.flags[row] = flags
        self._vehicles[row]._flagged = bool(flags.any())

    # ------------------------------------------------------------------ #
    # the round
    # ------------------------------------------------------------------ #

    def run_round(self, round_id: int, miss: int, rows: np.ndarray) -> None:
        """One gossip round of the vehicles at dense indices ``rows``
        (ascending): every decision as block reads, then each vehicle's
        sends in row order.

        A vehicle's tick reads and writes only its own row and its sends
        are delivered after the round, so computing all rows first and
        sending afterwards is the per-vehicle loop's exact outcome.
        """
        fleet = self.fleet
        flat = fleet.flat
        count = len(rows)
        vehicles = [self._vehicles[row] for row in rows.tolist()]
        cube = self.cube_of[rows]
        width = self.heard.shape[1]
        depth = self.reports.shape[2]
        pairs = self._pair_table

        # Peers: each row's draws at its counter mapped onto its cube's
        # sorted members (the vehicle among them at its own slot).
        slots = peer_indices(
            peer_draws(self._keys[rows], self.counter[rows], fleet.config.gossip_fanout),
            self.self_slot[rows],
            np.ones(count, dtype=bool),
            self._member_count[cube],
        )
        self.counter[rows] += 1
        at, k = np.nonzero(slots >= 0)
        peer_ids = self._reporter_table[cube[at] * depth + slots[at, k]].tolist()
        bounds = _row_bounds(at, count)
        peers = [peer_ids[a:b] for a, b in zip(bounds, bounds[1:])]

        # Silence reports: every stale pair of the cube but the vehicle's
        # own -- every one, from a Byzantine watcher.
        byzantine = np.zeros(len(self._vehicles), dtype=bool)
        for identity in fleet.failure_plan.byzantine_watchers:
            liar = fleet.vehicles.get(identity)
            if liar is not None:
                byzantine[liar._index] = True
        byzantine = byzantine[rows]
        cols = self._cols
        own = [
            cols[c].get(pair_key, -1)
            for c, pair_key in zip(cube.tolist(), map(attrgetter("pair_key"), vehicles))
        ]
        heard = self.heard[rows]
        columns = np.arange(width)
        silent = (
            (is_stale(round_id, np.where(heard < 0, HEARD_AT_START, heard), miss) | byzantine[:, None])
            & (columns < self._pair_count[cube][:, None])
            & (columns != np.array(own)[:, None])
        )
        at, col = np.nonzero(silent)
        self.reports[rows[at], col, self.self_slot[rows[at]]] = round_id
        self.flags[rows[at], col] = 1

        # Each digest's silence reports, pair-major and reporter-minor, and
        # its freshest entries: round descending, then pair key (the
        # columns in key order, stably sorted), capped.
        digest_silent = [()] * count
        reported = np.flatnonzero(self.flags[rows].any(axis=1))
        if len(reported):
            block = self.reports[rows[reported]]
            at, col, slot = np.nonzero(block >= 0)
            entries = list(
                zip(
                    pairs[cube[reported][at] * width + col].tolist(),
                    self._reporter_table[cube[reported][at] * depth + slot].tolist(),
                    block[at, col, slot].tolist(),
                )
            )
            bounds = _row_bounds(at, len(reported))
            for i, a, b in zip(reported.tolist(), bounds, bounds[1:]):
                digest_silent[i] = tuple(entries[a:b])
                vehicles[i]._flagged = True
        rank = np.argsort(-heard, axis=1, kind="stable")[:, :GOSSIP_ENTRY_CAP]
        top = np.take_along_axis(heard, rank, axis=1)
        at, k = np.nonzero(top >= 0)
        entries = list(zip(pairs[cube[at] * width + rank[at, k]].tolist(), top[at, k].tolist()))
        bounds = _row_bounds(at, count)
        digest_heard = [tuple(entries[a:b]) for a, b in zip(bounds, bounds[1:])]

        # Suspicion candidates: live active watchers whose watched pair is
        # stale, and Byzantine ones.
        active = flat.state_view()[rows] == STATE_ACTIVE
        check = active & (byzantine | self.watch_stale(rows, round_id, miss))

        # The sends, in row order: an active vehicle's heartbeat to its
        # cube, its digest to its drawn peers (none when it is alone in its
        # cube), and the watcher's suspicion check.
        send_many = fleet.network.send_many
        for vehicle, heartbeat, to, entries, silence, suspect in zip(
            vehicles, active.tolist(), peers, digest_heard, digest_silent, check.tolist()
        ):
            identity = vehicle.identity
            if heartbeat:
                send_many(
                    identity, vehicle._cube_peers, ExistingMessage(identity, vehicle.pair_key, round_id)
                )
            if to:
                vehicle.send_many(to, GossipDigest(identity, round_id, entries, silence))
            if suspect:
                vehicle._gossip_check_suspicion(round_id, miss)
