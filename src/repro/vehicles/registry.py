"""The flat-array fleet core: cube templates and the indexed registry.

Fleet construction used to walk every cube in Python -- one snake walk,
one pairing pass, and an ``O(k^2)`` Manhattan scan per cube, plus a dict
write per vertex -- which dominated wall-clock once fleets approached
``10^4`` vehicles.  Two observations make the whole thing batchable:

* **Cubes are translates of a handful of templates.**  Every cube of the
  partition shares its geometry with every other cube of the same *shape*
  (interior cubes all have shape ``side^dim``; clipped boundary cubes add
  a few more shapes) up to translation, and its coloring with every cube
  of the same shape and *corner parity* (the chessboard color of a vertex
  depends on the absolute coordinate sum, so translating a cube by an odd
  offset swaps black and white).  :func:`pairing_template` and
  :func:`adjacency_template` therefore compute the snake pairing and the
  radius-``r`` neighbor graph **once per (shape, parity)** in vectorized
  numpy (broadcasted pairwise Manhattan distances, index arrays into the
  lexicographic vertex order) and every cube reuses them.

* **Vehicles can be dense integers.**  :class:`FleetRegistry` assigns every
  vehicle a dense index in creation order (cube-sorted, vertices
  lexicographic -- exactly the historical order) and backs the hot
  per-vehicle quantities with contiguous arrays: home coordinates, pair
  and cube ids, the live travel/service energy ledgers and served
  counts, the working state, the current position, and the watch
  target.  The existing id/object API (``fleet.vehicles[home]``,
  ``vehicle.travel_energy``) stays intact as a thin view over these
  arrays, so the protocol code in :mod:`repro.vehicles.vehicle` and
  :mod:`repro.vehicles.monitoring` runs unmodified while fleet-level
  measurements (``max_energy_used``, ``active_vehicle_count``, ...)
  become single vectorized reads.

The live scalars are ``array('d')`` / ``array('b')`` typed arrays rather
than numpy arrays on purpose: element reads return plain Python floats and
ints, so protocol arithmetic stays byte-identical to the attribute-based
implementation, while ``np.frombuffer`` still gives the measurement paths
zero-copy vectorized views.
"""

from __future__ import annotations

import functools
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.coloring import Coloring, Pair, pair_index_arrays, snake_order_array
from repro.grid.lattice import Box, Point

__all__ = [
    "PairingTemplate",
    "pairing_template",
    "adjacency_template",
    "coloring_for_cube",
    "coloring_for_box",
    "FleetRegistry",
]

#: ``array('b')`` codes of the working states (see ``WorkingState``).
STATE_IDLE = 0
STATE_ACTIVE = 1
STATE_DONE = 2

_STATE_CODES = {"idle": STATE_IDLE, "active": STATE_ACTIVE, "done": STATE_DONE}

#: Largest window (lattice-point count) the dense position->pair array is
#: built for; 8 MB of int64.  Sparse demands over larger bounding windows
#: use the dict fallback.
_DENSE_WINDOW_CAP = 1_000_000


class PairingTemplate:
    """The translation-invariant structure of one cube shape (and parity).

    All index arrays refer to the cube's vertices in *lexicographic* order
    of their relative coordinates -- the order ``Box.points()`` produces
    and the order vehicles are created in.

    Attributes
    ----------
    rel:
        ``(k, dim)`` relative vertex coordinates, lexicographic.
    pair_black / pair_white:
        Per pair, the lex index of its black / white vertex (``-1`` white
        marks the leftover singleton of an odd-sized cube).  Pair order is
        the snake-walk pair order -- the order ``Coloring.pairs`` exposes.
    pair_of_vertex:
        ``(k,)`` pair id of every vertex.
    initially_active:
        ``(k,)`` bool: whether the vehicle starting at the vertex is the
        pair's initially active one (the black vertex).
    watch_next:
        ``(P,)`` pair id watched by each pair under the cube-local
        monitoring loop (``(p + 1) % P``; ``-1`` when the cube has a
        single pair -- nothing to watch).
    monitored_vertex:
        ``(k,)`` lex index of the initial watch target's black vertex for
        initially-active vertices (``-1`` elsewhere and for single-pair
        cubes), so fleet construction never walks a pair list per vehicle.
    """

    __slots__ = (
        "shape",
        "parity",
        "size",
        "rel",
        "pair_black",
        "pair_white",
        "pair_of_vertex",
        "initially_active",
        "watch_next",
        "monitored_vertex",
        "active_list",
        "vertex_pair_list",
        "monitored_list",
        "pair_black_list",
        "pair_white_list",
        "state_bytes",
    )

    def __init__(self, shape: Tuple[int, ...], parity: int) -> None:
        self.shape = shape
        self.parity = int(parity) % 2
        dim = len(shape)
        k = int(np.prod(shape))
        self.size = k
        #: lexicographic relative coordinates (C-order of ``np.indices``)
        self.rel = np.indices(shape).reshape(dim, -1).T.astype(np.int64)
        rel_box = Box((0,) * dim, tuple(s - 1 for s in shape))
        walk = snake_order_array(rel_box)
        walk_lex = np.ravel_multi_index(tuple(walk.T), shape)
        black_walk, white_walk = pair_index_arrays(walk, self.parity)
        self.pair_black = walk_lex[black_walk]
        has_white = white_walk >= 0
        pair_white = np.full(len(black_walk), -1, dtype=np.int64)
        pair_white[has_white] = walk_lex[white_walk[has_white]]
        self.pair_white = pair_white

        num_pairs = len(self.pair_black)
        pair_of_vertex = np.empty(k, dtype=np.int64)
        pair_of_vertex[self.pair_black] = np.arange(num_pairs)
        pair_of_vertex[pair_white[has_white]] = np.arange(num_pairs)[has_white]
        self.pair_of_vertex = pair_of_vertex

        initially_active = np.zeros(k, dtype=bool)
        initially_active[self.pair_black] = True
        self.initially_active = initially_active

        if num_pairs > 1:
            watch_next = (np.arange(num_pairs) + 1) % num_pairs
        else:
            watch_next = np.full(num_pairs, -1, dtype=np.int64)
        self.watch_next = watch_next

        monitored = np.full(k, -1, dtype=np.int64)
        watched_pair = watch_next[pair_of_vertex[self.pair_black]]
        watchable = watched_pair >= 0
        monitored[self.pair_black[watchable]] = self.pair_black[watched_pair[watchable]]
        self.monitored_vertex = monitored

        # Plain-list (and bytes) views, converted once per template so the
        # per-cube construction loop never calls ``tolist`` again.
        self.active_list = initially_active.tolist()
        self.vertex_pair_list = pair_of_vertex.tolist()
        self.monitored_list = monitored.tolist()
        self.pair_black_list = self.pair_black.tolist()
        self.pair_white_list = pair_white.tolist()
        self.state_bytes = initially_active.astype(np.int8).tobytes()

    def pairs_for(self, verts: Sequence[Point]) -> List[Pair]:
        """The cube's :class:`Pair` list over its absolute vertex tuples."""
        return [
            Pair(black=verts[b], white=verts[w] if w >= 0 else None)
            for b, w in zip(self.pair_black_list, self.pair_white_list)
        ]


@functools.lru_cache(maxsize=1024)
def pairing_template(shape: Tuple[int, ...], parity: int) -> PairingTemplate:
    """The (cached) pairing structure of a cube shape and corner parity."""
    return PairingTemplate(shape, parity)


@functools.lru_cache(maxsize=1024)
def adjacency_template(
    shape: Tuple[int, ...], radius: int
) -> Tuple[Tuple[int, ...], ...]:
    """Per-vertex neighbor lists of one cube shape, as lex-index tuples.

    Entry ``i`` lists (ascending) the lex indices of the vertices within
    Manhattan distance ``radius`` of vertex ``i``, excluding ``i`` itself
    -- the communication graph of Algorithm 2, identical to the historical
    per-vertex scan.  One broadcasted ``(k, k)`` distance computation
    replaces ``k^2`` Python ``manhattan`` calls per cube.
    """
    dim = len(shape)
    rel = np.indices(shape).reshape(dim, -1).T.astype(np.int64)
    dist = np.abs(rel[:, None, :] - rel[None, :, :]).sum(axis=2)
    adjacent = (dist <= radius) & (dist > 0)
    return tuple(tuple(np.nonzero(row)[0].tolist()) for row in adjacent)


#: Shared colorings keyed by cube box.  Colorings are immutable after
#: construction and the same cube geometry recurs across runs (sweeps,
#: benchmarks), so they are cached exactly as the old per-box ``lru_cache``
#: did -- but construction now reuses the cached pairing template instead
#: of re-walking the cube, and the fleet's batch constructor passes the
#: vertex tuples it already materialized.
_COLORING_CACHE: Dict[Tuple[Point, Point], Coloring] = {}
_COLORING_CACHE_MAX = 8192


def coloring_for_cube(
    lo: Point, hi: Point, *, verts: Optional[Sequence[Point]] = None
) -> Coloring:
    """One shared :class:`Coloring` per cube ``[lo, hi]``.

    Keyed by the corner tuples so the (hot) cache-hit path never has to
    construct and validate a :class:`Box`.
    """
    key = (lo, hi)
    coloring = _COLORING_CACHE.get(key)
    if coloring is None:
        box = Box(lo, hi)
        template = pairing_template(box.side_lengths, sum(lo) % 2)
        if verts is None:
            verts = [
                tuple(row)
                for row in (template.rel + np.asarray(lo, dtype=np.int64)).tolist()
            ]
        coloring = Coloring.from_pairs(box, template.pairs_for(verts))
        if len(_COLORING_CACHE) >= _COLORING_CACHE_MAX:
            # FIFO eviction (dicts iterate in insertion order): keeps the
            # cache bounded without pinning the first 8192 geometries
            # forever, matching the spirit of the lru_cache it replaced.
            _COLORING_CACHE.pop(next(iter(_COLORING_CACHE)))
        _COLORING_CACHE[key] = coloring
    return coloring


def coloring_for_box(box: Box, *, verts: Optional[Sequence[Point]] = None) -> Coloring:
    """One shared :class:`Coloring` per cube box, built from the template."""
    return coloring_for_cube(box.lo, box.hi, verts=verts)


class FleetRegistry:
    """Dense vehicle indices backing the fleet's contiguous state arrays.

    Construction happens in two phases: the fleet appends its cubes in
    cube-sorted order (:meth:`add_cubes`) and then :meth:`finalize`
    freezes the static topology into numpy arrays.  The live per-vehicle
    scalars (energy ledgers, working state, position, watch target) are
    typed arrays written through by the
    :class:`~repro.vehicles.vehicle.VehicleProcess` property layer.
    """

    def __init__(self, window: Box) -> None:
        self.window = window
        self.dim = window.dim
        #: identity tuple -> dense index, in creation order.
        self.index_of: Dict[Point, int] = {}
        #: dense index -> identity tuple (the inverse view).
        self.identities: List[Point] = []
        #: cube multi-index -> cube id, in creation (= sorted) order.
        self.cube_id_of: Dict[Tuple[int, ...], int] = {}
        #: per cube id, the ``[start, stop)`` dense-index range of its
        #: vehicles -- cube membership at construction time is a slice.
        self.cube_slices: List[Tuple[int, int]] = []
        #: pair key tuple -> dense pair id, in creation order.
        self.pair_id_of: Dict[Point, int] = {}
        self.pair_keys: List[Point] = []
        self._pair_cube_ids: List[int] = []
        self._vehicle_pair_chunks: List[np.ndarray] = []
        self._home_chunks: List[np.ndarray] = []
        self._active_chunks: List[np.ndarray] = []

        # -- live state (typed arrays: plain-Python element reads) --
        self.travel = array("d")
        self.service = array("d")
        #: jobs served per vehicle.
        self.served = array("q")
        self.state = array("b")
        self.broken = array("b")
        #: watch target as a pair id (``-1`` = watching nothing); the round
        #: it was last heard at lives in the fleet's detector blocks.
        self.watch = array("q")
        #: 1 where the vehicle has cube peers to broadcast to, 0 where it
        #: is alone in its cube.  Mirrors ``vehicle.cube_peers`` (written
        #: by its setter on every reassignment); lets the plain heartbeat
        #: round drop unflagged peerless senders -- strict no-ops -- before
        #: the per-object loop.
        self.peers = array("b")
        #: dense indices of vehicles with non-trivial search state (an
        #: engaged tag, live escalations, or a running search-timeout
        #: clock).  Maintained incrementally by the vehicle state machine;
        #: ``tick_search_timeout`` sweeps only these indices, so a fully
        #: quiescent round costs O(engaged) instead of O(n).
        self.engaged: set = set()
        #: current position per vehicle (tuples; reads must stay exact).
        self.positions: List[Point] = []

        # -- frozen by finalize() --
        self.count = 0
        self.homes: Optional[np.ndarray] = None
        self.vehicle_pair: Optional[np.ndarray] = None
        self.initially_active: Optional[np.ndarray] = None
        self.pair_black: Optional[np.ndarray] = None
        self.pair_cube: Optional[np.ndarray] = None
        self._pos_pair: Optional[np.ndarray] = None
        self._pair_window: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_cubes(
        self,
        entries: List[Tuple[Tuple[int, ...], PairingTemplate, Sequence[Point], np.ndarray]],
    ) -> List[Tuple[int, List[Point]]]:
        """Register many cubes at once; returns one (base, pair keys) per entry.

        Each entry is ``(index, template, verts, coords)``: ``verts`` must
        be the cube's absolute vertex tuples in lexicographic order (the
        template's ``rel`` order translated), and ``coords`` the same
        vertices as a ``(k, dim)`` array view.  The vertex/pair dict
        inserts, identity extends, and live-state array fills happen as one
        bulk operation each instead of one per cube -- the per-cube
        overhead dominates construction when cubes are small (a
        singleton-cube fleet is nothing *but* overhead).  Insertion order
        within every dict and array is still the per-cube order.
        """
        results: List[Tuple[int, List[Point]]] = []
        base = len(self.identities)
        pair_base = len(self.pair_keys)
        cube_id = len(self.cube_slices)
        all_verts: List[Point] = []
        all_pairs: List[Point] = []
        state_chunks: List[bytes] = []
        for index, template, verts, coords in entries:
            k = len(verts)
            self.cube_id_of[index] = cube_id
            self.cube_slices.append((base, base + k))
            pair_keys = [verts[b] for b in template.pair_black_list]
            self._pair_cube_ids.extend([cube_id] * len(pair_keys))
            self._vehicle_pair_chunks.append(template.pair_of_vertex + pair_base)
            self._active_chunks.append(template.initially_active)
            self._home_chunks.append(coords)
            state_chunks.append(template.state_bytes)
            all_verts.extend(verts)
            all_pairs.extend(pair_keys)
            results.append((base, pair_keys))
            base += k
            pair_base += len(pair_keys)
            cube_id += 1

        start = len(self.identities)
        total = len(all_verts)
        self.index_of.update(zip(all_verts, range(start, start + total)))
        self.identities.extend(all_verts)
        pair_start = len(self.pair_keys)
        self.pair_id_of.update(
            zip(all_pairs, range(pair_start, pair_start + len(all_pairs)))
        )
        self.pair_keys.extend(all_pairs)

        # Bulk live-state allocation for the cubes' vehicles: zeroed energy
        # ledgers and served counts, the templates' initial working states,
        # empty watch slots.
        # VehicleProcess then finds its slot pre-filled and skips the
        # per-vehicle append path entirely.
        zeros = bytes(8 * total)
        self.travel.frombytes(zeros)
        self.service.frombytes(zeros)
        self.served.frombytes(zeros)
        self.state.frombytes(b"".join(state_chunks))
        self.broken.frombytes(bytes(total))
        # -1 in two's-complement int64 is all-ones bytes.
        self.watch.frombytes(b"\xff" * (8 * total))
        self.peers.frombytes(bytes(total))
        self.positions.extend(all_verts)
        return results

    def finalize(self) -> None:
        """Freeze the static topology into flat arrays."""
        self.count = len(self.identities)
        self.homes = (
            np.concatenate(self._home_chunks)
            if self._home_chunks
            else np.empty((0, self.dim), dtype=np.int64)
        )
        self.vehicle_pair = (
            np.concatenate(self._vehicle_pair_chunks)
            if self._vehicle_pair_chunks
            else np.empty(0, dtype=np.int64)
        )
        self.initially_active = (
            np.concatenate(self._active_chunks)
            if self._active_chunks
            else np.empty(0, dtype=bool)
        )
        self.pair_black = (
            np.asarray(self.pair_keys, dtype=np.int64)
            if self.pair_keys
            else np.empty((0, self.dim), dtype=np.int64)
        )
        self.pair_cube = np.asarray(self._pair_cube_ids, dtype=np.int64)
        del self._home_chunks, self._vehicle_pair_chunks, self._active_chunks

        # Flat window lookup: position -> pair id (-1 where no pair was
        # built).  Powers the vectorized batch router; the per-job hot path
        # keeps its dict (a tuple-keyed dict hit beats re-deriving a flat
        # offset in Python for single lookups).  A sparse demand over a
        # huge bounding window (two far corners) would make the dense
        # array enormous, so past the cap the lookups fall back to the
        # dict path -- same answers, no O(window) memory.
        window = self.window
        shape = window.side_lengths
        if int(np.prod(shape)) <= _DENSE_WINDOW_CAP:
            lo = np.asarray(window.lo, dtype=np.int64)
            pos_pair = np.full(int(np.prod(shape)), -1, dtype=np.int64)
            if self.count:
                flat = np.ravel_multi_index(tuple((self.homes - lo).T), shape)
                pos_pair[flat] = self.vehicle_pair
            self._pos_pair = pos_pair
            # Cached (lo, hi, side_lengths) tuples: the scalar read is on
            # the per-arrival streaming path, where re-deriving the
            # side_lengths property per call is measurable.
            self._pair_window = (window.lo, window.hi, shape)
        else:
            self._pos_pair = None

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    def pair_id_at(self, position: Point) -> int:
        """Pair id covering ``position`` (``-1`` when none; O(1) read)."""
        if self._pos_pair is None:
            index = self.index_of.get(tuple(position))
            return -1 if index is None else int(self.vehicle_pair[index])
        lo, hi, sides = self._pair_window
        flat = 0
        for c, l, h, s in zip(position, lo, hi, sides):
            if c < l or c > h:
                return -1
            flat = flat * s + (c - l)
        return int(self._pos_pair[flat])

    def pair_ids_of(self, positions: np.ndarray) -> np.ndarray:
        """Vectorized position -> pair id lookup for an ``(n, dim)`` array."""
        positions = np.asarray(positions, dtype=np.int64)
        if self._pos_pair is None:
            return np.fromiter(
                (self.pair_id_at(tuple(row)) for row in positions.tolist()),
                dtype=np.int64,
                count=len(positions),
            )
        lo = np.asarray(self.window.lo, dtype=np.int64)
        shape = self.window.side_lengths
        offsets = positions - lo
        inside = np.all((offsets >= 0) & (offsets < np.asarray(shape)), axis=1)
        result = np.full(len(offsets), -1, dtype=np.int64)
        if inside.any():
            flat = np.ravel_multi_index(tuple(offsets[inside].T), shape)
            result[inside] = self._pos_pair[flat]
        return result

    # -- vectorized measurement reads over the live arrays --

    def travel_view(self) -> np.ndarray:
        """Zero-copy numpy view of the per-vehicle travel energies."""
        return np.frombuffer(self.travel, dtype=np.float64)

    def service_view(self) -> np.ndarray:
        """Zero-copy numpy view of the per-vehicle service energies."""
        return np.frombuffer(self.service, dtype=np.float64)

    def state_view(self) -> np.ndarray:
        """Zero-copy numpy view of the per-vehicle working-state codes."""
        return np.frombuffer(self.state, dtype=np.int8)

    def broken_view(self) -> np.ndarray:
        """Zero-copy numpy view of the per-vehicle broken flags."""
        return np.frombuffer(self.broken, dtype=np.int8)

    def peers_view(self) -> np.ndarray:
        """Zero-copy numpy view of the has-cube-peers flags."""
        return np.frombuffer(self.peers, dtype=np.int8)

    def state_code(self, working) -> int:
        """The array code of a :class:`~repro.vehicles.state.WorkingState`."""
        return _STATE_CODES[working.value]
