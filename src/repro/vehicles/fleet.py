"""Fleet construction and bookkeeping for the online protocol.

The fleet realizes the setup of Section 3.2: the lattice is partitioned
into ``ceil(omega_c)``-cubes, every cube that can receive jobs gets one
vehicle per vertex, vertices are paired black/white, and the pair's black
vertex starts with the active vehicle.  The fleet also owns the message
network, the failure plan, the pair registry (which vehicle currently
answers for which pair -- the physical ground truth the experiments audit),
and the protocol statistics (replacements, searches, messages, energy).

The fleet is deliberately *not* a centralized controller: it only routes a
job to the vehicle currently responsible for the job's pair (physically,
the job appears at a location and the responsible vehicle senses it) and
ticks heartbeat rounds.  All coordination -- finding and moving
replacements -- happens through messages between the vehicles themselves.
"""

from __future__ import annotations

import bisect
import gc
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.demand import DemandMap
from repro.core.plan import plan_window
from repro.distsim.engine import Simulator
from repro.distsim.failures import FailurePlan
from repro.distsim.network import Network
from repro.distsim.transport import Transport
from repro.grid.coloring import Coloring
from repro.grid.cubes import CubeGrid, CubeHierarchy
from repro.grid.lattice import Box, Point, manhattan
from repro.vehicles.gossip import DetectorBlocks
from repro.vehicles.messages import ExistingMessage
from repro.vehicles.monitoring import hierarchical_watch_ring, watch_ring_inverse
from repro.vehicles.registry import (
    FleetRegistry,
    STATE_ACTIVE,
    adjacency_template,
    coloring_for_cube,
    pairing_template,
)
from repro.vehicles.state import WorkingState
from repro.vehicles.vehicle import VehicleProcess

__all__ = ["FleetConfig", "Fleet"]


@dataclass(frozen=True)
class FleetConfig:
    """Tunable parameters of the online protocol."""

    #: Battery capacity ``W`` of every vehicle; ``None`` = unbounded
    #: (measurement mode, used to observe the energy the strategy needs).
    capacity: Optional[float] = None
    #: Communication radius: vehicles whose home vertices are within this
    #: Manhattan distance (and in the same cube) are neighbors.  The thesis
    #: uses an arbitrary constant; 3 guarantees that the watcher of a pair
    #: always hears its heartbeats directly.
    neighbor_radius: int = 3
    #: Message delay (simulation time units) of the reliable channel the
    #: network builds when no transport is given.
    message_delay: float = 0.01
    #: Remaining energy below which an active vehicle declares itself done.
    done_threshold: float = 2.0
    #: Failure-detection mode.  ``False`` disables monitoring; ``True`` or
    #: ``"ring"`` run the Section 3.2.5 single-watcher monitoring loop
    #: (byte-identical -- ``"ring"`` is the readable spelling); ``"gossip"``
    #: runs the epidemic detector with quorum-attested replacement (see
    #: :mod:`repro.vehicles.gossip`).  Truthiness is preserved, so every
    #: ``if config.monitoring`` site keeps its historical meaning.
    monitoring: object = False
    #: Heartbeat rounds a watcher waits before initiating a replacement on
    #: behalf of a silent pair (at least 2; see ``__post_init__``).
    heartbeat_miss_threshold: int = 3
    #: Consecutive heartbeat rounds a vehicle may stay engaged in one
    #: diffusing computation before the monitoring loop abandons it as
    #: starved.  Under a reliable channel computations terminate between
    #: rounds and the timeout never fires; under message loss or corruption
    #: it is what frees stuck searchers (and watchers) to make progress.
    search_timeout_rounds: int = 6
    #: Whether an exhausted Phase I search may escalate through the cube
    #: hierarchy (cross-cube replacement; see
    #: :class:`~repro.grid.cubes.CubeHierarchy` and the vehicle docstring).
    #: Off by default: intra-cube runs stay byte-identical to the thesis
    #: protocol.
    escalation: bool = False
    #: Battery an *active* vehicle must keep (beyond the walk) to volunteer
    #: as a spare-capacity adopter in an escalated search.  The reserve
    #: keeps adopters from immediately going done themselves; it should
    #: exceed ``done_threshold`` by a comfortable service margin.
    escalation_reserve: float = 4.0
    #: Proactive load shedding: when a crashed vehicle rejoins (churn) and
    #: its pair is meanwhile held by an adopter, offer the pair back to the
    #: revived owner through the legal escalated move order.  Long service
    #: horizons accumulate adoption debt (one vehicle answering for many
    #: pairs) that one revival can now retire.  Off by default: every
    #: existing run keeps its golden hashes.
    hand_back: bool = False
    #: Gossip mode: digest recipients per vehicle per round, drawn from
    #: the sender's own cube (every reporter, watcher and attester of a
    #: pair lives there), so news spreads within a cube of ``k`` vehicles
    #: in O(log k) rounds at any constant >= 1.
    gossip_fanout: int = 2
    #: Gossip mode: distinct silence reporters required before a watcher
    #: even *suspects* a pair (1 restores single-observer sensitivity).
    suspicion_threshold: int = 2
    #: Gossip mode: granted co-signatures (beyond the watcher's own view)
    #: required before a suspected pair's replacement search starts.  The
    #: attested takeover masks up to ``quorum - 1`` Byzantine watchers.
    quorum: int = 2

    def __post_init__(self) -> None:
        if self.monitoring not in (False, True, "ring", "gossip"):
            raise ValueError(
                "monitoring must be False, True, 'ring' or 'gossip', "
                f"got {self.monitoring!r}"
            )
        for name in ("gossip_fanout", "suspicion_threshold", "quorum"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        miss = self.heartbeat_miss_threshold
        if not isinstance(miss, int) or miss < 2:
            # A round's heartbeats are checked before they are delivered,
            # so a live pair always reads one round old: below 2 every
            # healthy pair looks silent every round.
            raise ValueError(
                f"heartbeat_miss_threshold must be an integer >= 2, got {miss!r}"
            )
        if self.quorum > self.suspicion_threshold:
            raise ValueError(
                f"quorum ({self.quorum}) must not exceed suspicion_threshold "
                f"({self.suspicion_threshold}): a suspicion that cannot gather "
                "enough independent reports can never gather more co-signers"
            )
        if self.monitoring == "gossip" and self.escalation:
            raise ValueError(
                "monitoring='gossip' does not compose with escalation mode yet"
            )


@dataclass
class FleetStats:
    """Counters accumulated during a run."""

    jobs_delivered: int = 0
    jobs_unserved: int = 0
    done_events: int = 0
    searches_started: int = 0
    replacements: int = 0
    failed_replacements: int = 0
    suppressed_initiations: int = 0
    watch_initiations: int = 0
    heartbeat_rounds: int = 0
    escalations_started: int = 0
    escalated_replacements: int = 0
    adoptions: int = 0
    hand_backs: int = 0
    #: Gossip mode: quorum collections opened (SuspectMessage broadcasts).
    suspicions: int = 0
    #: Gossip mode: co-signatures granted by attesters.
    attestations: int = 0
    #: Gossip mode: attestation requests an attester declined (silence).
    refused_attestations: int = 0
    #: Gossip mode: suspicions raised against a pair whose registered
    #: vehicle was in fact alive and active (ground-truth audit counter).
    false_suspicions: int = 0


class Fleet:
    """All vehicles, their network, and the pair registry."""

    def __init__(
        self,
        demand: DemandMap,
        omega: float,
        config: Optional[FleetConfig] = None,
        *,
        failure_plan: Optional[FailurePlan] = None,
        transport: Optional[Transport] = None,
        window: Optional[Box] = None,
    ) -> None:
        if demand.is_empty():
            raise ValueError("cannot build a fleet for an empty demand map")
        if omega <= 0:
            raise ValueError("omega must be positive")
        if config is None:
            # In-body default: a ``FleetConfig()`` default *argument* would
            # be evaluated once at import time and shared by every fleet --
            # harmless only as long as the config stays frozen, and a trap
            # the moment anyone adds a mutable field.
            config = FleetConfig()
        self.demand = demand
        self.omega = float(omega)
        self.config = config
        self.dim = demand.dim
        self.cube_side = max(1, int(math.ceil(omega)))
        self.failure_plan = failure_plan if failure_plan is not None else FailurePlan()

        self.simulator = Simulator()
        self.network = Network(
            self.simulator,
            delay=config.message_delay,
            failure_plan=self.failure_plan,
            transport=transport,
        )

        #: The lattice window the cube partition tiles.  A sharded worker
        #: passes the *global* run's window explicitly so its sub-fleet's
        #: cube geometry (indices, level boxes, parities) matches the
        #: single-process run exactly; ``plan_window`` over a restricted
        #: demand would re-anchor the grid.
        self.window: Box = (
            window if window is not None else plan_window(demand, self.cube_side)
        )
        self.cube_grid = CubeGrid(self.window, self.cube_side)
        #: The dyadic coarsening of the cube partition -- the escalation
        #: geometry of cross-cube replacement searches.
        self.hierarchy = CubeHierarchy(self.cube_grid)
        #: The flat-array core: dense vehicle indices, contiguous state
        #: arrays, and the batch-construction scaffolding (see
        #: :mod:`repro.vehicles.registry`).  Must exist before any
        #: :class:`VehicleProcess` is created -- vehicles allocate their
        #: live-state slots in it.
        self.flat = FleetRegistry(self.window)
        self.colorings: Dict[Tuple[int, ...], Coloring] = {}
        self.vehicles: Dict[Point, VehicleProcess] = {}
        #: pair black vertex -> identity of the vehicle currently responsible.
        self.registry: Dict[Point, Point] = {}
        #: Any vertex of a built cube -> its pair's black vertex.  The job
        #: router's hot path: one dict lookup instead of a cube-index /
        #: coloring walk per delivered job.
        self._pair_of_position: Dict[Point, Point] = {}
        #: Pair black vertex -> multi-index of the cube it belongs to.
        self._pair_cube: Dict[Point, Tuple[int, ...]] = {}
        #: Cube multi-index -> sorted identities of the vehicles currently
        #: resident there.  Static after construction in intra-cube mode;
        #: escalated takeovers and adoptions keep it current as vehicles
        #: cross boundaries.
        self._cube_members: Dict[Tuple[int, ...], Tuple[Point, ...]] = {}

        self.stats = FleetStats()
        self._computation_round = 0
        self._heartbeat_round = 0
        #: Detection-latency observability: pair -> heartbeat round at
        #: which its registered vehicle crashed, pending first (attested)
        #: replacement initiation; resolved deltas accumulate in
        #: ``detection_digest`` (heartbeat-round units, both ring and
        #: gossip modes).
        self._crash_rounds: Dict[Point, int] = {}
        # Local import: ``repro.service`` imports this module at package
        # init, so a top-level import here would be circular.  The metrics
        # module itself has no ``repro`` imports at all.
        from repro.service.metrics import LatencyDigest

        self.detection_digest = LatencyDigest()
        #: Dense-index -> vehicle list backing the registry-native round
        #: path (built on first use).
        self._by_index_cache: Optional[List[VehicleProcess]] = None
        #: The failure detector's per-cube blocks (ring and gossip alike),
        #: allocated by the first heartbeat round or detector write
        #: (:meth:`detector_blocks`); ``None`` until then.
        self.detector: Optional[DetectorBlocks] = None

        self._build_vehicles()

        #: The fleet-wide monitoring ring of escalation mode (pair ->
        #: watched pair); ``None`` when running the cube-local loop.
        self.watch_ring: Optional[Dict[Point, Point]] = None
        self._ring_inverse: Dict[Point, Point] = {}
        if config.escalation:
            self.watch_ring = hierarchical_watch_ring(
                {
                    index: [pair.black for pair in coloring.pairs]
                    for index, coloring in self.colorings.items()
                }
            )
            self._ring_inverse = watch_ring_inverse(self.watch_ring)
            for vehicle in self.vehicles.values():
                if vehicle.pair_key is not None:
                    vehicle.monitored_pair = self.watched_pair(vehicle.pair_key)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _cubes_with_demand(self) -> List[Tuple[int, ...]]:
        support = self.demand.support_array()
        lo = np.asarray(self.window.lo, dtype=np.int64)
        indices = (support - lo) // self.cube_side
        # np.unique over rows sorts lexicographically -- the same order the
        # historical sorted-set-of-tuples produced.
        return [tuple(row) for row in np.unique(indices, axis=0).tolist()]

    def _build_vehicles(self) -> None:
        """Construct every cube's vehicles from batched array computation.

        All per-cube structure (snake pairing, neighbor graphs, initial
        activity, watch targets) comes from the shape/parity templates of
        :mod:`repro.vehicles.registry`, computed once per distinct cube
        geometry instead of once per cube; absolute vertex tuples are
        materialized with one broadcasted add + ``tolist`` pass per
        template group.  Creation order -- cubes sorted, vertices
        lexicographic -- and every produced structure are identical to the
        historical per-vehicle loops (pinned by the template unit tests
        and the flat-core byte-identity goldens).
        """
        # Construction allocates O(fleet) small objects in one burst; the
        # generational GC otherwise triggers dozens of collections that
        # rescan the growing object graph (measured at ~half of 10^4-vehicle
        # construction time).  Nothing built here is garbage, so defer
        # collection until the burst is over.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._build_vehicles_inner()
        finally:
            if gc_was_enabled:
                gc.enable()

    def _build_vehicles_inner(self) -> None:
        radius = self.config.neighbor_radius
        indices = self._cubes_with_demand()
        registry = self.flat
        los, his = self.cube_grid.cube_bounds(indices)
        shapes = (his - los + 1).tolist()
        parities = (los.sum(axis=1) % 2).tolist()
        keys = [(tuple(s), int(p)) for s, p in zip(shapes, parities)]
        lo_tuples = [tuple(row) for row in los.tolist()]
        hi_tuples = [tuple(row) for row in his.tolist()]

        # Materialize all vertex tuples group-by-group: cubes of one
        # (shape, parity) class are translates of a single template.
        by_key: Dict[Tuple[Tuple[int, ...], int], List[int]] = {}
        for position, key in enumerate(keys):
            by_key.setdefault(key, []).append(position)
        verts_of_cube: List[Tuple[Point, ...]] = [None] * len(indices)  # type: ignore[list-item]
        coords_of_cube: List[np.ndarray] = [None] * len(indices)  # type: ignore[list-item]
        for key, positions in by_key.items():
            template = pairing_template(*key)
            k = template.size
            block = template.rel[None, :, :] + los[positions, None, :]
            flat = tuple(map(tuple, block.reshape(-1, self.dim).tolist()))
            coords = block.reshape(-1, self.dim)
            for j, position in enumerate(positions):
                verts_of_cube[position] = flat[j * k : (j + 1) * k]
                coords_of_cube[position] = coords[j * k : (j + 1) * k]

        capacity = self.config.capacity
        done_threshold = self.config.done_threshold
        vehicles = self.vehicles
        network = self.network
        pair_registry = self.registry
        cube_bases = registry.add_cubes(
            [
                (
                    index,
                    pairing_template(*keys[position]),
                    verts_of_cube[position],
                    coords_of_cube[position],
                )
                for position, index in enumerate(indices)
            ]
        )
        for position, index in enumerate(indices):
            key = keys[position]
            template = pairing_template(*key)
            neighbor_lists = adjacency_template(key[0], radius)
            verts = verts_of_cube[position]
            coloring = coloring_for_cube(
                lo_tuples[position], hi_tuples[position], verts=verts
            )
            self.colorings[index] = coloring
            self._cube_members[index] = verts
            base, pair_keys = cube_bases[position]
            whites = [
                verts[w] if w >= 0 else None for w in template.pair_white_list
            ]
            self._pair_cube.update(dict.fromkeys(pair_keys, index))
            pair_of_position = self._pair_of_position
            pair_of_position.update(zip(pair_keys, pair_keys))
            pair_of_position.update(
                (white, black)
                for white, black in zip(whites, pair_keys)
                if white is not None
            )
            active_flags = template.active_list
            vertex_pair = template.vertex_pair_list
            monitored_lex = template.monitored_list
            cube_vehicles = []
            for i, vertex in enumerate(verts):
                initially_active = active_flags[i]
                pair_key = pair_keys[vertex_pair[i]] if initially_active else None
                monitored = (
                    verts[monitored_lex[i]]
                    if initially_active and monitored_lex[i] >= 0
                    else None
                )
                vehicle = VehicleProcess(
                    vertex,
                    cube_index=index,
                    coloring=coloring,
                    initially_active=initially_active,
                    capacity=capacity,
                    neighbors=[verts[j] for j in neighbor_lists[i]],
                    fleet=self,
                    done_threshold=done_threshold,
                    cube_peers=verts[:i] + verts[i + 1 :],
                    index=base + i,
                    pair_key=pair_key,
                    monitored_pair=monitored,
                )
                vehicles[vertex] = vehicle
                cube_vehicles.append(vehicle)
                if initially_active:
                    pair_registry[pair_key] = vertex
            network.register_all(cube_vehicles)
        registry.finalize()

    # ------------------------------------------------------------------ #
    # protocol plumbing (called by vehicles)
    # ------------------------------------------------------------------ #

    def next_computation_round(self) -> int:
        """Fresh sequence number for a diffusing computation."""
        self._computation_round += 1
        return self._computation_round

    @property
    def heartbeat_round(self) -> int:
        """The current heartbeat round number."""
        return self._heartbeat_round

    def record_done(self, identity: Point) -> None:
        self.stats.done_events += 1

    def record_search_started(self, tag) -> None:
        self.stats.searches_started += 1

    def record_failed_replacement(self, pair_key: Point) -> None:
        self.stats.failed_replacements += 1

    def record_suppressed_initiation(self, identity: Point) -> None:
        self.stats.suppressed_initiations += 1

    def record_watch_initiation(self, identity: Point, pair_key: Point) -> None:
        self.stats.watch_initiations += 1
        self._record_detection(pair_key)

    def _record_detection(self, pair_key: Point) -> None:
        """Close the detection-latency clock of a crashed pair (first
        replacement initiation on its behalf; later retries don't count)."""
        crashed = self._crash_rounds.pop(pair_key, None)
        if crashed is not None:
            self.detection_digest.add(float(self._heartbeat_round - crashed))

    def record_suspicion(self, identity: Point, pair_key: Point) -> None:
        """A watcher opened a quorum collection for ``pair_key``.

        The ground-truth audit runs here: a suspicion against a pair whose
        registered vehicle is alive and active is *false* -- the count the
        quorum exists to keep out of the takeover path.
        """
        self.stats.suspicions += 1
        registered = self.registry.get(pair_key)
        vehicle = self.vehicles.get(registered) if registered is not None else None
        if (
            vehicle is not None
            and not vehicle.broken
            and vehicle.status.working == WorkingState.ACTIVE
        ):
            self.stats.false_suspicions += 1

    def record_attestation(self, identity: Point, pair_key: Point, granted: bool) -> None:
        if granted:
            self.stats.attestations += 1
        else:
            self.stats.refused_attestations += 1

    def cube_members(self, index: Tuple[int, ...]) -> Tuple[Point, ...]:
        """Sorted identities resident in cube ``index``: the gossip peer
        pool of every vehicle living there.

        One shared tuple per cube, not a copy.  Reassignment-only contract,
        as for ``cube_peers``: rehoming, adoption and a released adoption
        *replace* the cube's tuple, so a checkpoint can hold it uncopied.
        Broken vehicles stay in it (their radios still receive; handlers
        guard), so peer selection is a pure function of residency:
        identical at any worker or shard count (shards own whole cubes)
        and across checkpoint restores.
        """
        return self._cube_members.get(index, ())

    def detector_blocks(self) -> DetectorBlocks:
        """The failure detector's blocks, allocated on first use."""
        if self.detector is None:
            self.detector = DetectorBlocks(self)
        return self.detector

    def record_escalation_started(self, tag) -> None:
        self.stats.escalations_started += 1

    def record_escalated_replacement(self, *, spare: bool) -> None:
        """An escalated move order was *accepted* (migration or adoption)."""
        self.stats.escalated_replacements += 1

    def on_activation(self, identity: Point, pair_key: Point) -> None:
        """A replacement vehicle took over ``pair_key``."""
        self.registry[pair_key] = identity
        self.stats.replacements += 1

    def registered_vehicle(self, pair_key: Point) -> Optional[Point]:
        """Identity of the vehicle currently registered for a pair."""
        return self.registry.get(pair_key)

    # ------------------------------------------------------------------ #
    # cross-cube escalation plumbing (escalation mode)
    # ------------------------------------------------------------------ #

    def is_pair_key(self, pair_key: Point) -> bool:
        """Whether ``pair_key`` names a real pair of some built cube."""
        return pair_key in self._pair_cube

    def watched_pair(self, pair_key: Point) -> Optional[Point]:
        """The fleet-wide ring's watch target for ``pair_key`` (escalation
        mode); falls back to the pair itself only in a one-pair fleet."""
        if self.watch_ring is None:
            return None
        return self.watch_ring.get(pair_key)

    def escalation_targets(
        self, cube_index: Tuple[int, ...], level: int, *, exclude: Point
    ) -> List[Point]:
        """Identities queried by escalation level ``level`` of a search
        rooted in ``cube_index``: every vehicle resident in the built cubes
        of the hierarchy's level-``level`` escalation ring, deterministic
        (ring cubes lexicographic, members sorted)."""
        targets: List[Point] = []
        for index in self.hierarchy.siblings(cube_index, level):
            members = self._cube_members.get(index)
            if not members:
                continue
            targets.extend(m for m in members if m != exclude)
        return targets

    def escalation_rings(
        self, origin_index: Tuple[int, ...], pair_key: Point, *, exclude: Point
    ) -> List[List[Point]]:
        """The full escalation ladder for a search serving ``pair_key``.

        The ladder is rooted at the *destination pair's* cube, not the
        initiator's: a watcher may sit arbitrarily far from the pair it
        monitors (the fleet-wide ring wraps around), and rooting the
        widening at the initiator would find "nearby" volunteers that are
        nearby *the watcher* -- maximally far from where the replacement
        must walk to.  Ring 0 is the destination cube itself (the one cube
        the initiator's intra-cube flood never visited when the search
        crossed a boundary); ring ``k`` adds the base cubes newly covered
        by the destination cube's level-``k`` ancestor.  Empty rings are
        skipped; only non-empty ones are returned, nearest first.
        """
        root = self._pair_cube.get(pair_key, origin_index)
        rings: List[List[Point]] = []
        if root != origin_index:
            members = [m for m in self._cube_members.get(root, ()) if m != exclude]
            if members:
                rings.append(members)
        for level in range(1, self.hierarchy.levels + 1):
            targets = self.escalation_targets(root, level, exclude=exclude)
            if targets:
                rings.append(targets)
        return rings

    def heartbeat_audience(self, pair_key: Point, *, exclude: Point) -> List[Point]:
        """Who must hear the heartbeat for ``pair_key``: the pair's own cube
        plus the cube of its ring watcher (monitoring pointers may cross
        cube boundaries in escalation mode)."""
        cubes = {self._pair_cube[pair_key]}
        watcher = self._ring_inverse.get(pair_key)
        if watcher is not None:
            cubes.add(self._pair_cube[watcher])
        audience = {
            member
            for index in cubes
            for member in self._cube_members.get(index, ())
        }
        audience.discard(exclude)
        return sorted(audience)

    def activation_audience(self, pair_key: Point, *, exclude: Point) -> List[Point]:
        """Members of the pair's cube (minus the activating vehicle)."""
        members = self._cube_members.get(self._pair_cube[pair_key], ())
        return [m for m in members if m != exclude]

    def rehome_vehicle(self, vehicle: VehicleProcess, pair_key: Point) -> None:
        """An idle vehicle took over a pair in *another* cube: move its
        residency -- coloring, cube index, member lists, and communication
        graph -- to that cube.  Without the graph rewire the migrant's
        later Phase I floods would query its *old* cube's vehicles (an
        intra-cube query crossing a boundary) and miss idle peers standing
        right next to it."""
        new_index = self._pair_cube[pair_key]
        self._remove_member(vehicle.cube_index, vehicle.identity)
        self._insert_member(new_index, vehicle.identity)
        vehicle.cube_index = new_index
        coloring = self.colorings[new_index]
        vehicle.coloring = coloring
        vertices = list(coloring.cube.points())
        vehicle.neighbors = [
            vertex
            for vertex in vertices
            if vertex != vehicle.identity
            and manhattan(vertex, vehicle.position) <= self.config.neighbor_radius
        ]
        vehicle.cube_peers = tuple(v for v in vertices if v != vehicle.identity)
        if self.detector is not None:
            self.detector.rehome(vehicle)

    def on_adoption(self, identity: Point, pair_key: Point) -> None:
        """An active vehicle adopted a far pair: it now *also* resides in
        the pair's cube (it hears and is heard by that cube's broadcasts)."""
        self.stats.adoptions += 1
        self._insert_member(self._pair_cube[pair_key], identity)

    def on_hand_back(self, identity: Point, pair_key: Point) -> None:
        """A revived owner reclaimed its pair from an adopter.

        Counted separately from ``replacements`` -- nothing was searched or
        moved, responsibility just returned home -- so every result field a
        golden hash covers is untouched by the hand-back protocol.
        """
        self.registry[pair_key] = identity
        self.stats.hand_backs += 1

    def on_adoption_released(self, identity: Point, pair_key: Point) -> None:
        """An adopter dropped ``pair_key``: retire its residency in the
        pair's cube unless something else still anchors it there (its own
        pair, its home cube, or another adopted pair)."""
        index = self._pair_cube[pair_key]
        vehicle = self.vehicles[identity]
        if vehicle.cube_index == index:
            return
        if self._pair_cube.get(vehicle.pair_key) == index:
            return
        if any(self._pair_cube.get(p) == index for p in vehicle.adopted_pairs):
            return
        self._remove_member(index, identity)

    def _insert_member(self, index: Tuple[int, ...], identity: Point) -> None:
        """Add ``identity`` to cube ``index``'s sorted members (a new tuple)."""
        members = self._cube_members.get(index, ())
        position = bisect.bisect_left(members, identity)
        if position >= len(members) or members[position] != identity:
            self._cube_members[index] = members[:position] + (identity,) + members[position:]

    def _remove_member(self, index: Tuple[int, ...], identity: Point) -> None:
        """Take ``identity`` out of cube ``index``'s members (a new tuple)."""
        members = self._cube_members.get(index)
        if members is not None and identity in members:
            self._cube_members[index] = tuple(m for m in members if m != identity)

    # ------------------------------------------------------------------ #
    # job routing
    # ------------------------------------------------------------------ #

    def pair_key_of(self, position: Point) -> Point:
        """The black vertex of the pair containing ``position``."""
        position = tuple(int(c) for c in position)
        pair_key = self._pair_of_position.get(position)
        if pair_key is not None:
            return pair_key
        # Slow path only for error reporting on unroutable positions.
        if position not in self.window:
            raise KeyError(f"position {position} lies outside the fleet's window")
        raise KeyError(f"no vehicles were built for the cube containing {position}")

    def responsible_vehicle(self, position: Point) -> Optional[VehicleProcess]:
        """The vehicle currently answering for ``position``'s pair, if any."""
        identity = self.registry.get(self.pair_key_of(position))
        if identity is None:
            return None
        return self.vehicles[identity]

    def route_positions(self, positions) -> List[Optional[Point]]:
        """Whole-sequence arrival routing: positions -> pair black vertices.

        One vectorized ``pair_ids_of`` lookup resolves the entire batch;
        ``None`` marks positions no built cube covers (delivering those
        falls back to the scalar path, which reports the historical
        ``KeyError``).  The returned keys feed ``deliver_job(pair_key=...)``
        so per-arrival dispatch skips the position->pair dict chain.
        """
        if not len(positions):
            return []
        flat = self.flat
        keys = flat.pair_keys
        if len(positions) <= 8:
            # Steady-state streaming refills one arrival at a time; the
            # scalar read beats a one-row numpy round-trip by ~20x (the
            # property suite pins both paths to the same answers).
            ids = [flat.pair_id_at(position) for position in positions]
        else:
            ids = flat.pair_ids_of(np.asarray(positions, dtype=np.int64)).tolist()
        return [keys[i] if i >= 0 else None for i in ids]

    def deliver_job(
        self,
        position: Point,
        energy: float = 1.0,
        *,
        settle: bool = True,
        pair_key: Optional[Point] = None,
    ) -> bool:
        """Route one job to its pair's active vehicle.

        Returns whether the job was actually served.  The caller decides how
        to handle a refusal (retry after recovery rounds, or count it as
        unserved).  With ``settle=True`` (the round-mode default) the network
        is drained before returning -- the thesis assumes inter-arrival gaps
        long enough for any protocol activity (Phase I/II) to complete.  The
        event-mode harness passes ``settle=False`` and lets the shared
        simulator process protocol messages in timestamp order between
        arrival events instead.  ``pair_key`` short-circuits routing with a
        pre-resolved pair (see :meth:`route_positions`).
        """
        self.stats.jobs_delivered += 1
        if pair_key is None:
            vehicle = self.responsible_vehicle(position)
        else:
            identity = self.registry.get(pair_key)
            vehicle = self.vehicles[identity] if identity is not None else None
        served = False
        if vehicle is not None and not vehicle.broken:
            served = vehicle.serve_job(position, energy)
        if not served:
            self.stats.jobs_unserved += 1
        if settle:
            self.settle()
        return served

    def retry_job(self, position: Point, energy: float = 1.0, *, settle: bool = True) -> bool:
        """Retry a previously unserved job (after recovery); adjusts counters."""
        vehicle = self.responsible_vehicle(position)
        if vehicle is None or vehicle.broken:
            return False
        served = vehicle.serve_job(position, energy)
        if served:
            self.stats.jobs_unserved -= 1
        if settle:
            self.settle()
        return served

    def settle(self) -> None:
        """Drain all in-flight messages."""
        self.network.run_until_quiescent()

    # ------------------------------------------------------------------ #
    # monitoring
    # ------------------------------------------------------------------ #

    def _vehicles_by_index(self) -> List[VehicleProcess]:
        """Dense-index -> vehicle lookup, in registry slot order (the
        historical dict order): every slot holds a vehicle the batch
        constructor built."""
        if self._by_index_cache is None:
            vehicles = self.vehicles
            self._by_index_cache = [vehicles[identity] for identity in self.flat.identities]
        return self._by_index_cache

    def run_heartbeat_round(self, *, settle: bool = True) -> None:
        """One monitoring round: every live active vehicle heartbeats.

        Before the heartbeats, the search-starvation clocks tick: a
        diffusing computation stuck across ``config.search_timeout_rounds``
        rounds (possible only when the transport lost or corrupted its
        replies) is abandoned through the legal Figure 3.1 arrows, so the
        watch loop cannot deadlock.

        The sweep is registry-native: only the engaged set (vehicles with
        non-trivial search state -- for every other vehicle the tick is a
        strict no-op) is ticked, and the round's sender set is one
        vectorized read of the state/broken arrays, so a fully quiescent
        round costs O(active) instead of two O(n) object walks.  Both
        iterations run in ascending dense-index order -- the historical
        dict order -- so message sequence numbers (and with them every
        golden hash) are unchanged.

        The send phase runs in a
        :meth:`~repro.distsim.network.Network.deferred_sends` scope: on a
        fixed-delay channel (reliable or lossy) the round's surviving
        sends become one queue entry when it ends, a lossy channel
        resolving their loss draws together first -- the same deliveries,
        counters and hashes as per-message sends.
        """
        self._heartbeat_round += 1
        self.stats.heartbeat_rounds += 1
        with self.network.deferred_sends():
            self._heartbeat_sends(self._heartbeat_round)
        if settle:
            self.settle()

    def _heartbeat_sends(self, round_id: int) -> None:
        """The send phase of :meth:`run_heartbeat_round`."""
        timeout = self.config.search_timeout_rounds
        miss = self.config.heartbeat_miss_threshold
        flat = self.flat
        by_index = self._vehicles_by_index()
        for index in sorted(flat.engaged):
            by_index[index].tick_search_timeout(timeout)
        senders = np.nonzero(
            (flat.state_view() == STATE_ACTIVE) & (flat.broken_view() == 0)
        )[0]
        blocks = self.detector_blocks()  # before any heartbeat is delivered
        if self.config.escalation:
            # Escalation-mode heartbeats carry adopted pairs and ring watch
            # duties; their per-vehicle state does not vectorize, so every
            # live active vehicle goes through the full object path.
            for index in senders.tolist():
                by_index[index].heartbeat(round_id, miss)
        elif self.config.monitoring == "gossip":
            # The epidemic detector ticks every live vehicle, idle ones
            # included: silence reporting and digest relaying need no pair
            # of their own, and a cube whose crash left few active members
            # still musters enough independent reporters and co-signers.
            # The round is block reads of the detector state of every
            # ticking vehicle; each vehicle only makes its sends.
            blocks.run_round(round_id, miss, np.nonzero(flat.broken_view() == 0)[0])
        else:
            self._plain_heartbeats(senders, round_id, miss, by_index)

    def _plain_heartbeats(
        self,
        senders: np.ndarray,
        round_id: int,
        miss: int,
        by_index: List[VehicleProcess],
    ) -> None:
        """Cube-local heartbeats with the miss check precomputed in bulk.

        The watched-pair expiry test is one gather of the senders' watched
        cells in the detector blocks
        (:meth:`~repro.vehicles.gossip.DetectorBlocks.watch_stale`); only
        vehicles whose watch fires take the full per-object ``heartbeat``
        path.  The rest emit exactly the
        broadcast the full path would have sent -- same message, same
        sequence position -- and nothing else, handed straight to
        :meth:`~repro.distsim.network.Network.send_many` (one network
        call per broadcast).
        """
        flat = self.flat
        flagged = self.detector_blocks().watch_stale(senders, round_id, miss)
        # An unflagged sender with no cube peers does nothing at all in the
        # loop below; dropping those up front makes a fully quiescent round
        # (singleton cubes, nothing watched) two vectorized reads instead
        # of an O(n) object sweep.
        live = flagged | (flat.peers_view()[senders] != 0)
        if not live.all():
            senders = senders[live]
            flagged = flagged[live]
        send_many = self.network.send_many
        for index, flag in zip(senders.tolist(), flagged.tolist()):
            vehicle = by_index[index]
            if flag:
                vehicle.heartbeat(round_id, miss)
                continue
            peers = vehicle._cube_peers
            if peers:
                identity = vehicle.identity
                send_many(identity, peers, ExistingMessage(identity, vehicle.pair_key, round_id))

    def crash_vehicle(self, identity: Point) -> None:
        """Scenario 3: the vehicle breaks down and becomes dead.

        A dead vehicle can no longer move, serve jobs or heartbeat, but its
        radio keeps relaying protocol messages (communication is free in the
        thesis's model), so diffusing computations still terminate.
        """
        identity = tuple(int(c) for c in identity)
        if identity not in self.vehicles:
            raise KeyError(f"no vehicle at {identity}")
        vehicle = self.vehicles[identity]
        # Start the detection-latency clock for every pair this vehicle
        # answers for (its own plus any adoptions); initial-dead crashes
        # land here at round 0, before monitoring starts.
        pairs = ([vehicle.pair_key] if vehicle.pair_key is not None else []) + list(
            vehicle.adopted_pairs
        )
        for pair_key in pairs:
            if self.registry.get(pair_key) == identity:
                self._crash_rounds.setdefault(pair_key, self._heartbeat_round)
        vehicle.mark_broken()

    def revive_vehicle(self, identity: Point) -> None:
        """Churn rejoin: the broken vehicle at ``identity`` is repaired.

        The repaired vehicle keeps its working state; if a replacement has
        already taken over its pair it simply rejoins as a healthy idle
        peer available to later searches.
        """
        identity = tuple(int(c) for c in identity)
        if identity not in self.vehicles:
            raise KeyError(f"no vehicle at {identity}")
        vehicle = self.vehicles[identity]
        vehicle.mark_repaired()
        # A revival before detection cancels the latency clock: the pair
        # is answered for again without any replacement having initiated.
        for pair_key in [p for p in self._crash_rounds if self.registry.get(p) == identity]:
            del self._crash_rounds[pair_key]
        if self.config.hand_back:
            self._offer_hand_back(vehicle)

    def _offer_hand_back(self, vehicle: VehicleProcess) -> None:
        """Proactive load shedding on a churn rejoin (``config.hand_back``).

        If the revived vehicle was active for a pair that an adopter is
        meanwhile answering for, ask the adopter to offer the pair back:
        the adopter sends the revived owner the legal escalated move order,
        the owner's reclaim re-registers the pair and broadcasts an
        activation notice, and the notice releases the adoption.  Every hop
        is an ordinary protocol message, so the exchange is drop-safe under
        a lossy transport: a lost order leaves the adopter serving (status
        quo), a lost notice leaves the registry pointing at the owner while
        the adopter redundantly heartbeats -- never an orphaned pair.
        """
        pair_key = vehicle.pair_key
        if pair_key is None or vehicle.status.working != WorkingState.ACTIVE:
            return
        holder_identity = self.registry.get(pair_key)
        if holder_identity is None or holder_identity == vehicle.identity:
            return
        holder = self.vehicles.get(holder_identity)
        if holder is None or holder.broken or pair_key not in holder.adopted_pairs:
            return
        holder.offer_hand_back(pair_key, vehicle.identity)

    # ------------------------------------------------------------------ #
    # measurements
    # ------------------------------------------------------------------ #

    def vehicle_energies(self) -> Dict[Point, float]:
        """Energy used so far, per vehicle home vertex.

        One pass over the registry's contiguous energy ledgers; the
        per-element sums are the exact floating-point operation the
        per-vehicle ``energy_used`` property performs, so the dictionary is
        byte-identical to the historical per-object gather.
        """
        flat = self.flat
        energies = [t + s for t, s in zip(flat.travel, flat.service)]
        return dict(zip(flat.identities, energies))

    def max_energy_used(self) -> float:
        """The largest per-vehicle energy drawn so far."""
        flat = self.flat
        return max((t + s for t, s in zip(flat.travel, flat.service)), default=0.0)

    def total_travel(self) -> float:
        """Total travel energy across the fleet (sequential sum -- the same
        float-addition order the per-object generator produced)."""
        return sum(self.flat.travel)

    def total_service(self) -> float:
        """Total service energy across the fleet."""
        return sum(self.flat.service)

    def active_vehicle_count(self) -> int:
        """Number of vehicles currently in the active working state (one
        vectorized read of the registry's state array)."""
        return int((self.flat.state_view() == STATE_ACTIVE).sum())

    def messages_sent(self) -> int:
        """Total protocol messages sent so far."""
        return self.network.messages_sent

    def messages_dropped(self) -> int:
        """Messages lost to failures or the transport so far."""
        return self.network.messages_dropped

    def messages_corrupted(self) -> int:
        """Messages the transport mutated in flight so far."""
        return self.network.transport.messages_corrupted

    @property
    def transport_kind(self) -> str:
        """Registry name of the delivery model this run uses."""
        return self.network.transport.kind
