"""The vehicle process: job service, Phase I/II, heartbeats.

One :class:`VehicleProcess` lives at every vertex of every cube that can
receive jobs.  The process implements, faithfully to Algorithm 2:

* **Job service.**  The active vehicle of a pair serves every job arriving
  at either vertex of its pair, walking at most distance one and spending
  walk-plus-service energy.  When its remaining energy drops below the
  ``done_threshold`` it declares itself done.
* **Phase I.**  A done vehicle initiates a Dijkstra--Scholten diffusing
  computation over the cube's communication graph to locate an idle
  vehicle; intermediate vehicles flood queries, aggregate replies with
  deficit counters and remember the first positive responder as their
  ``child``.
* **Phase II.**  The initiator relays a move order along the child path;
  the located idle vehicle walks to the done vehicle's position, becomes
  active for the pair, and broadcasts an activation notice.
* **Monitoring (Section 3.2.5).**  Active vehicles heartbeat every round;
  the watcher of a silent pair starts a replacement computation on its
  behalf (scenario 2, initiation failure, and scenario 3, dead vehicles).
  The gossip detector replaces the single watcher with silence reports
  and quorum-attested takeovers.  The process only does the message I/O
  and state writes: every detection decision -- the one staleness rule
  and the gossip suspect/attest/quorum rules -- is a plain function in
  :mod:`repro.vehicles.monitoring`, and a heartbeat round applies the
  staleness rule to the fleet's detector blocks at once
  (:class:`~repro.vehicles.gossip.DetectorBlocks`).
* **Cross-cube escalation (extension).**  The thesis keeps every search
  inside one cube, which leaves ``omega_c < 1`` workloads -- singleton
  cubes with no idle vehicles at all -- without any replacement path.
  With ``FleetConfig.escalation`` an initiator whose intra-cube flood
  terminates empty widens the search through the dyadic cube hierarchy
  (:class:`~repro.grid.cubes.CubeHierarchy`), sending ``EscalateQuery``
  boundary messages ring by ring and counting ``EscalateReply`` answers
  with a deficit counter at the initiator (the escalated round's
  termination-detection tree is a star).  An *idle* responder migrates
  as in Phase II; an *active* one with surplus battery may **adopt** the
  far pair in addition to its own -- the move that makes all-active
  fleets recoverable.  No new states: initiating, relaying and taking
  over all reuse the Figure 3.1 state machine.

Energy accounting is the whole point of the thesis, so it is explicit:
travel and service energies are tracked separately, a finite capacity is
enforced (a vehicle physically cannot overspend), and the fleet aggregates
the per-vehicle maxima the experiments report.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.distsim.process import Process
from repro.grid.coloring import Coloring
from repro.grid.lattice import Point, manhattan
from repro.vehicles.gossip import DetectorBlocks
from repro.vehicles.messages import (
    ActivationNotice,
    AttestMessage,
    ComputationTag,
    EscalateQuery,
    EscalateReply,
    ExistingMessage,
    GossipDigest,
    MoveMessage,
    QueryMessage,
    ReplyMessage,
    SuspectMessage,
)
from repro.vehicles.monitoring import (
    enough_reporters,
    grant_attestation,
    is_stale,
    quorum_reached,
    watched_pair_key,
)
from repro.vehicles.state import TransferState, VehicleStatus, WorkingState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vehicles.fleet import Fleet

__all__ = ["VehicleProcess"]

ENERGY_EPS = 1e-9


def _detector_field(read, write, empty, doc: str) -> property:
    """A vehicle field held in its row of the fleet's detector blocks
    (``empty()`` while the fleet has none; assigning allocates them)."""

    def get(vehicle: "VehicleProcess"):
        blocks = vehicle.fleet.detector
        return empty() if blocks is None else read(blocks, vehicle)

    def put(vehicle: "VehicleProcess", value) -> None:
        write(vehicle.fleet.detector_blocks(), vehicle, value)

    return property(get, put, doc=doc)


class VehicleProcess(Process):
    """A single vehicle of the online protocol.

    Parameters
    ----------
    home:
        The vehicle's home vertex: its identity (no separate attribute, to
        stay within CPython's shared-key limit of instance attributes).
    cube_index:
        Multi-index of the cube the vehicle belongs to.
    coloring:
        The cube's black/white pairing (shared by all vehicles of the cube).
    initially_active:
        Whether the vehicle starts active (black vertex of its pair).
    capacity:
        Battery capacity ``W``; ``None`` means unbounded (measurement mode).
    neighbors:
        Identities of the vehicles it can message directly (same cube,
        within the constant communication radius).
    fleet:
        Back-reference used for registry callbacks and statistics.
    cube_peers, index, pair_key, monitored_pair:
        Structure the fleet's batch constructor precomputes per cube
        template: the cube's other vehicles, the slot in the fleet's flat
        state arrays, the pair answered for and the pair watched.
    done_threshold:
        Remaining energy below which an active vehicle declares itself done.
    """

    #: Vehicles keep no :attr:`message_log`: nothing reads it, and under
    #: monitoring it would grow by one entry per heartbeat received.
    log_messages = False

    def __init__(
        self,
        home: Point,
        *,
        cube_index: tuple,
        coloring: Coloring,
        initially_active: bool,
        capacity: Optional[float],
        neighbors: List[Point],
        fleet: "Fleet",
        cube_peers: Sequence[Point],
        index: int,
        pair_key: Optional[Point],
        monitored_pair: Optional[Point],
        done_threshold: float = 2.0,
    ) -> None:
        super().__init__(home)
        #: Dense index into the fleet's flat state arrays (see
        #: :class:`~repro.vehicles.registry.FleetRegistry`), whose slots
        #: ``add_cubes`` pre-filled; current position starts at home.
        registry = fleet.flat
        self._index = index
        self._registry = registry

        self.cube_index = cube_index
        self.coloring = coloring
        self.capacity = capacity
        #: The constructor takes ownership of ``neighbors`` (the batch
        #: constructor builds a fresh list per vehicle; copying it again
        #: was pure overhead at 10^4-vehicle scale).
        self.neighbors = neighbors if type(neighbors) is list else list(neighbors)
        #: All other vehicles of the same cube.  Heartbeats and activation
        #: notices are broadcast cube-wide (communication is free in the
        #: thesis's model and a cube has constant diameter in omega), while
        #: the Phase I diffusing computation only uses the constant-radius
        #: ``neighbors`` graph, as in Algorithm 2.
        self.cube_peers = cube_peers
        # (The assignment above runs the ``cube_peers`` property setter,
        # which stores a tuple and mirrors the has-peers flag into the
        # registry.)
        self.fleet = fleet
        self.done_threshold = done_threshold
        #: Scenario 3: a broken ("dead") vehicle can no longer move, serve or
        #: heartbeat, but its radio still works (it answers queries), so the
        #: diffusing computations of its neighbors still terminate.
        self.broken = False

        self.status = VehicleStatus(
            working=WorkingState.ACTIVE if initially_active else WorkingState.IDLE,
            transfer=TransferState.WAITING,
            observer=self._on_working_change,
        )
        #: The black vertex of the pair this vehicle is responsible for
        #: (``None`` while idle).
        self.pair_key = pair_key
        #: The pair this vehicle watches for heartbeats (monitoring scheme);
        #: the registry's watch slots start out as "watching nothing".
        self._monitored_pair = None
        if monitored_pair is not None:
            self.monitored_pair = monitored_pair

        # Phase I bookkeeping (Algorithm 2 local data: num / par / child / init).
        # (Assigned directly: the ``engaged_tag`` setter consults clock and
        # escalation attributes that do not exist yet.)
        self._engaged_tag: Optional[ComputationTag] = None
        self.last_tag: Optional[ComputationTag] = None
        self.parent: Optional[Hashable] = None
        self.child: Optional[Hashable] = None
        self.deficit = 0
        #: Computations this vehicle initiated, keyed by tag; values carry the
        #: destination and pair being replaced.
        self.initiated: Dict[ComputationTag, Dict[str, Point]] = {}

        # Search-starvation clock: how many consecutive heartbeat rounds the
        # vehicle has been engaged in the same diffusing computation.
        self._engaged_tag_seen: Optional[ComputationTag] = None
        self._engaged_rounds = 0

        # Cross-cube escalation bookkeeping (escalation mode only).
        #: Pairs this vehicle *adopted* on top of its own (spare-battery
        #: volunteering across cube boundaries); it serves and heartbeats
        #: for them without giving up its own pair.
        self.adopted_pairs: List[Point] = []
        #: Escalated searches this vehicle is aggregating, keyed by tag:
        #: ``{"level", "pending", "candidates", "rounds"}`` -- the deficit
        #: counter and volunteer list of the star-shaped escalated round.
        self.escalations: Dict[ComputationTag, Dict[str, Any]] = {}

        # Views of the vehicle's row of the detector blocks, bound by them;
        # declared here because a later-added attribute slows every load.
        self._heard_cols: Optional[Dict[Point, int]] = None
        self._heard_row: Optional[memoryview] = None
        self._flagged = False

    # ------------------------------------------------------------------ #
    # flat-array state (the object API is a view over the registry)
    # ------------------------------------------------------------------ #

    @property
    def index(self) -> int:
        """Dense index into the fleet's flat state arrays."""
        return self._index

    @property
    def travel_energy(self) -> float:
        """Travel energy spent so far (registry-backed)."""
        return self._registry.travel[self._index]

    @travel_energy.setter
    def travel_energy(self, value: float) -> None:
        self._registry.travel[self._index] = value

    @property
    def jobs_served(self) -> int:
        """Jobs served so far (registry-backed)."""
        return self._registry.served[self._index]

    @jobs_served.setter
    def jobs_served(self, value: int) -> None:
        self._registry.served[self._index] = value

    @property
    def service_energy(self) -> float:
        """Service energy spent so far (registry-backed)."""
        return self._registry.service[self._index]

    @service_energy.setter
    def service_energy(self, value: float) -> None:
        self._registry.service[self._index] = value

    @property
    def position(self) -> Point:
        """Current lattice position (registry-backed)."""
        return self._registry.positions[self._index]

    @position.setter
    def position(self, value: Point) -> None:
        self._registry.positions[self._index] = value

    last_heard = _detector_field(
        DetectorBlocks.heard_of,
        DetectorBlocks.set_heard_of,
        dict,
        "Last heartbeat round heard per pair, in first-heard order.",
    )
    gossip_reports = _detector_field(
        DetectorBlocks.reports_of,
        DetectorBlocks.set_reports_of,
        dict,
        """Silence reports by pair, ``{pair_key: {reporter: report_round}}``,
        deduplicated by reporter identity (gossip only, as are the next
        two fields).""",
    )
    pending_suspicions = _detector_field(
        DetectorBlocks.suspicions_of,
        DetectorBlocks.set_suspicions_of,
        dict,
        """Open quorum collections by suspected pair, ``{pair_key:
        {"granted": set of co-signers, "round": last SuspectMessage
        round}}``.""",
    )
    _gossip_counter = _detector_field(
        DetectorBlocks.counter_of,
        DetectorBlocks.set_counter_of,
        int,
        "The draw counter keying deterministic peer selection.",
    )

    @property
    def monitored_pair(self) -> Optional[Point]:
        """The pair this vehicle watches for heartbeats (registry-backed,
        and the watch column of the detector blocks once they exist)."""
        return self._monitored_pair

    @monitored_pair.setter
    def monitored_pair(self, value: Optional[Point]) -> None:
        self._monitored_pair = value
        registry = self._registry
        registry.watch[self._index] = (
            -1 if value is None else registry.pair_id_of.get(value, -1)
        )
        blocks = self.fleet.detector
        if blocks is not None:
            blocks.watch(self, value)

    @property
    def cube_peers(self) -> Tuple[Point, ...]:
        """All other vehicles of the same cube (broadcast audience).

        Always a tuple: the setter converts any other sequence, so every
        residency change (construction, rehoming, checkpoint restore)
        *replaces* it and nothing can mutate it in place.  A broadcast to
        it is therefore scheduled without a copy of the audience (see
        :meth:`~repro.distsim.network.Network.send_many`).  The setter also
        mirrors a has-peers flag into the registry so the plain heartbeat
        round can drop peerless senders without touching the object.
        """
        return self._cube_peers

    @cube_peers.setter
    def cube_peers(self, value: Sequence[Point]) -> None:
        self._cube_peers = value if type(value) is tuple else tuple(value)
        self._registry.peers[self._index] = 1 if value else 0

    @property
    def engaged_tag(self) -> Optional[ComputationTag]:
        """Tag of the diffusing computation this vehicle is engaged in.

        The setter mirrors engagement into the registry's engaged set so
        the per-round protocol sweep touches only vehicles with non-trivial
        search state (see :meth:`~repro.vehicles.fleet.Fleet.run_heartbeat_round`).
        """
        return self._engaged_tag

    @engaged_tag.setter
    def engaged_tag(self, value: Optional[ComputationTag]) -> None:
        self._engaged_tag = value
        if value is not None:
            self._registry.engaged.add(self._index)
        else:
            self._release_engaged_bit()

    def _release_engaged_bit(self) -> None:
        """Drop out of the registry's engaged set once *all* search state is
        trivial: no engagement, no live escalations, and a zeroed
        starvation clock.  A broken-but-engaged vehicle keeps its bit --
        its clock must resume ticking after repair."""
        if (
            self._engaged_tag is None
            and not self.escalations
            and not self._engaged_rounds
            and self._engaged_tag_seen is None
        ):
            self._registry.engaged.discard(self._index)

    def _on_working_change(self, working: WorkingState) -> None:
        """Observer installed on :class:`VehicleStatus`: mirrors the working
        state into the registry's contiguous state array."""
        self._registry.state[self._index] = self._registry.state_code(working)

    # ------------------------------------------------------------------ #
    # energy accounting
    # ------------------------------------------------------------------ #

    @property
    def energy_used(self) -> float:
        """Total energy consumed so far (travel plus service)."""
        return self.travel_energy + self.service_energy

    @property
    def energy_remaining(self) -> float:
        """Remaining battery (infinite in measurement mode)."""
        if self.capacity is None:
            return math.inf
        return self.capacity - self.energy_used

    def _can_spend(self, amount: float) -> bool:
        return self.capacity is None or self.energy_used + amount <= self.capacity + ENERGY_EPS

    # ------------------------------------------------------------------ #
    # job service
    # ------------------------------------------------------------------ #

    def serve_job(self, position: Point, energy: float = 1.0) -> bool:
        """Serve a job at ``position``; returns ``False`` if it cannot.

        The fleet only routes a job here when this vehicle is the pair's
        registered active vehicle; the vehicle still re-checks its state and
        energy so that infeasibility (capacity too small) surfaces as an
        unserved job rather than a negative battery.
        """
        if self.broken or self.status.working != WorkingState.ACTIVE:
            return False
        position = tuple(int(c) for c in position)
        walk = manhattan(self.position, position)
        needed = walk + energy
        # Hot path: the energy ledger lives in the registry's flat arrays;
        # read/update it directly rather than through the per-field
        # properties.  Expression order matches ``_can_spend`` /
        # ``energy_remaining`` exactly: (travel + service) + needed and
        # capacity - (travel + service).
        registry = self._registry
        index = self._index
        capacity = self.capacity
        travel = registry.travel
        service = registry.service
        if capacity is not None and not (
            (travel[index] + service[index]) + needed <= capacity + ENERGY_EPS
        ):
            # Cannot serve: declare done immediately so a replacement comes.
            self._become_done()
            return False
        travel[index] += walk
        service[index] += energy
        registry.served[index] += 1
        self.position = position
        if capacity is not None and (
            capacity - (travel[index] + service[index]) < self.done_threshold
        ):
            self._become_done()
        return True

    def _become_done(self) -> None:
        if self.status.working != WorkingState.ACTIVE:
            return
        if self.status.transfer == TransferState.SEARCHING:
            # A relayed search the vehicle joined never terminated -- possible
            # only when failures (partitions, drops) ate its replies.  The
            # thesis assumes searches complete; under message loss the stale
            # engagement is abandoned through the legal Figure 3.1 arrow
            # (active, searching) -> (active, waiting) before going done, so
            # the state machine's invariant survives the adversary.
            self.engaged_tag = None
            self.status.set_transfer(TransferState.WAITING)
        pair_key = self.pair_key
        if self.fleet.failure_plan.is_initiation_suppressed(self.identity):
            # Scenario 2: the done vehicle silently fails to start Phase I;
            # the monitoring loop must recover.
            self.status.transition(WorkingState.DONE, TransferState.WAITING)
            self.fleet.record_suppressed_initiation(self.identity)
            return
        self.status.transition(WorkingState.DONE, TransferState.INITIATOR)
        self.fleet.record_done(self.identity)
        assert pair_key is not None
        self.start_replacement_search(destination=self.position, pair_key=pair_key)

    # ------------------------------------------------------------------ #
    # Phase I: initiating a diffusing computation
    # ------------------------------------------------------------------ #

    def start_replacement_search(self, *, destination: Point, pair_key: Point) -> None:
        """Initiate a diffusing computation to find an idle replacement.

        Called by a done vehicle for itself (Algorithm 2's first block) or
        by a watcher on behalf of a silent pair (Section 3.2.5).
        """
        tag: ComputationTag = (self.identity, self.fleet.next_computation_round())
        self.initiated[tag] = {"destination": destination, "pair_key": pair_key}
        self.engaged_tag = tag
        self.last_tag = tag
        self.parent = None
        self.child = None
        self.deficit = len(self.neighbors)
        self.fleet.record_search_started(tag)
        if self.deficit == 0:
            # No neighbors to flood (a singleton cube): the computation
            # terminates on the spot, so release the engagement before
            # finishing -- a lingering ``engaged_tag`` would make the
            # starvation clock re-enter ``_finish_own_computation`` later
            # (double-counting the failure, or restarting a whole
            # escalation ladder for an already-dispatched replacement) and
            # would suspend the initiator's watch duty for nothing.
            self.engaged_tag = None
            self.status.set_transfer(TransferState.WAITING)
            self._finish_own_computation(tag)
            return
        self.send_many(
            self.neighbors, QueryMessage(tag, self.identity, destination, pair_key)
        )

    # ------------------------------------------------------------------ #
    # message dispatch
    # ------------------------------------------------------------------ #

    def on_message(self, sender: Hashable, message: Any) -> None:
        if type(message) is ExistingMessage:
            # The heartbeat: nearly all of a monitored run's traffic, so the
            # common cases of the blocks' freshness merge run here, in the
            # one call every delivery makes, on the vehicle's row view: a
            # round no fresher costs one read, and a fresher one for a pair
            # already heard, at a vehicle with no silence report or
            # suspicion open, one write.  Everything else takes
            # ``note_heard``.
            pair_key = message.pair_key
            round_id = message.round_id
            col = self._heard_cols.get(pair_key)
            if col is not None:
                heard_row = self._heard_row
                previous = heard_row[col]
                if round_id <= previous:
                    return
                if previous >= 0 and not self._flagged:
                    heard_row[col] = round_id
                    return
            self.fleet.detector.note_heard(self, pair_key, round_id)
        elif type(message) is GossipDigest:
            if not self.broken:
                self.fleet.detector.merge_digest(self, message.heard, message.silent)
        elif isinstance(message, QueryMessage):
            self._on_query(sender, message)
        elif isinstance(message, ReplyMessage):
            self._on_reply(sender, message)
        elif isinstance(message, MoveMessage):
            self._on_move(sender, message)
        elif isinstance(message, ActivationNotice):
            self._on_activation_notice(message)
        elif isinstance(message, EscalateQuery):
            self._on_escalate_query(sender, message)
        elif isinstance(message, EscalateReply):
            self._on_escalate_reply(sender, message)
        elif isinstance(message, SuspectMessage):
            self._on_suspect(message)
        elif isinstance(message, AttestMessage):
            self._on_attest(message)
        else:
            raise TypeError(f"unexpected message {message!r}")

    # ------------------------------------------------------------------ #
    # Phase I handlers (Algorithm 2)
    # ------------------------------------------------------------------ #

    def _on_query(self, sender: Hashable, message: QueryMessage) -> None:
        engaged_elsewhere = self.engaged_tag is not None
        already_seen = message.tag == self.last_tag
        if engaged_elsewhere or already_seen:
            self.send(sender, ReplyMessage(message.tag, self.identity, False))
            return
        # Join the computation.
        self.last_tag = message.tag
        self.parent = sender
        self.child = None
        if self.status.working == WorkingState.IDLE and not self.broken:
            # An idle vehicle answers positively and does not forward.
            self.send(sender, ReplyMessage(message.tag, self.identity, True))
            return
        self.engaged_tag = message.tag
        self.status.set_transfer(TransferState.SEARCHING)
        self.deficit = len(self.neighbors)
        if self.deficit == 0:
            self.engaged_tag = None
            self.status.set_transfer(TransferState.WAITING)
            self.send(sender, ReplyMessage(message.tag, self.identity, False))
            return
        self.send_many(
            self.neighbors,
            QueryMessage(message.tag, self.identity, message.destination, message.pair_key),
        )

    def _on_reply(self, sender: Hashable, message: ReplyMessage) -> None:
        if message.tag != self.engaged_tag:
            return  # stale reply from an earlier computation
        self.deficit -= 1
        if message.flag and self.child is None:
            self.child = message.sender
            if self.parent is not None:
                self.send(self.parent, ReplyMessage(message.tag, self.identity, True))
        if self.deficit == 0:
            tag = self.engaged_tag
            self.engaged_tag = None
            self.status.set_transfer(TransferState.WAITING)
            if self.parent is None:
                self._finish_own_computation(tag)
            elif self.child is None:
                self.send(self.parent, ReplyMessage(tag, self.identity, False))

    def _finish_own_computation(self, tag: ComputationTag) -> None:
        """Initiator termination: launch Phase II, escalate, or record failure."""
        info = self.initiated.get(tag)
        if info is None:
            return
        if self.child is None:
            if self.fleet.config.escalation and tag not in self.escalations:
                # The intra-cube flood came back empty: widen the diffusing
                # computation to the parent cube instead of giving up.
                self._begin_escalation(tag)
            else:
                self.fleet.record_failed_replacement(info["pair_key"])
            return
        self.send(
            self.child,
            MoveMessage(tag, self.identity, info["destination"], info["pair_key"]),
        )

    # ------------------------------------------------------------------ #
    # cross-cube escalation (escalation mode)
    # ------------------------------------------------------------------ #

    def _begin_escalation(self, tag: ComputationTag) -> None:
        """Start the ring-by-ring widening of an exhausted Phase I search.

        The ladder of rings is computed up front from static fleet
        structure, rooted at the cube of the pair being replaced (see
        :meth:`~repro.vehicles.fleet.Fleet.escalation_rings`); the
        initiator then walks it outward one deficit-counted round at a
        time.
        """
        info = self.initiated[tag]
        rings = self.fleet.escalation_rings(
            self.cube_index, info["pair_key"], exclude=self.identity
        )
        self.escalations[tag] = {
            "rings": rings,
            "level": 0,
            "pending": 0,
            "candidates": [],
            "rounds": 0,
        }
        self._registry.engaged.add(self._index)
        self.fleet.record_escalation_started(tag)
        self._escalate_next_level(tag)

    def _escalate_next_level(self, tag: ComputationTag) -> None:
        """Query the next escalation ring, or fail out past the last one."""
        esc = self.escalations[tag]
        info = self.initiated[tag]
        if esc["level"] >= len(esc["rings"]):
            del self.escalations[tag]
            self._release_engaged_bit()
            self.fleet.record_failed_replacement(info["pair_key"])
            return
        targets = esc["rings"][esc["level"]]
        esc["level"] += 1
        esc["pending"] = len(targets)
        esc["candidates"] = []
        esc["rounds"] = 0
        self.send_many(
            targets,
            EscalateQuery(
                tag, self.identity, info["destination"], info["pair_key"], esc["level"]
            ),
        )

    def _on_escalate_query(self, sender: Hashable, message: EscalateQuery) -> None:
        """Answer a boundary query: can this vehicle take the far pair over?

        Answering is stateless -- no engagement, no parent pointer -- so a
        boundary query can never entangle two diffusing computations; the
        deficit lives entirely at the escalating initiator.  A vehicle
        volunteers when it is healthy, unengaged, and either idle (the
        classical Phase II candidate) or active with battery to spare
        beyond ``FleetConfig.escalation_reserve`` after the walk (the
        adoption candidate that keeps all-active fleets serviceable).
        """
        flag = False
        spare = False
        if not self.broken and self.engaged_tag is None and not self.escalations:
            walk = manhattan(self.position, message.destination)
            if self.status.working == WorkingState.IDLE:
                flag = self._can_spend(walk)
            elif self.status.working == WorkingState.ACTIVE:
                reserve = self.fleet.config.escalation_reserve
                flag = (
                    self.capacity is None
                    or self.energy_remaining - walk > reserve
                )
                spare = flag
        self.send(
            message.sender,
            EscalateReply(
                message.tag, self.identity, flag, spare, message.level, self.position
            ),
        )

    def _on_escalate_reply(self, sender: Hashable, message: EscalateReply) -> None:
        esc = self.escalations.get(message.tag)
        if esc is None:
            return  # stale reply from an already-settled escalation
        if message.level != esc["level"]:
            # A reply from a ring the starvation clock already abandoned:
            # counting it against the *current* ring's deficit would settle
            # that ring before its own replies return and could cascade the
            # ladder to a premature failure.
            return
        esc["pending"] -= 1
        if message.flag:
            esc["candidates"].append((message.spare, message.sender, message.position))
        if esc["pending"] <= 0:
            self._conclude_escalation_level(message.tag)

    def _conclude_escalation_level(self, tag: ComputationTag) -> None:
        """All replies of the current ring are in: dispatch or widen further.

        The energy bill of a cross-cube replacement is the volunteer's
        walk *from where it currently stands* (reported in its reply --
        homes are immutable but positions drift with every served job), so
        candidates are ranked by that distance first (a ring can span many
        cubes; picking a far volunteer when a near one answered burns
        battery for nothing and can cascade into further replacements),
        then idle-before-spare, then identity.  The ranking is a pure
        function of the reply set, so the choice is independent of message
        delays and the run stays deterministic under any transport.
        """
        esc = self.escalations[tag]
        info = self.initiated[tag]
        if esc["candidates"]:
            destination = info["destination"]
            spare, chosen, _ = min(
                esc["candidates"],
                key=lambda item: (
                    manhattan(item[2] if item[2] else item[1], destination),
                    item[0],
                    item[1],
                ),
            )
            del self.escalations[tag]
            self._release_engaged_bit()
            self.send(
                chosen,
                MoveMessage(
                    tag, self.identity, info["destination"], info["pair_key"],
                    escalated=True,
                ),
            )
            return
        self._escalate_next_level(tag)

    # ------------------------------------------------------------------ #
    # Phase II handler
    # ------------------------------------------------------------------ #

    def _on_move(self, sender: Hashable, message: MoveMessage) -> None:
        if (
            not message.escalated
            and message.tag == self.last_tag
            and self.child is not None
        ):
            # Not the endpoint: copy the order to the next vehicle on the
            # path.  Escalated orders are addressed *directly* to the chosen
            # volunteer and never relayed -- a volunteer that once served as
            # a Phase I relay for the same tag (its forwarded True reply
            # lost in transit) would otherwise bounce the order down its
            # stale child chain, bypassing the initiator's candidate choice.
            self.send(self.child, MoveMessage(message.tag, self.identity, message.destination, message.pair_key))
            return
        # Endpoint: the candidate located in Phase I or by an escalated round.
        escalation = self.fleet.config.escalation
        if self.broken:
            self.fleet.record_failed_replacement(message.pair_key)
            return
        if message.escalated and self.status.working == WorkingState.ACTIVE:
            self._adopt_pair(message)
            return
        if self.status.working != WorkingState.IDLE:
            # Includes an active endpoint receiving a plain intra-cube order
            # (the located idle vehicle was activated in the meantime): the
            # historical legal refusal; the monitoring loop retries.
            self.fleet.record_failed_replacement(message.pair_key)
            return
        local = self._is_local_pair_key(message.pair_key)
        if not local and not (
            escalation and message.escalated and self.fleet.is_pair_key(message.pair_key)
        ):
            # A Byzantine transport may scramble the pair key into a vertex
            # that names no pair of this cube; taking such an order over
            # would corrupt the registry and the watch loop.  Refusing it is
            # the legal outcome (the search failed), not an error.  Only an
            # *escalated* order may name a real pair of another cube (a
            # legitimate cross-cube takeover) -- a plain intra-cube order
            # with a foreign key can only be corruption, escalation or not.
            self.fleet.record_failed_replacement(message.pair_key)
            return
        walk = manhattan(self.position, message.destination)
        if not self._can_spend(walk):
            self.fleet.record_failed_replacement(message.pair_key)
            return
        self.travel_energy += walk
        self.position = tuple(int(c) for c in message.destination)
        self.status.transition(WorkingState.ACTIVE, TransferState.WAITING)
        self.pair_key = message.pair_key
        if not local:
            # The vehicle physically relocated into another cube: it adopts
            # that cube's coloring, membership and (hence) watch duties.
            self.fleet.rehome_vehicle(self, message.pair_key)
        if escalation:
            self.monitored_pair = self.fleet.watched_pair(message.pair_key)
            self._grace_new_watch(self.monitored_pair)
        else:
            self.monitored_pair = watched_pair_key(self.coloring, message.pair_key)
        if message.escalated:
            # Counted here, on acceptance -- a dispatched order the endpoint
            # refuses must not inflate the escalation success counters.
            self.fleet.record_escalated_replacement(spare=False)
        self.fleet.on_activation(self.identity, message.pair_key)
        self._announce_activation(message.pair_key)

    def _adopt_pair(self, message: MoveMessage) -> None:
        """Spare-battery adoption: an active vehicle takes a far pair *too*.

        The adopter keeps its own pair and working state (no Figure 3.1
        transition happens -- it stays ``(active, waiting)``); it walks to
        the far pair, registers as its responsible vehicle, and from now
        on serves and heartbeats for both.  This is the only replacement
        path in an all-active fleet (every ``omega_c < 1`` workload).
        """
        if not self.fleet.is_pair_key(message.pair_key):
            self.fleet.record_failed_replacement(message.pair_key)
            return
        if message.pair_key == self.pair_key or message.pair_key in self.adopted_pairs:
            if (
                self.fleet.config.hand_back
                and message.pair_key == self.pair_key
                and self.fleet.registered_vehicle(message.pair_key) != self.identity
            ):
                # Hand-back reclaim: the pair is this vehicle's *own* but
                # the registry points at an adopter -- the order is the
                # adopter offering it back after this vehicle's revival.
                # No walk and no state transition (the owner never left
                # active); re-register and announce, which releases the
                # adoption at the adopter (see ``_on_activation_notice``).
                self.fleet.on_hand_back(self.identity, message.pair_key)
                self._announce_activation(message.pair_key)
                return
            return  # duplicate move order for a pair it already answers for
        walk = manhattan(self.position, message.destination)
        if (
            self.capacity is not None
            and self.energy_remaining - walk <= self.fleet.config.escalation_reserve
        ):
            # Re-check the volunteer invariant at acceptance time: jobs may
            # have drained the battery between the reply and the move order,
            # and adopting below the reserve would just mint the next done
            # vehicle.  Refusing is legal; the monitoring loop retries.
            self.fleet.record_failed_replacement(message.pair_key)
            return
        if not self._can_spend(walk):
            # Belt over braces: a zero/negative reserve configuration must
            # still never let the battery physically overspend.
            self.fleet.record_failed_replacement(message.pair_key)
            return
        self.travel_energy += walk
        self.position = tuple(int(c) for c in message.destination)
        self.adopted_pairs.append(message.pair_key)
        self._grace_new_watch(self.fleet.watched_pair(message.pair_key))
        if message.escalated:
            self.fleet.record_escalated_replacement(spare=True)
        self.fleet.on_adoption(self.identity, message.pair_key)
        self.fleet.on_activation(self.identity, message.pair_key)
        self._announce_activation(message.pair_key)

    def _grace_new_watch(self, watched: Optional[Point]) -> None:
        """Reset the silence clock of a freshly acquired watch target.

        A replacement or adopter inherits the watch duty of its new pair,
        but it was never in that target's heartbeat audience: its stale or
        absent ``last_heard`` entry would read as silence and fire a
        *spurious* replacement of a healthy pair -- each adoption spawning
        the next, a replacement storm.  Counting the target as heard at the
        acquisition round gives its heartbeats time to arrive.
        """
        fleet = self.fleet
        current = fleet.heartbeat_round
        blocks = fleet.detector_blocks()
        if watched is not None and blocks.heard_at(self, watched) < current:
            blocks.store(self, watched, current)

    def _announce_activation(self, pair_key: Point) -> None:
        """Broadcast that this vehicle now answers for ``pair_key``.

        Intra-cube (the historical behavior) the vehicle's own cube peers
        hear it; in escalation mode the members of the *pair's* cube do --
        the watchers whose timers it must reset may live there.
        """
        fleet = self.fleet
        self.send_many(
            fleet.activation_audience(pair_key, exclude=self.identity)
            if fleet.config.escalation
            else self.cube_peers,
            ActivationNotice(self.identity, pair_key, self.position),
        )

    def _is_local_pair_key(self, pair_key: Point) -> bool:
        """Whether ``pair_key`` is the black vertex of a pair of this cube."""
        try:
            pair = self.coloring.pair_of(pair_key)
        except ValueError:
            return False
        return pair.black == tuple(int(c) for c in pair_key)

    # ------------------------------------------------------------------ #
    # Monitoring handlers (Section 3.2.5)
    # ------------------------------------------------------------------ #

    def _take_over(self, pair_key: Point, round_id: int) -> None:
        """Start a replacement search on behalf of the silent ``pair_key``,
        debounced: the pair counts as heard at ``round_id`` from here on."""
        self.fleet.record_watch_initiation(self.identity, pair_key)
        self.fleet.detector_blocks().store(self, pair_key, round_id)
        self.start_replacement_search(destination=pair_key, pair_key=pair_key)

    def _on_activation_notice(self, message: ActivationNotice) -> None:
        # A fresh activation counts as having just heard from that pair.
        fleet = self.fleet
        fleet.detector_blocks().store(self, message.pair_key, fleet.heartbeat_round)
        if (
            fleet.config.hand_back
            and message.pair_key in self.adopted_pairs
            and message.sender != self.identity
        ):
            # Someone else (the revived owner, or a later replacement) now
            # answers for a pair this vehicle adopted: shed the load.
            self.adopted_pairs.remove(message.pair_key)
            fleet.on_adoption_released(self.identity, message.pair_key)

    # ------------------------------------------------------------------ #
    # Gossip failure detection (monitoring == "gossip")
    # ------------------------------------------------------------------ #

    def _gossip_check_suspicion(self, round_id: int, miss_threshold: int) -> None:
        """Ring watcher's escalation: once ``suspicion_threshold`` distinct
        reporters agree the watched pair is silent, open (or refresh) a
        quorum collection by broadcasting a ``SuspectMessage``."""
        fleet = self.fleet
        watched = self._monitored_pair
        if watched is None or watched == self.pair_key or self.engaged_tag is not None:
            return
        blocks = fleet.detector
        if not fleet.failure_plan.is_byzantine_watcher(self.identity) and not (
            is_stale(round_id, blocks.heard_round(self, watched), miss_threshold)
            and enough_reporters(
                blocks.reporters(self, watched),
                self.identity,
                fleet.config.suspicion_threshold,
            )
        ):
            return
        pending = blocks.suspicion(self, watched)
        if pending is not None and not is_stale(round_id, pending["round"], miss_threshold):
            return  # collection in flight; give the co-signatures time
        # Granted signatures accumulate across re-sends: under a lossy
        # channel each retry only needs to recover the missing ones.
        blocks.open_suspicion(self, watched)["round"] = round_id
        fleet.record_suspicion(self.identity, watched)
        self.send_many(
            self.cube_peers, SuspectMessage(self.identity, watched, round_id)
        )

    def _on_suspect(self, message: SuspectMessage) -> None:
        """Answer a co-signature request: grant only when this vehicle's
        *own* view of the pair is stale (a Byzantine attester inverts --
        forging grants for healthy pairs, withholding for dead ones)."""
        if self.broken:
            return
        fleet = self.fleet
        pair_key = message.pair_key
        grant = grant_attestation(
            fleet.detector.heard_round(self, pair_key),
            message.round_id,
            fleet.config.heartbeat_miss_threshold,
            own_pair=pair_key == self.pair_key,
            byzantine=fleet.failure_plan.is_byzantine_watcher(self.identity),
        )
        fleet.record_attestation(self.identity, pair_key, grant)
        if grant:  # a refusal is silence: nobody can sign on another's behalf
            self.send(message.sender, AttestMessage(self.identity, pair_key, message.round_id, True))

    def _on_attest(self, message: AttestMessage) -> None:
        """Collect a co-signature; with ``quorum`` distinct granters (and
        the watcher's own view still stale) the attested replacement
        search finally starts."""
        if self.broken or not message.granted:
            return
        pair_key = message.pair_key
        fleet = self.fleet
        blocks = fleet.detector
        pending = blocks.suspicion(self, pair_key)
        if pending is None:
            return  # resolved meanwhile (heartbeat arrived or takeover ran)
        pending["granted"].add(message.sender)
        if not quorum_reached(pending["granted"], fleet.config.quorum):
            return
        round_id = fleet.heartbeat_round
        if not (
            fleet.failure_plan.is_byzantine_watcher(self.identity)
            or is_stale(round_id, blocks.heard_round(self, pair_key), fleet.config.heartbeat_miss_threshold)
        ):
            # It spoke while signatures flew.
            blocks.close_suspicion(self, pair_key, reports=False)
            return
        if self.engaged_tag is not None:
            return  # busy with another computation; the case stays open
        blocks.close_suspicion(self, pair_key, reports=True)
        self._take_over(pair_key, round_id)

    def offer_hand_back(self, pair_key: Point, owner: Point) -> None:
        """Offer an adopted pair back to its revived original owner.

        Sent as the legal *escalated* move order -- the only arrow through
        which an ACTIVE vehicle accepts responsibility for a pair -- and
        addressed directly to the owner, so the existing Phase II endpoint
        logic (``_on_move`` -> ``_adopt_pair``'s reclaim branch) handles it
        without any new message type.
        """
        tag = (self.identity, self.fleet.next_computation_round())
        self.send(
            owner,
            MoveMessage(tag, self.identity, pair_key, pair_key, escalated=True),
        )

    def tick_search_timeout(self, timeout: int) -> None:
        """Abandon a diffusing computation stuck for ``timeout`` heartbeat rounds.

        Under a reliable channel every Phase I computation terminates
        between rounds, so this never fires.  Under message loss or
        corruption the replies funding the deficit counters can vanish,
        leaving the vehicle engaged forever -- and an engaged vehicle
        refuses new computations and stops watching its monitored pair.
        After ``timeout`` consecutive rounds on one tag the engagement is
        released through the legal ``(*, searching) -> (*, waiting)``
        arrow.  A starved *initiator* treats the timeout as best-effort
        termination detection: a positive reply travels up the child chain
        immediately (not waiting for deficits), so if a child is already
        known the move order is launched along the located path -- only the
        chain's own messages needed to survive the lossy channel, not the
        whole flood.  With no child the search is recorded as failed and
        the monitoring loop can start a fresh computation for the
        still-silent pair.
        """
        self._tick_escalation_timeouts(timeout)
        if self.broken or self.engaged_tag is None:
            self._engaged_tag_seen = None
            self._engaged_rounds = 0
            self._release_engaged_bit()
            return
        if self.engaged_tag == self._engaged_tag_seen:
            self._engaged_rounds += 1
        else:
            self._engaged_tag_seen = self.engaged_tag
            self._engaged_rounds = 1
        if self._engaged_rounds < timeout:
            return
        tag = self.engaged_tag
        self.engaged_tag = None
        self._engaged_tag_seen = None
        self._engaged_rounds = 0
        self._release_engaged_bit()
        self.status.set_transfer(TransferState.WAITING)
        if tag in self.initiated:
            self._finish_own_computation(tag)

    def _tick_escalation_timeouts(self, timeout: int) -> None:
        """Starvation clock for escalated rounds (the cross-level analogue).

        An escalation level whose boundary replies were eaten by the
        channel would leave its deficit counter funded forever; after
        ``timeout`` heartbeat rounds stuck on one level the missing replies
        are treated as negative -- best-effort termination detection, the
        same contract the intra-cube clock provides.  Any volunteer that
        *did* reply is dispatched; otherwise the search widens or fails.
        """
        if self.broken or not self.escalations:
            return
        for tag in list(self.escalations):
            esc = self.escalations.get(tag)
            if esc is None:
                continue
            esc["rounds"] += 1
            if esc["rounds"] >= timeout:
                self._conclude_escalation_level(tag)

    def heartbeat(self, round_id: int, miss_threshold: int) -> None:
        """One ring heartbeat round: announce existence, check the watch.

        The vehicle announces its own pair and every pair it adopted to its
        cube peers -- in escalation mode to the pair's cube plus the cube of
        the pair's ring watcher, as pointers may cross cube boundaries.  It
        watches for each pair it answers for (``monitored_pair`` for its
        own, the fleet-wide ring's target for an adopted one, so the ring
        stays closed across adoptions) and takes over the first silent
        target: its vehicle is done (and failed to initiate) or dead.
        """
        if self.broken or self.status.working != WorkingState.ACTIVE:
            return
        assert self.pair_key is not None
        fleet = self.fleet
        answered = [self.pair_key, *self.adopted_pairs]
        for pair_key in answered:
            # The dominant message volume under monitoring: one broadcast
            # per pair per round, emitted as a single batch.
            self.send_many(
                fleet.heartbeat_audience(pair_key, exclude=self.identity)
                if fleet.config.escalation
                else self.cube_peers,
                ExistingMessage(self.identity, pair_key, round_id),
            )
        if self.engaged_tag is not None or self.escalations:
            return  # busy with another computation; re-check next round
        blocks = fleet.detector_blocks()
        for watched in [self._monitored_pair, *map(fleet.watched_pair, self.adopted_pairs)]:
            if watched is None or watched in answered:
                continue  # nothing to watch, or a pair it answers for itself
            if is_stale(round_id, blocks.heard_round(self, watched), miss_threshold):
                self._take_over(watched, round_id)
                return  # one diffusing computation at a time

    # ------------------------------------------------------------------ #
    # failures (scenario 3)
    # ------------------------------------------------------------------ #

    def mark_broken(self) -> None:
        """The vehicle breaks down: it can no longer move, serve or heartbeat.

        Its radio keeps working (the thesis's communication model never
        charges energy for messages), so Phase I computations that query it
        still receive a (negative) reply and terminate.
        """
        self.broken = True
        self._registry.broken[self._index] = 1

    def mark_repaired(self) -> None:
        """Churn rejoin: the broken vehicle is repaired in place.

        Its working state and registry entry are untouched -- if a
        replacement already answers for its pair, the repaired vehicle
        simply becomes a healthy idle peer again.
        """
        self.broken = False
        self._registry.broken[self._index] = 0

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, object]:
        """A small dictionary of the vehicle's externally relevant state."""
        return {
            "home": self.identity,
            "position": self.position,
            "state": str(self.status),
            "pair": self.pair_key,
            "adopted_pairs": list(self.adopted_pairs),
            "energy_used": self.energy_used,
            "travel": self.travel_energy,
            "service": self.service_energy,
            "jobs_served": self.jobs_served,
        }
