"""The pluggable message-transport layer.

Section 3.2's communication model (bidirectional links, per-link FIFO,
finite but arbitrary delays) used to be hard-wired into
:class:`~repro.distsim.network.Network`: every send scheduled an
instantaneous-or-fixed-delay delivery, which quietly turned the
"asynchronous message-passing system" the protocol is analyzed over into a
lockstep harness.  This module makes the delivery model a first-class,
swappable object:

* :class:`Transport` -- the base class.  It owns delivery scheduling on the
  simulation clock and exposes three hooks -- :meth:`~Transport.latency`,
  :meth:`~Transport.drops`, :meth:`~Transport.mutate` -- that concrete
  transports override.  A fixed-delay channel (one that reports a
  :meth:`~Transport.deferred_latency`) schedules every message through
  :meth:`~Transport.send_batch`; any other channel schedules one message at
  a time through :meth:`~Transport.send`, with FIFO clamping per directed
  link.
* :class:`ReliableTransport` -- a zero or fixed delay.  The paper's
  error-free model.
* :class:`LatencyTransport` -- per-edge deterministic jitter: every directed
  link gets its own fixed latency derived from a keyed draw of
  ``(seed, sender, destination)``.  No RNG state is consumed, so delays are
  independent of send order *and* stable across processes (Python's
  ``hash()`` is salted per process; the keyed mix of
  :mod:`repro.distsim.keyed` is not).
* :class:`DistanceLatencyTransport` -- delay growing linearly with the
  Manhattan distance between the endpoints' lattice identities: the
  physical radio model the mobility scenarios run over.
* :class:`RetransmitTransport` -- per-message ack/retransmission wrapper
  around any inner transport: up to ``retries`` re-sends, each lost
  attempt paying one ``timeout`` of extra delay, so an inner loss rate
  ``p`` becomes ``p^(retries + 1)`` end to end.
* :class:`LossyTransport` -- seeded i.i.d. message loss.  Every draw is
  keyed per directed edge: it is the counter-based mix of ``(seed, purpose
  salt, sender, destination, per-edge message counter)``
  (:mod:`repro.distsim.keyed`), never a generator consumed in global send
  order, so the decisions depend only on each edge's own message order --
  the property that lets a sharded run reproduce the single-process draws
  (the counter-based model of Salmon et al., "Parallel random numbers: as
  easy as 1, 2, 3", SC 2011).  The state is a per-edge slot table
  (:class:`_EdgeSlots`): each edge's premixed chain state and message
  counter, so a draw is one finaliser round and a heartbeat round's
  counters advance as arrays (:meth:`LossyTransport.drops_many`).
* :class:`CorruptingTransport` -- seeded Byzantine corruption of the Phase
  I/II protocol messages (query/reply/move): reply flags flip, destination
  and pair coordinates drift, computation tags are scrambled into phantom
  rounds.  The vehicle state machine must survive every such mutation
  legally -- the transport only ever emits well-typed messages, never
  exceptions-in-waiting.  Its draws are edge-keyed like the loss draws.

:class:`TransportSpec` is the frozen, JSON-round-trippable description used
by run configs (:mod:`repro.api.config`), the workload library, and the CLI
(``--transport``): ``TransportSpec("lossy", {"loss": 0.1, "seed": 3})``
builds the same transport everywhere, which is what makes transport sweeps
cacheable and byte-identical across worker pools.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_right
from dataclasses import dataclass, replace as dataclass_replace
from functools import partial
from itertools import accumulate
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.distsim.engine import Simulator
from repro.distsim.keyed import IdentityKeys, fmix64, mix, stream_root, unit

__all__ = [
    "Transport",
    "ReliableTransport",
    "LatencyTransport",
    "DistanceLatencyTransport",
    "LossyTransport",
    "CorruptingTransport",
    "RetransmitTransport",
    "TransportSpec",
    "TRANSPORT_KINDS",
    "available_transports",
    "build_transport",
]

Deliver = Callable[[Any], None]
#: ``(sender, destinations, message)``: one send on a fixed-delay channel.
Record = Tuple[Hashable, Sequence[Hashable], Any]

#: Seed salts so a transport's loss, corruption and jitter streams never
#: collide with one another under the same seed.
_LOSS_SALT = 0x10E55
_CORRUPT_SALT = 0xBADB17
_LATENCY_SALT = 0x1A7E

#: The fewest loss draws :meth:`LossyTransport.drops_many` evaluates as
#: one array expression; fewer are evaluated on Python ints.
_ARRAY_DRAWS = 32

#: The fewest destinations of a broadcast whose slots
#: :meth:`_EdgeSlots.draws` remembers; narrower sends (single replies,
#: gossip digests to freshly drawn peers) are looked up each time.
_MEMO_WIDTH = 3


class Transport:
    """Owns message delivery scheduling on the simulation clock.

    The base class implements the invariants every delivery model shares --
    per-directed-link FIFO ordering (deliveries on a link never overtake one
    another, Section 3.2's "messages arrive in the order sent") and
    scheduling on the bound :class:`~repro.distsim.engine.Simulator` --
    and delegates the model itself to three hooks:

    ``latency(sender, destination, message)``
        Non-negative delivery delay for this message.
    ``drops(sender, destination, message)``
        Whether the channel loses this message.
    ``mutate(sender, destination, message)``
        The (possibly corrupted) message that actually arrives.

    A transport instance belongs to exactly one run: :meth:`bind` attaches
    it to the simulator and resets the per-link FIFO state.
    """

    #: Registry name of the transport model (overridden by subclasses).
    kind = "reliable"

    def __init__(self) -> None:
        self._simulator: Optional[Simulator] = None
        #: Time of the last scheduled delivery per directed link.
        self._last_delivery: Dict[Tuple[Hashable, Hashable], float] = {}
        self.messages_scheduled = 0
        self.messages_dropped = 0
        self.messages_corrupted = 0

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def bind(self, simulator: Simulator) -> "Transport":
        """Attach to the simulator driving a run.

        Binding resets everything a previous run may have left behind --
        FIFO state, counters, and seeded streams -- so reusing an instance
        across runs still reproduces a fresh run bit for bit.
        """
        self._simulator = simulator
        self._last_delivery.clear()
        self.messages_scheduled = 0
        self.messages_dropped = 0
        self.messages_corrupted = 0
        self._reset_streams()
        return self

    def _reset_streams(self) -> None:
        """Rewind any seeded randomness to its initial state (hook)."""

    @property
    def simulator(self) -> Simulator:
        if self._simulator is None:
            raise RuntimeError(f"transport {self.kind!r} is not bound to a simulator")
        return self._simulator

    # ------------------------------------------------------------------ #
    # the model hooks
    # ------------------------------------------------------------------ #

    def latency(self, sender: Hashable, destination: Hashable, message: Any) -> float:
        """Delivery delay for one message (default: instantaneous)."""
        return 0.0

    def drops(self, sender: Hashable, destination: Hashable, message: Any) -> bool:
        """Whether the channel loses this message (default: never)."""
        return False

    def mutate(self, sender: Hashable, destination: Hashable, message: Any) -> Any:
        """The message that actually arrives (default: the one sent)."""
        return message

    # ------------------------------------------------------------------ #
    # stream state
    # ------------------------------------------------------------------ #

    def stream_state(self) -> Optional[Dict[str, Any]]:
        """JSON-safe state of any keyed counter streams (hook).

        Transports with edge-keyed streams export their per-edge message
        counters here, so a resumed run continues every edge stream exactly
        where it stopped.  ``None`` means the transport keeps no stream.
        """
        return None

    def restore_stream_state(self, state: Optional[Dict[str, Any]]) -> None:
        """Restore what :meth:`stream_state` exported (hook)."""

    # ------------------------------------------------------------------ #
    # delivery scheduling
    # ------------------------------------------------------------------ #

    def send(
        self, sender: Hashable, destination: Hashable, message: Any, deliver: Deliver
    ) -> bool:
        """Schedule delivery of ``message``; returns ``False`` when dropped.

        The path of a channel without a :meth:`deferred_latency`.
        ``deliver`` is invoked with the (possibly mutated) message at the
        scheduled delivery time.  FIFO clamping guarantees deliveries on the
        same directed link execute in send order even when later messages
        draw longer waits or shorter latencies.
        """
        simulator = self.simulator
        if self.drops(sender, destination, message):
            self.messages_dropped += 1
            return False
        delivered = self.mutate(sender, destination, message)
        if delivered is not message:
            self.messages_corrupted += 1
        delay = float(self.latency(sender, destination, delivered))
        if delay < 0:
            raise ValueError("message delay must be non-negative")
        link = (sender, destination)
        delivery_time = max(simulator.now + delay, self._last_delivery.get(link, 0.0))
        self._last_delivery[link] = delivery_time
        simulator.schedule_at(delivery_time, lambda: deliver(delivered), kind="message")
        self.messages_scheduled += 1
        return True

    # ------------------------------------------------------------------ #
    # the fixed-delay path
    # ------------------------------------------------------------------ #

    def deferred_latency(self) -> Optional[float]:
        """The delay of a fixed-delay channel, or ``None``.

        A transport returns its delay when every message (i) costs that
        same delay, constant for the whole run, (ii) is never mutated, and
        (iii) is lost or kept by :attr:`drops_many` alone.  The network
        then hands every send to :meth:`send_batch` as a record, and
        inside a :meth:`~repro.distsim.network.Network.deferred_sends`
        scope batches a whole heartbeat round into one call.  The default
        ``None`` keeps the per-message :meth:`send`;
        :class:`ReliableTransport` and :class:`LossyTransport` opt in.
        """
        return None

    #: Bulk loss draws of a channel that opts into :meth:`deferred_latency`:
    #: ``drops_many(records)`` takes ``(sender, destinations, message)``
    #: records and returns, in increasing order, the positions among all
    #: their ``(sender, destination)`` pairs (in record order) whose
    #: :meth:`drops` is true, with the same decisions and stream
    #: consumption.  ``None`` on a channel that never loses a message,
    #: which then does no loss work at all.
    drops_many: Optional[Callable[[Sequence[Record]], List[int]]] = None

    def send_batch(self, deliver: Callable[[List[Record]], None], records: List[Record]) -> int:
        """Schedule ``(sender, destinations, message)`` records as one entry.

        Only valid on a channel whose :meth:`deferred_latency` is not
        ``None``; every message of such a channel passes here, one record
        for a send outside a deferred-send scope, a whole scope's records
        at its flush.  The loss draws are one :attr:`drops_many` call, in
        record order; the lost destinations are taken out of ``records``
        (in place), and the survivors become *one* ``"message"`` entry at
        ``now + deferred_latency()`` whose weight is their number, so the
        event counters see one event per message.  At delivery time the
        entry calls ``deliver(records)`` once.  Returns the number of
        messages lost; a record set that loses every message pushes
        nothing.

        Running the recipients in one entry is byte-identical to
        per-message entries: those would sit next to each other in one
        bucket, nothing pushed later can land between them, and message
        entries are never cancelled.  No link needs FIFO clamping: the
        clock never runs backwards, so on a constant-delay channel
        ``now + delay`` never decreases and no earlier delivery on any
        link lands later than this one.
        """
        lengths = [len(targets) for _, targets, _ in records]
        weight = sum(lengths)
        lost = self.drops_many(records) if self.drops_many is not None else ()
        if lost:
            # Rebuild only the records a loss hit; one left without
            # targets delivers nothing.  Deleting the highest position
            # first keeps the offsets of a record's earlier ones valid.
            ends = list(accumulate(lengths))
            kept: Dict[int, List[Hashable]] = {}
            for position in reversed(lost):
                index = bisect_right(ends, position)
                if index not in kept:
                    kept[index] = list(records[index][1])
                del kept[index][position - ends[index] + lengths[index]]
            for index, targets in kept.items():
                sender, _, message = records[index]
                records[index] = (sender, targets, message)
            self.messages_dropped += len(lost)
            weight -= len(lost)
        if weight:
            self.messages_scheduled += weight
            simulator = self.simulator
            simulator.queue.push(
                simulator.now + self.deferred_latency(),
                partial(deliver, records),
                kind="message",
                weight=weight,
            )
        return len(lost)


class ReliableTransport(Transport):
    """Error-free delivery with a zero or fixed delay (the paper's model)."""

    kind = "reliable"

    def __init__(self, delay: float = 0.0) -> None:
        super().__init__()
        delay = float(delay)  # ValueError on junk, before any comparison
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.delay = delay

    def latency(self, sender: Hashable, destination: Hashable, message: Any) -> float:
        return self.delay

    def deferred_latency(self) -> Optional[float]:
        # Never drops (so no ``drops_many``), never mutates, one delay.
        return self.delay


def _encode_edge_key(value: Any) -> Any:
    """Tuples (arbitrarily nested) -> lists, for JSON-safe stream state."""
    if isinstance(value, tuple):
        return [_encode_edge_key(item) for item in value]
    return value


def _decode_edge_key(value: Any) -> Any:
    """The inverse of :func:`_encode_edge_key` (lists -> tuples)."""
    if isinstance(value, list):
        return tuple(_decode_edge_key(item) for item in value)
    return value


class LatencyTransport(Transport):
    """Per-edge deterministic jitter: each directed link has a fixed latency.

    ``delay`` is the floor every message pays; each edge adds its own
    deterministic share of ``jitter``.  Because the latency is a pure
    function of ``(seed, sender, destination)``, no stream state is
    consumed: results do not depend on send order and are identical under
    thread or process pools.
    """

    kind = "latency"

    def __init__(self, delay: float = 0.01, jitter: float = 0.02, seed: int = 0) -> None:
        super().__init__()
        delay, jitter = float(delay), float(jitter)
        if delay < 0 or jitter < 0:
            raise ValueError("delay and jitter must be non-negative")
        self.delay = delay
        self.jitter = jitter
        self.seed = int(seed)
        self._root = stream_root(self.seed, _LATENCY_SALT)
        self._keys = IdentityKeys()

    def latency(self, sender: Hashable, destination: Hashable, message: Any) -> float:
        # The edge's draw is the loss draw's shape with counter 0.
        keys = self._keys
        return self.delay + self.jitter * unit(mix(self._root, keys[sender], keys[destination], 0))


class DistanceLatencyTransport(Transport):
    """Delay growing linearly with the lattice distance between endpoints.

    ``delay`` is the per-message floor; each message additionally pays
    ``per_step`` per unit of Manhattan distance between the sender's and
    destination's identities (vehicle identities *are* lattice points).
    This is the physical radio model the mobility scenarios pair with:
    nearby chatter is cheap, cross-cube escalation traffic pays for the
    distance it covers.  Identities that are not same-dimension coordinate
    tuples (non-vehicle processes) pay only the floor.

    The latency is a pure function of the edge -- no stream state -- so
    results are independent of send order and identical under thread or
    process pools, like :class:`LatencyTransport`.
    """

    kind = "distance-latency"

    def __init__(self, delay: float = 0.005, per_step: float = 0.002) -> None:
        super().__init__()
        delay, per_step = float(delay), float(per_step)
        if delay < 0 or per_step < 0:
            raise ValueError("delay and per_step must be non-negative")
        self.delay = delay
        self.per_step = per_step

    @staticmethod
    def _lattice_distance(sender: Hashable, destination: Hashable) -> Optional[int]:
        if (
            isinstance(sender, tuple)
            and isinstance(destination, tuple)
            and len(sender) == len(destination)
            and all(isinstance(c, int) for c in sender)
            and all(isinstance(c, int) for c in destination)
        ):
            return sum(abs(a - b) for a, b in zip(sender, destination))
        return None

    def latency(self, sender: Hashable, destination: Hashable, message: Any) -> float:
        distance = self._lattice_distance(sender, destination)
        if distance is None:
            return self.delay
        return self.delay + self.per_step * distance


class _SenderSlots(dict):
    """``destination -> slot`` for one sender's edges; a destination seen
    for the first time takes the table's next slot."""

    __slots__ = ("table", "sender", "broadcasts")

    def __init__(self, table: "_EdgeSlots", sender: Hashable) -> None:
        super().__init__()
        self.table = table
        self.sender = sender
        #: ``width -> (targets, slots)`` of the sender's last broadcast to
        #: ``width`` destinations: a heartbeat round repeats it, and the
        #: repeat costs one list comparison instead of a lookup per target.
        self.broadcasts: Dict[int, Tuple[List[Hashable], array]] = {}

    def __missing__(self, destination: Hashable) -> int:
        table = self.table
        slot = self[destination] = len(table.counts)
        keys = table.keys
        table.states.append(mix(table.root, keys[self.sender], keys[destination]))
        table.counts.append(0)
        return slot


class _EdgeSlots(dict):
    """The per-edge slot table of a seeded stream: ``sender ->``
    :class:`_SenderSlots`.

    Each directed edge gets a dense slot on first use.  The slot holds two
    ``uint64`` columns: the edge's premixed chain state ``mix(root,
    key(sender), key(destination))`` and its message counter.  The edge's
    ``n``-th draw is ``fmix64(state ^ n)`` -- bit for bit the keyed
    ``mix(root, key(sender), key(destination), n)`` -- so a draw costs one
    finaliser round instead of three, and a heartbeat round's counters
    advance as arrays (:meth:`draws`).
    """

    def __init__(self, root: int, keys: IdentityKeys) -> None:
        super().__init__()
        self.root = root
        self.keys = keys
        self.states = array("Q")
        self.counts = array("Q")

    def __missing__(self, sender: Hashable) -> _SenderSlots:
        row = self[sender] = _SenderSlots(self, sender)
        return row

    def draw(self, sender: Hashable, destination: Hashable) -> int:
        """The edge's next draw word; advances its counter."""
        slot = self[sender][destination]
        counter = self.counts[slot]
        self.counts[slot] = counter + 1
        return fmix64(self.states[slot] ^ counter)

    def draws(self, records: Sequence[Record]) -> np.ndarray:
        """The next draw word of every ``(sender, destination)`` of the
        records, in record order, as one array evaluation.

        An edge that repeats among the records takes its counters in
        record order: its ``k``-th occurrence draws at the counter it had
        before this call plus ``k``.
        """
        slots = array("q")
        extend = slots.extend
        for sender, targets, _ in records:
            row = self[sender]
            width = len(targets)
            if width < _MEMO_WIDTH:
                extend(map(row.__getitem__, targets))
                continue
            last = row.broadcasts.get(width)
            if last is None or last[0] != targets:
                last = row.broadcasts[width] = (
                    list(targets),
                    array("q", map(row.__getitem__, targets)),
                )
            extend(last[1])
        index = np.frombuffer(slots, dtype=np.int64)
        counts = np.frombuffer(self.counts, dtype=np.uint64)
        counters = counts[index]
        occurrences = np.bincount(index, minlength=len(counts))
        counts += occurrences.astype(np.uint64)
        # An edge drawn more than once takes consecutive counters in record
        # order: a stable sort of just those draws ranks them.
        repeated = np.flatnonzero(occurrences[index] > 1)
        if len(repeated):
            at = repeated[np.argsort(index[repeated], kind="stable")]
            starts = np.flatnonzero(np.diff(index[at], prepend=-1))
            ranks = np.arange(len(at)) - np.repeat(starts, np.diff(starts, append=len(at)))
            counters[at] += ranks.astype(np.uint64)
        return fmix64(np.frombuffer(self.states, dtype=np.uint64)[index] ^ counters)

    def export(self) -> List[List[Any]]:
        """``[[edge, count], ...]`` of every drawn edge, sorted by ``repr``
        (edges of equal ``repr`` in slot order)."""
        counts = self.counts.tolist()
        edges = sorted(
            (
                ((sender, destination), slot)
                for sender, row in self.items()
                for destination, slot in row.items()
            ),
            key=lambda item: (repr(item[0]), item[1]),
        )
        return [[_encode_edge_key(edge), counts[slot]] for edge, slot in edges]


class _SeededTransport(Transport):
    """A fixed-delay channel with one seeded, edge-keyed random stream.

    The shared half of :class:`LossyTransport` and
    :class:`CorruptingTransport`.  A message's draws are the keyed mix
    (:mod:`repro.distsim.keyed`) of ``(seed, purpose salt, sender,
    destination, per-edge message counter)``.  The per-edge slot table
    (:class:`_EdgeSlots`: each edge's premixed state and message counter)
    is the only state: draws depend only on per-edge send order, never on
    cross-edge interleaving, so per-shard sub-fleets reproduce the
    single-process run bit for bit.

    ``stream`` accepts only ``"edge"``, the name saved configs use for this
    stream; any other value (the removed global stream) is rejected.
    """

    #: Seed salt of the subclass's stream (loss vs corruption).
    salt = 0

    def __init__(self, delay: float, seed: int, stream: str) -> None:
        super().__init__()
        delay = float(delay)
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        if stream != "edge":
            raise ValueError(
                f"stream {stream!r} is not available: the global stream was "
                "removed, and every seeded transport draws from per-edge keyed "
                'streams (stream="edge")'
            )
        self.delay = delay
        self.seed = int(seed)
        self._root = stream_root(self.seed, self.salt)
        self._keys = IdentityKeys()
        self._reset_streams()

    def _reset_streams(self) -> None:
        self._slots = _EdgeSlots(self._root, self._keys)

    def _draw_state(self, sender: Hashable, destination: Hashable) -> int:
        """The keyed state this message's draws come from; advances the
        edge's counter."""
        return self._slots.draw(sender, destination)

    def latency(self, sender: Hashable, destination: Hashable, message: Any) -> float:
        return self.delay

    def stream_state(self) -> Optional[Dict[str, Any]]:
        return {"edge_counts": self._slots.export()}

    def restore_stream_state(self, state: Optional[Dict[str, Any]]) -> None:
        if not state:
            return
        self._reset_streams()
        slots = self._slots
        for edge, count in state.get("edge_counts", []):
            sender, destination = _decode_edge_key(edge)
            slots.counts[slots[sender][destination]] = int(count)


class LossyTransport(_SeededTransport):
    """Seeded i.i.d. message loss on top of a fixed delay.

    Each send draws once from its edge's stream (see
    :class:`_SeededTransport`) and is lost with probability ``loss``.
    """

    kind = "lossy"
    salt = _LOSS_SALT

    def __init__(
        self,
        loss: float = 0.05,
        delay: float = 0.0,
        seed: int = 0,
        stream: str = "edge",
    ) -> None:
        loss = float(loss)
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss probability must lie in [0, 1], got {loss}")
        self.loss = loss
        super().__init__(delay, seed, stream)

    def drops(self, sender: Hashable, destination: Hashable, message: Any) -> bool:
        return unit(self._draw_state(sender, destination)) < self.loss

    def drops_many(self, records: Sequence[Record]) -> List[int]:
        """The positions whose :meth:`drops` is true among every
        ``(sender, destination)`` of the ``(sender, destinations,
        message)`` records, in order.

        Below :data:`_ARRAY_DRAWS` draws (a send outside a heartbeat round)
        this is :meth:`drops` per draw, on Python ints, where numpy's
        per-call overhead would cost more than the draws.  Otherwise the
        draws are one array evaluation over the edges' slots
        (:meth:`_EdgeSlots.draws`) -- the same words :meth:`drops` reads.
        """
        if sum([len(targets) for _, targets, _ in records]) < _ARRAY_DRAWS:
            drops = self.drops
            draws = (
                drops(sender, target, message)
                for sender, targets, message in records
                for target in targets
            )
            return [position for position, dropped in enumerate(draws) if dropped]
        return np.flatnonzero(unit(self._slots.draws(records)) < self.loss).tolist()

    def deferred_latency(self) -> Optional[float]:
        # Fixed delay, no mutation, loss from ``drops`` alone.
        return self.delay


class CorruptingTransport(_SeededTransport):
    """Seeded Byzantine corruption of the Phase I/II protocol messages.

    With probability ``rate`` per message, one of three well-typed
    mutations is applied to a query/reply/move message (heartbeats and
    activation notices pass through untouched -- the adversary targets the
    replacement machinery, where corruption actually bites):

    * **flag flip** (replies): a negative answer becomes positive or vice
      versa, so initiators chase vehicles that never volunteered or give up
      on ones that did;
    * **coordinate drift** (queries/moves): one coordinate of the
      destination or pair key moves by one lattice step, possibly naming a
      vertex outside the cube -- the receiving vehicle must reject it as a
      failed replacement, not crash;
    * **phantom tag** (all three): the computation round number is shifted
      far out of range, detaching the message from its diffusing
      computation.

    Every mutation preserves the message type and field types, so the
    damage is semantic, never structural: the state machine has to survive
    it through its own legal transitions.

    Draws come from the edge's stream (see :class:`_SeededTransport`); only
    protocol messages advance an edge's counter.
    """

    kind = "corrupting"
    salt = _CORRUPT_SALT

    def __init__(
        self,
        rate: float = 0.05,
        delay: float = 0.0,
        seed: int = 0,
        stream: str = "edge",
    ) -> None:
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"corruption rate must lie in [0, 1], got {rate}")
        self.rate = rate
        super().__init__(delay, seed, stream)

    @staticmethod
    def _drift_point(state: int, point: Tuple[int, ...]) -> Tuple[int, ...]:
        axis = int(unit(mix(state, 2)) * len(point))
        step = 1 if unit(mix(state, 3)) < 0.5 else -1
        return tuple(
            int(c) + (step if index == axis else 0) for index, c in enumerate(point)
        )

    def _phantom_tag(self, tag: Tuple[Hashable, int]) -> Tuple[Hashable, int]:
        initiator, round_id = tag
        return (initiator, int(round_id) + 1_000_003)

    def mutate(self, sender: Hashable, destination: Hashable, message: Any) -> Any:
        # Imported lazily: distsim is a layer below the vehicle protocol and
        # must not depend on it at import time.
        from repro.vehicles.messages import MoveMessage, QueryMessage, ReplyMessage

        if not isinstance(message, (QueryMessage, ReplyMessage, MoveMessage)):
            return message
        # Draw ``k`` of this message is its keyed state mixed with ``k``:
        # 0 the rate check, 1 the mutation arm, 2 and 3 a drift.
        state = self._draw_state(sender, destination)
        if unit(mix(state, 0)) >= self.rate:
            return message
        arm = int(unit(mix(state, 1)) * 3)
        if isinstance(message, ReplyMessage):
            if arm == 0:
                return dataclass_replace(message, tag=self._phantom_tag(message.tag))
            return dataclass_replace(message, flag=not message.flag)
        if arm == 0:
            return dataclass_replace(message, tag=self._phantom_tag(message.tag))
        if arm == 1:
            return dataclass_replace(
                message, destination=self._drift_point(state, message.destination)
            )
        return dataclass_replace(
            message, pair_key=self._drift_point(state, message.pair_key)
        )


class RetransmitTransport(Transport):
    """Per-message ack/retransmission wrapper around any inner transport.

    Models the standard reliability layer: every message is (implicitly)
    acknowledged; a sender that hears no ack within ``timeout`` simulation
    time re-sends, up to ``retries`` times.  Semantically each attempt is
    one independent pass through the *inner* transport's loss model, so a
    message is lost only when **all** ``retries + 1`` attempts are lost --
    an inner loss rate ``p`` becomes ``p^(retries + 1)`` end to end, which
    is what lets "eventual job service" hold at loss rates far beyond what
    the monitoring timeout alone can absorb.  Each lost attempt charges one
    ``timeout`` of extra delivery delay (the ack wait), so reliability is
    paid for in latency, never bought for free.

    The wrapper composes with the hook architecture rather than scheduling
    its own events: :meth:`drops` rolls the inner loss die up to
    ``retries + 1`` times (in send order, deterministic), :meth:`mutate`
    and the delay floor delegate to the inner transport, and
    :meth:`latency` adds the retransmission waits of the attempts that
    failed.  FIFO clamping still comes from the shared base class.

    ``inner`` accepts a :class:`TransportSpec`, its JSON form, a bare kind
    name, or a ready instance; the default inner channel is lossless (the
    wrapper is then a no-op with counters).
    """

    kind = "retransmit"

    def __init__(
        self,
        inner: "Transport | TransportSpec | Mapping | str | None" = None,
        retries: int = 3,
        timeout: float = 0.5,
    ) -> None:
        super().__init__()
        if isinstance(inner, Mapping):
            inner = TransportSpec.from_json(inner)
        resolved = build_transport(inner, default=ReliableTransport)
        assert resolved is not None
        self.inner = resolved
        retries = int(retries)
        timeout = float(timeout)
        if retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries}")
        if timeout <= 0:
            raise ValueError(f"retransmit timeout must be positive, got {timeout}")
        self.retries = retries
        self.timeout = timeout
        #: Extra attempts spent recovering lost first transmissions.
        self.retransmissions = 0
        #: Attempts the inner channel ate (including exhausted messages).
        self.attempts_lost = 0
        #: Delay surcharge of the message being scheduled (set by ``drops``,
        #: consumed by ``latency`` -- ``send`` calls the hooks in order).
        self._pending_wait = 0.0

    def _reset_streams(self) -> None:
        self.retransmissions = 0
        self.attempts_lost = 0
        self._pending_wait = 0.0
        self.inner._reset_streams()

    def drops(self, sender: Hashable, destination: Hashable, message: Any) -> bool:
        for attempt in range(self.retries + 1):
            if not self.inner.drops(sender, destination, message):
                self.retransmissions += attempt
                self.attempts_lost += attempt
                self._pending_wait = attempt * self.timeout
                return False
        self.retransmissions += self.retries
        self.attempts_lost += self.retries + 1
        self._pending_wait = 0.0
        return True

    def mutate(self, sender: Hashable, destination: Hashable, message: Any) -> Any:
        return self.inner.mutate(sender, destination, message)

    def latency(self, sender: Hashable, destination: Hashable, message: Any) -> float:
        wait, self._pending_wait = self._pending_wait, 0.0
        return wait + float(self.inner.latency(sender, destination, message))

    def stream_state(self) -> Optional[Dict[str, Any]]:
        return self.inner.stream_state()

    def restore_stream_state(self, state: Optional[Dict[str, Any]]) -> None:
        self.inner.restore_stream_state(state)


# --------------------------------------------------------------------------- #
# the spec: frozen, JSON-safe, hashable
# --------------------------------------------------------------------------- #

#: Spec-constructible transport models: kind -> (factory, allowed params).
TRANSPORT_KINDS: Dict[str, Tuple[Callable[..., Transport], Tuple[str, ...]]] = {
    "reliable": (ReliableTransport, ("delay",)),
    "latency": (LatencyTransport, ("delay", "jitter", "seed")),
    "distance-latency": (DistanceLatencyTransport, ("delay", "per_step")),
    "lossy": (LossyTransport, ("loss", "delay", "seed", "stream")),
    "corrupting": (CorruptingTransport, ("rate", "delay", "seed", "stream")),
    "retransmit": (RetransmitTransport, ("inner", "retries", "timeout")),
}


def available_transports() -> Tuple[str, ...]:
    """Spec-constructible transport kinds, sorted."""
    return tuple(sorted(TRANSPORT_KINDS))


@dataclass(frozen=True)
class TransportSpec:
    """A frozen, JSON-round-trippable description of one transport.

    ``params`` is normalized to a sorted tuple of pairs so specs are
    hashable and canonicalize identically regardless of construction order
    -- the property run-config content hashing relies on.
    """

    kind: str = "reliable"
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in TRANSPORT_KINDS:
            raise ValueError(
                f"unknown transport kind {self.kind!r}; "
                f"available: {', '.join(available_transports())}"
            )
        if isinstance(self.params, Mapping):
            items = tuple(self.params.items())
        else:
            items = tuple(tuple(pair) for pair in self.params)
        allowed = TRANSPORT_KINDS[self.kind][1]
        normalized = []
        for key, value in items:
            if key not in allowed:
                raise ValueError(
                    f"unknown parameter {key!r} for transport {self.kind!r}; "
                    f"allowed: {', '.join(allowed)}"
                )
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"transport param {key!r} is not JSON-serializable: {value!r}"
                ) from None
            normalized.append((key, value))
        normalized.sort(key=lambda pair: pair[0])
        object.__setattr__(self, "params", tuple(normalized))
        try:
            self.build()  # validate parameter values eagerly
        except TypeError as error:
            # Funnel junk-typed params (e.g. a JSON list for a float knob)
            # into the ValueError channel every caller already handles.
            raise ValueError(
                f"invalid parameters for transport {self.kind!r}: {error}"
            ) from None

    def __hash__(self) -> int:
        # The dataclass-generated hash tuples the fields, which breaks on
        # structured parameter values (e.g. retransmit's nested ``inner``
        # spec, a dict).  Hash the canonical JSON instead: equal specs
        # canonicalize identically, so the eq/hash contract holds for every
        # JSON-serializable parameter shape.
        return hash(json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")))

    def params_dict(self) -> Dict[str, Any]:
        """The parameters as a plain dictionary."""
        return dict(self.params)

    def build(self) -> Transport:
        """A fresh transport instance (one per run -- transports are stateful)."""
        factory = TRANSPORT_KINDS[self.kind][0]
        return factory(**self.params_dict())

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": self.params_dict()}

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "TransportSpec":
        return cls(
            kind=payload.get("kind", "reliable"),
            params=tuple(sorted(dict(payload.get("params", {})).items())),
        )


def build_transport(
    transport: "Transport | TransportSpec | str | None",
    *,
    default: Optional[Callable[[], Transport]] = None,
) -> Optional[Transport]:
    """Resolve any accepted transport description to an instance.

    Accepts a ready transport (returned as-is), a spec, a bare kind name
    (default parameters), or ``None`` (resolved through ``default`` when
    given).
    """
    if transport is None:
        return default() if default is not None else None
    if isinstance(transport, Transport):
        return transport
    if isinstance(transport, TransportSpec):
        return transport.build()
    if isinstance(transport, str):
        return TransportSpec(kind=transport).build()
    raise TypeError(f"not a transport, spec, or kind name: {transport!r}")
