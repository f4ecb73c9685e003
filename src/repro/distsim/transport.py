"""The pluggable message-transport layer.

Section 3.2's communication model (bidirectional links, per-link FIFO,
finite but arbitrary delays) used to be hard-wired into
:class:`~repro.distsim.network.Network`: every send scheduled an
instantaneous-or-fixed-delay delivery, which quietly turned the
"asynchronous message-passing system" the protocol is analyzed over into a
lockstep harness.  This module makes the delivery model a first-class,
swappable object:

* :class:`Transport` -- the base class.  It owns delivery scheduling on the
  simulation clock (FIFO clamping per directed link, the delivery event
  itself) and exposes three hooks -- :meth:`~Transport.latency`,
  :meth:`~Transport.drops`, :meth:`~Transport.mutate` -- that concrete
  transports override.
* :class:`ReliableTransport` -- delay zero or fixed (or a callable, the
  historical ``DelayFunction`` escape hatch).  The paper's error-free model.
* :class:`LatencyTransport` -- per-edge deterministic jitter: every directed
  link gets its own fixed latency derived from a keyed hash of
  ``(seed, sender, destination)``.  No RNG state is consumed, so delays are
  independent of send order *and* stable across processes (Python's
  ``hash()`` is salted per process; the keyed blake2b digest is not).
* :class:`DistanceLatencyTransport` -- delay growing linearly with the
  Manhattan distance between the endpoints' lattice identities: the
  physical radio model the mobility scenarios run over.
* :class:`RetransmitTransport` -- per-message ack/retransmission wrapper
  around any inner transport: up to ``retries`` re-sends, each lost
  attempt paying one ``timeout`` of extra delay, so an inner loss rate
  ``p`` becomes ``p^(retries + 1)`` end to end.
* :class:`LossyTransport` -- seeded i.i.d. message loss.  The drop stream is
  drawn from the transport's own ``numpy`` generator in send order, which is
  deterministic because every run constructs its own transport from a spec.
* :class:`CorruptingTransport` -- seeded Byzantine corruption of the Phase
  I/II protocol messages (query/reply/move): reply flags flip, destination
  and pair coordinates drift, computation tags are scrambled into phantom
  rounds.  The vehicle state machine must survive every such mutation
  legally -- the transport only ever emits well-typed messages, never
  exceptions-in-waiting.
* :class:`RandomJitterTransport` -- the historical randomized-delay model
  (uniform on ``[d/2, 3d/2]`` from a shared generator); kept for
  byte-compatibility with pre-transport runs, not spec-constructible.

:class:`TransportSpec` is the frozen, JSON-round-trippable description used
by run configs (:mod:`repro.api.config`), the workload library, and the CLI
(``--transport``): ``TransportSpec("lossy", {"loss": 0.1, "seed": 3})``
builds the same transport everywhere, which is what makes transport sweeps
cacheable and byte-identical across worker pools.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace as dataclass_replace
from typing import Any, Callable, Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

from repro.distsim.engine import Simulator

__all__ = [
    "Transport",
    "ReliableTransport",
    "LatencyTransport",
    "DistanceLatencyTransport",
    "LossyTransport",
    "CorruptingTransport",
    "RetransmitTransport",
    "RandomJitterTransport",
    "TransportSpec",
    "TRANSPORT_KINDS",
    "available_transports",
    "build_transport",
]

DelayFunction = Callable[[Hashable, Hashable, Any], float]
Deliver = Callable[[Any], None]

#: Seed salts so a transport's loss stream and corruption stream never
#: collide with the demand/failure/arrival streams of the same scenario seed.
_LOSS_SALT = 0x10E55
_CORRUPT_SALT = 0xBADB17


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
        across runs still reproduces a fresh run bit for bit.  (The
        exception is :class:`RandomJitterTransport`, whose stream belongs
        to the caller.)
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
    # sharding contract
    # ------------------------------------------------------------------ #

    @property
    def shardable(self) -> bool:
        """Whether per-shard instances reproduce the single-process run.

        A transport is shardable when its latency is a *pure function of
        the edge* -- no stream state consumed in global send order -- so
        splitting the fleet across independent simulators cannot perturb
        any delivery time.  Stream-coupled models (lossy, corrupting,
        shared-RNG jitter) are not: their draws depend on the interleaved
        global send sequence, which only the single-process run produces.
        Conservative default: not shardable.
        """
        return False

    def stream_state(self) -> Optional[Dict[str, Any]]:
        """JSON-safe state of any keyed counter streams (hook).

        Checkpoints capture numpy generator state separately (it predates
        this hook); transports that keep *additional* stream state -- the
        per-edge message counters of the ``stream="edge"`` modes -- export
        it here so a resumed run continues every edge stream exactly where
        it stopped.  ``None`` means nothing beyond the generator state.
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

        ``deliver`` is invoked with the (possibly mutated) message at the
        scheduled delivery time.  FIFO clamping guarantees deliveries on the
        same directed link execute in send order even when later messages
        draw shorter latencies.
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
    # batched dispatch (the reliable fixed-delay fast path)
    # ------------------------------------------------------------------ #

    def batch_latency(
        self, sender: Hashable, destinations: Any, message: Any
    ) -> Optional[float]:
        """The shared delay of a batchable broadcast, or ``None``.

        A transport may return a single non-negative delay when delivering
        ``message`` from ``sender`` to every destination (i) cannot drop,
        (ii) cannot mutate, and (iii) costs the same delay on every link --
        the network then routes the whole broadcast through one
        :meth:`send_batch` call instead of one :meth:`send` per
        destination.  The default ``None`` keeps the per-message path;
        only :class:`ReliableTransport` (the differential suites' common
        case) opts in.
        """
        return None

    def send_batch(
        self,
        sender: Hashable,
        destinations: Any,
        message: Any,
        make_deliver: Callable[[Hashable], Callable[[], None]],
        delay: float,
    ) -> None:
        """Schedule one message to many destinations in a single batch.

        Only valid after :meth:`batch_latency` returned ``delay`` for this
        broadcast (no drops, no mutation, uniform delay).  FIFO clamping
        per directed link is applied exactly as :meth:`send` does; when no
        link needs clamping -- the overwhelmingly common case -- the whole
        batch lands in one calendar-queue bucket via ``push_many_at``.
        Sequence numbers are assigned in destination order, so event
        execution is byte-identical to per-message sends.
        """
        simulator = self.simulator
        base = simulator.now + delay
        last = self._last_delivery
        queue = simulator.queue
        actions = []
        clamped = None
        for destination in destinations:
            link = (sender, destination)
            previous = last.get(link)
            if previous is not None and previous > base:
                last[link] = previous
                if clamped is None:
                    clamped = []
                clamped.append((previous, len(actions)))
            else:
                last[link] = base
            actions.append(make_deliver(destination))
        self.messages_scheduled += len(actions)
        if clamped is None:
            queue.push_many_at(base, actions, kind="message")
            return
        # Rare: some link's previous delivery lands later than this batch.
        entries = [(base, action) for action in actions]
        for time, position in clamped:
            entries[position] = (time, entries[position][1])
        queue.push_many(entries, kind="message")


class ReliableTransport(Transport):
    """Error-free delivery with a zero/fixed delay (the paper's model).

    ``delay`` may also be a callable ``(sender, destination, message) ->
    delay`` -- the historical ``DelayFunction`` form the network layer has
    always accepted.
    """

    kind = "reliable"

    def __init__(self, delay: float | DelayFunction = 0.0) -> None:
        super().__init__()
        if not callable(delay):
            delay = float(delay)  # ValueError on junk, before any comparison
            if delay < 0:
                raise ValueError(f"delay must be non-negative, got {delay}")
        self.delay = delay

    def latency(self, sender: Hashable, destination: Hashable, message: Any) -> float:
        if callable(self.delay):
            return float(self.delay(sender, destination, message))
        return float(self.delay)

    def batch_latency(
        self, sender: Hashable, destinations: Any, message: Any
    ) -> Optional[float]:
        # The fixed-delay reliable channel satisfies the batch contract
        # (never drops, never mutates, uniform delay).  The ``type`` check
        # keeps subclasses that override any hook off the fast path unless
        # they opt in themselves; a callable delay may vary per link.
        if type(self) is ReliableTransport and not callable(self.delay):
            return self.delay
        return None

    @property
    def shardable(self) -> bool:
        # A fixed delay is a pure edge function; a callable may close over
        # anything (including shared state), so it stays off the shard path.
        return type(self) is ReliableTransport and not callable(self.delay)


def _edge_unit(seed: int, sender: Hashable, destination: Hashable) -> float:
    """A deterministic uniform-ish value in ``[0, 1)`` per directed edge.

    Keyed blake2b over the canonical edge encoding: stable across runs,
    processes, and interpreter hash randomization (``hash()`` is not).
    The seed is folded into 64 bits, so any Python int is a valid seed.
    """
    key = (int(seed) & (2**64 - 1)).to_bytes(8, "little")
    digest = hashlib.blake2b(
        repr((sender, destination)).encode("utf-8"), key=key, digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / 2**64


def _edge_stream_rng(
    seed: int, salt: int, sender: Hashable, destination: Hashable, counter: int
) -> np.random.Generator:
    """The per-message generator of a per-edge keyed counter stream.

    The stream split that makes loss/corruption shardable: randomness is
    derived per ``(edge, purpose salt, seed, message counter)`` instead of
    one generator consumed in global send order.  Every directed edge lives
    inside exactly one shard (both endpoints answer at their home cubes),
    and per-edge message order is deterministic, so per-shard replay
    reproduces the single-process draws regardless of how sends from
    different edges interleave.  Keyed blake2b keeps it process-stable.
    """
    key = (int(seed) & (2**64 - 1)).to_bytes(8, "little")
    digest = hashlib.blake2b(
        repr((salt, sender, destination, counter)).encode("utf-8"),
        key=key,
        digest_size=16,
    ).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


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

    def latency(self, sender: Hashable, destination: Hashable, message: Any) -> float:
        return self.delay + self.jitter * _edge_unit(self.seed, sender, destination)

    @property
    def shardable(self) -> bool:
        return True  # pure edge function: no stream consumed


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

    @property
    def shardable(self) -> bool:
        return True  # pure edge function: no stream consumed


class _SeededTransport(Transport):
    """A fixed-delay channel with one seeded random stream, global or edge-keyed.

    The shared half of :class:`LossyTransport` and
    :class:`CorruptingTransport`.  ``stream`` selects how draws are derived:

    * ``"global"`` (the default, and the compat shim): draws come from the
      transport's own generator in global send order -- deterministic per
      run, reproducing every pre-split hash, but *not* shardable (the
      stream couples all edges together).
    * ``"edge"``: each message gets a fresh generator derived per
      ``(edge, purpose salt, seed, per-edge message counter)``
      (:func:`_edge_stream_rng`).  Draws depend only on per-edge send
      order, never on cross-edge interleaving, so per-shard sub-fleets
      reproduce the single-process run bit for bit -- this is the mode the
      multi-process shard engine requires.
    """

    #: Seed salt of the subclass's stream (loss vs corruption).
    salt = 0

    def __init__(self, delay: float, seed: int, stream: str) -> None:
        super().__init__()
        delay = float(delay)
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        if stream not in ("global", "edge"):
            raise ValueError(f'stream must be "global" or "edge", got {stream!r}')
        self.delay = delay
        self.seed = int(seed)
        self.stream = stream
        self._reset_streams()

    def _reset_streams(self) -> None:
        self._rng = np.random.default_rng((self.seed, self.salt))
        self._edge_counts: Dict[Tuple[Hashable, Hashable], int] = {}

    def _draws(self, sender: Hashable, destination: Hashable) -> np.random.Generator:
        """The generator this message's draws come from."""
        if self.stream != "edge":
            return self._rng
        edge = (sender, destination)
        counter = self._edge_counts.get(edge, 0)
        self._edge_counts[edge] = counter + 1
        return _edge_stream_rng(self.seed, self.salt, sender, destination, counter)

    def latency(self, sender: Hashable, destination: Hashable, message: Any) -> float:
        return self.delay

    @property
    def shardable(self) -> bool:
        return self.stream == "edge"  # per-edge streams: no cross-edge coupling

    def stream_state(self) -> Optional[Dict[str, Any]]:
        if self.stream != "edge":
            return None
        return {
            "edge_counts": [
                [_encode_edge_key(edge), count]
                for edge, count in sorted(
                    self._edge_counts.items(), key=lambda item: repr(item[0])
                )
            ]
        }

    def restore_stream_state(self, state: Optional[Dict[str, Any]]) -> None:
        if not state:
            return
        self._edge_counts = {
            _decode_edge_key(edge): int(count)
            for edge, count in state.get("edge_counts", [])
        }


class LossyTransport(_SeededTransport):
    """Seeded i.i.d. message loss on top of a fixed delay.

    Each send draws once from the ``stream`` (see :class:`_SeededTransport`)
    and is lost with probability ``loss``.
    """

    kind = "lossy"
    salt = _LOSS_SALT

    def __init__(
        self,
        loss: float = 0.05,
        delay: float = 0.0,
        seed: int = 0,
        stream: str = "global",
    ) -> None:
        loss = float(loss)
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss probability must lie in [0, 1], got {loss}")
        self.loss = loss
        super().__init__(delay, seed, stream)

    def drops(self, sender: Hashable, destination: Hashable, message: Any) -> bool:
        return bool(self._draws(sender, destination).random() < self.loss)


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

    Draws come from the ``stream`` (see :class:`_SeededTransport`); in the
    ``"edge"`` mode only protocol messages advance an edge's counter.
    """

    kind = "corrupting"
    salt = _CORRUPT_SALT

    def __init__(
        self,
        rate: float = 0.05,
        delay: float = 0.0,
        seed: int = 0,
        stream: str = "global",
    ) -> None:
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"corruption rate must lie in [0, 1], got {rate}")
        self.rate = rate
        super().__init__(delay, seed, stream)

    def _drift_point(
        self, rng: np.random.Generator, point: Tuple[int, ...]
    ) -> Tuple[int, ...]:
        axis = int(rng.integers(0, len(point)))
        step = 1 if rng.random() < 0.5 else -1
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
        # One generator serves every draw this message needs: the rate check
        # and any mutation arms.
        rng = self._draws(sender, destination)
        if rng.random() >= self.rate:
            return message
        arm = int(rng.integers(0, 3))
        if isinstance(message, ReplyMessage):
            if arm == 0:
                return dataclass_replace(message, tag=self._phantom_tag(message.tag))
            return dataclass_replace(message, flag=not message.flag)
        if arm == 0:
            return dataclass_replace(message, tag=self._phantom_tag(message.tag))
        if arm == 1:
            return dataclass_replace(
                message, destination=self._drift_point(rng, message.destination)
            )
        return dataclass_replace(
            message, pair_key=self._drift_point(rng, message.pair_key)
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

    @property
    def shardable(self) -> bool:
        # Shardable exactly when the inner channel is: a lossless shardable
        # inner never consumes a stream through ``drops``, so the wrapper
        # adds no send-order coupling of its own.
        return self.inner.shardable

    def stream_state(self) -> Optional[Dict[str, Any]]:
        return self.inner.stream_state()

    def restore_stream_state(self, state: Optional[Dict[str, Any]]) -> None:
        self.inner.restore_stream_state(state)


class RandomJitterTransport(Transport):
    """The historical randomized-delay model: uniform on ``[d/2, 3d/2]``.

    Draws come from a *shared* generator (the fleet's run RNG), exactly as
    the pre-transport network did, so existing seeded runs keep their
    byte-identical histories.  Because the generator is shared it cannot be
    described by a :class:`TransportSpec`; new experiments should prefer
    :class:`LatencyTransport`.
    """

    kind = "random-jitter"

    def __init__(self, delay: float, rng: np.random.Generator) -> None:
        super().__init__()
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.delay = float(delay)
        self._rng = rng

    def latency(self, sender: Hashable, destination: Hashable, message: Any) -> float:
        return float(self._rng.uniform(self.delay / 2, 3 * self.delay / 2))


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
