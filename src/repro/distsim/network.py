"""Message delivery between registered processes, routed through a transport.

The communication model of Section 3.2 assumes: bidirectional links,
error-free transmission, per-link FIFO ordering ("synchronous communication:
messages sent from P to Q arrive in the order sent"), finite but arbitrary
delays, and negligible energy cost for communication.  The network layer
owns *who* can talk (process registration, crash/partition failure
injection via :class:`~repro.distsim.failures.FailurePlan`); the *channel
itself* -- delays, loss, corruption, FIFO scheduling on the simulation
clock -- lives in a pluggable :class:`~repro.distsim.transport.Transport`:

* each ``send`` first consults the failure plan (crashed endpoints,
  partitions, drop rules), then hands the message to the transport, which
  schedules the delivery event;
* deliveries on the same directed link never overtake one another
  (FIFO clamping is a :class:`~repro.distsim.transport.Transport`
  invariant, shared by every delivery model);
* when no transport is given, the historical behavior is reproduced
  exactly: a fixed (or callable) delay, or -- when an RNG is supplied --
  the randomized uniform ``[d/2, 3d/2]`` delays of the original model.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional

import numpy as np

from repro.distsim.engine import Simulator
from repro.distsim.failures import FailurePlan
from repro.distsim.process import Process
from repro.distsim.transport import (
    DelayFunction,
    RandomJitterTransport,
    ReliableTransport,
    Transport,
)

__all__ = ["Network"]


class Network:
    """The message fabric connecting processes.

    Parameters
    ----------
    simulator:
        The discrete-event engine driving the run.  A fresh one is created
        when omitted.
    delay:
        Legacy channel description, used only when no ``transport`` is
        given: a fixed non-negative delay applied to every message, or a
        callable ``(sender, destination, message) -> delay``.  When ``rng``
        is supplied and ``delay`` is a number, delays are drawn uniformly
        from ``[delay/2, 3*delay/2]`` to exercise asynchrony.
    rng:
        Optional ``numpy`` random generator for the legacy randomized
        delays.
    failure_plan:
        Optional failure injection (crashed processes, dropped messages).
    transport:
        The delivery model (see :mod:`repro.distsim.transport`).  Overrides
        ``delay``/``rng`` when given; the network binds it to its simulator.
    """

    def __init__(
        self,
        simulator: Optional[Simulator] = None,
        *,
        delay: float | DelayFunction = 1.0,
        rng: Optional[np.random.Generator] = None,
        failure_plan: Optional[FailurePlan] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        self.simulator = simulator if simulator is not None else Simulator()
        if transport is None:
            if not callable(delay) and rng is not None:
                transport = RandomJitterTransport(float(delay), rng)
            else:
                transport = ReliableTransport(delay)
        self.transport = transport.bind(self.simulator)
        self.failure_plan = failure_plan if failure_plan is not None else FailurePlan()
        self._processes: Dict[Hashable, Process] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: Optional observer invoked once per logical send, *before* any
        #: drop decision: ``shard_monitor(sender, destination, message)``.
        #: Each shard worker installs an isolation guard here that raises
        #: on a cross-shard send; ``None`` (the default) costs nothing on
        #: the hot path beyond one attribute read.
        self.shard_monitor = None

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def register(self, process: Process) -> None:
        """Register a process; identities must be unique."""
        if process.identity in self._processes:
            raise ValueError(f"duplicate process identity {process.identity!r}")
        self._processes[process.identity] = process
        process.attach(self)

    def register_all(self, processes: Iterable[Process]) -> None:
        """Register many processes (one loop, no per-process call stack)."""
        registered = self._processes
        for process in processes:
            if process.identity in registered:
                raise ValueError(f"duplicate process identity {process.identity!r}")
            registered[process.identity] = process
            process.attach(self)

    def process(self, identity: Hashable) -> Process:
        """Look up a registered process by identity."""
        return self._processes[identity]

    def processes(self) -> List[Process]:
        """All registered processes."""
        return list(self._processes.values())

    def __contains__(self, identity: object) -> bool:
        return identity in self._processes

    def start(self) -> None:
        """Invoke every process's ``on_start`` hook (at time zero)."""
        for process in self._processes.values():
            if not self.failure_plan.is_crashed(process.identity):
                process.on_start()

    # ------------------------------------------------------------------ #
    # messaging
    # ------------------------------------------------------------------ #

    def send(self, sender: Hashable, destination: Hashable, message: Any) -> None:
        """Send a message; the transport schedules its delivery event."""
        if destination not in self._processes:
            raise KeyError(f"unknown destination {destination!r}")
        self.messages_sent += 1
        if self.shard_monitor is not None:
            self.shard_monitor(sender, destination, message)
        if self.failure_plan.should_drop(sender, destination, message):
            self.messages_dropped += 1
            return
        if self.failure_plan.is_crashed(destination):
            # Messages to crashed processes vanish; the sender is not told.
            self.messages_dropped += 1
            return

        def _deliver(delivered: Any) -> None:
            if self.failure_plan.is_crashed(destination):
                self.messages_dropped += 1
                return
            self.messages_delivered += 1
            self._processes[destination].deliver(sender, delivered)

        if not self.transport.send(sender, destination, message, _deliver):
            self.messages_dropped += 1

    def send_many(self, sender: Hashable, destinations: Iterable[Hashable], message: Any) -> None:
        """Send one message to many destinations, batched when possible.

        The common case of the protocol's traffic is a *broadcast*: the
        same heartbeat, query, or notice to every peer of a cube.  When
        the transport reports a shared batch delay (the reliable
        fixed-delay channel), the whole broadcast pays one failure-plan
        pass, one transport call and one calendar-queue batch push instead
        of a per-message ``send`` stack.  Otherwise -- lossy, corrupting,
        per-edge-latency and jitter transports, whose streams must be
        consumed in per-message send order -- it falls back to
        :meth:`send`, byte-identically.
        """
        transport = self.transport
        delay = transport.batch_latency(sender, destinations, message)
        if delay is None:
            for destination in destinations:
                self.send(sender, destination, message)
            return
        plan = self.failure_plan
        processes = self._processes
        monitor = self.shard_monitor

        def make_deliver(destination: Hashable) -> Any:
            def _deliver() -> None:
                if plan.is_crashed(destination):
                    self.messages_dropped += 1
                    return
                self.messages_delivered += 1
                processes[destination].deliver(sender, message)

            return _deliver

        survivors = []
        try:
            for destination in destinations:
                if destination not in processes:
                    raise KeyError(f"unknown destination {destination!r}")
                self.messages_sent += 1
                if monitor is not None:
                    monitor(sender, destination, message)
                if plan.should_drop(sender, destination, message) or plan.is_crashed(
                    destination
                ):
                    # Dropped by the plan, or addressed to a crashed process
                    # (the sender is not told) -- exactly `send`'s two cases.
                    self.messages_dropped += 1
                    continue
                survivors.append(destination)
        finally:
            # On an unknown destination mid-broadcast the messages accepted
            # so far are still scheduled -- the same state a sequential
            # `send` loop leaves behind when it raises.
            if survivors:
                transport.send_batch(sender, survivors, message, make_deliver, delay)

    # ------------------------------------------------------------------ #
    # execution helpers
    # ------------------------------------------------------------------ #

    def run_until_quiescent(self, *, max_events: int = 10_000_000) -> int:
        """Drain the simulator; returns the number of events executed."""
        return self.simulator.run_until_quiescent(max_events=max_events)
