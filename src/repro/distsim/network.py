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
* on a fixed-delay channel (reliable or lossy) every send is a
  ``(sender, destinations, message)`` record, scheduled by
  :meth:`~repro.distsim.transport.Transport.send_batch` at once or, inside
  a :meth:`Network.deferred_sends` scope, with the rest of the scope;
  ``now + delay`` never decreases, so links keep FIFO order unclamped;
* any other channel schedules one message at a time through
  :meth:`~repro.distsim.transport.Transport.send`, which clamps per link;
* when no transport is given, the channel is the paper's: a
  :class:`~repro.distsim.transport.ReliableTransport` with a fixed delay.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence

from repro.distsim.engine import Simulator
from repro.distsim.failures import FailurePlan
from repro.distsim.process import Process
from repro.distsim.transport import Record, ReliableTransport, Transport

__all__ = ["Network", "UnknownDestination"]


class UnknownDestination(KeyError):
    """A send addressed to an identity this network never registered."""

    def __init__(self, destination: Hashable) -> None:
        super().__init__(f"unknown destination {destination!r}")
        self.destination = destination


class Network:
    """The message fabric connecting processes.

    Parameters
    ----------
    simulator:
        The discrete-event engine driving the run.  A fresh one is created
        when omitted.
    delay:
        The reliable channel's fixed non-negative delay, used only when no
        ``transport`` is given.
    failure_plan:
        Optional failure injection (crashed processes, dropped messages).
    transport:
        The delivery model (see :mod:`repro.distsim.transport`).  Overrides
        ``delay`` when given; the network binds it to its simulator.
    """

    def __init__(
        self,
        simulator: Optional[Simulator] = None,
        *,
        delay: float = 1.0,
        failure_plan: Optional[FailurePlan] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        self.simulator = simulator if simulator is not None else Simulator()
        if transport is None:
            transport = ReliableTransport(delay)
        self.transport = transport.bind(self.simulator)
        self.failure_plan = failure_plan if failure_plan is not None else FailurePlan()
        #: Registered processes by identity.  A shard worker registers only
        #: its own shard's vehicles, so a send that would cross shards
        #: raises :class:`UnknownDestination` -- no per-send check needed.
        self._processes: Dict[Hashable, Process] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: Sends recorded inside a :meth:`deferred_sends` scope, as
        #: ``(sender, destinations, message)``; ``None`` outside one.
        self._deferred: Optional[List[Record]] = None

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
            raise UnknownDestination(destination)
        self.messages_sent += 1
        if self.failure_plan.should_drop(sender, destination, message):
            self.messages_dropped += 1
            return
        if self.failure_plan.is_crashed(destination):
            # Messages to crashed processes vanish; the sender is not told.
            self.messages_dropped += 1
            return
        if self._deferred is not None:
            self._deferred.append((sender, [destination], message))
            return
        if self.transport.deferred_latency() is not None:
            self._schedule([(sender, [destination], message)])
            return

        def _deliver(delivered: Any) -> None:
            self._deliver(((sender, (destination,), delivered),))

        if not self.transport.send(sender, destination, message, _deliver):
            self.messages_dropped += 1

    def send_many(self, sender: Hashable, destinations: Iterable[Hashable], message: Any) -> None:
        """Send one message to many destinations as one record.

        The common case of the protocol's traffic is a *broadcast*: the
        same heartbeat, query, or notice to every peer of a cube.  On a
        fixed-delay channel the broadcast's surviving destinations become
        one ``(sender, survivors, message)`` record, scheduled at once by
        :meth:`_schedule` (one queue entry that counts one event per
        message) or, inside a :meth:`deferred_sends` scope, with the rest
        of the scope.  On any other channel -- corrupting, retransmit and
        per-edge-latency transports, whose draws and delays are per
        message -- it is a loop of :meth:`send`, byte-identically.

        On the record path ``destinations`` is read once, into a list.  A
        broadcast nothing can drop -- no drop predicates,
        a live sender, no partition window active at ``plan.clock``, no
        crashed destination (one ``isdisjoint`` with the crashed set) --
        is accepted whole by set operations: one registration test per
        destination in C, no Python loop.  Inside a shard worker that
        includes a destination another shard owns: it was never
        registered there, so it raises :class:`UnknownDestination` like
        any other.  Any other broadcast walks its destinations, asking the
        failure plan about each (``should_drop``, then ``is_crashed``)
        only when the broadcast could be dropped, and otherwise dropping
        just the crashed ones.  Either way the counters --
        ``messages_sent``/``messages_dropped`` here, ``dropped_count`` and
        ``partition_dropped_count`` on the plan -- are those of the
        per-message loop, and an unknown destination leaves the accepted
        prefix scheduled (or recorded) before it raises, as that loop
        does.  Delivery is :meth:`_deliver`.
        """
        deferred = self._deferred
        if deferred is None and self.transport.deferred_latency() is None:
            for destination in destinations:
                self.send(sender, destination, message)
            return
        plan = self.failure_plan
        processes = self._processes
        crashed = plan.crashed
        # A private copy: the record outlives this call, and the caller
        # may reuse its list.
        targets = list(destinations)
        checked = (
            bool(plan.drop_predicates)
            or sender in crashed
            or (
                bool(plan.partitions)
                and any(spec.active_at(plan.clock) for spec in plan.partitions)
            )
        )
        survivors = []
        sent = dropped = 0
        try:
            if (
                not checked
                and (not crashed or crashed.isdisjoint(targets))
                and all(map(processes.__contains__, targets))
            ):
                survivors = targets
                sent = len(targets)
            else:
                for destination in targets:
                    if destination not in processes:
                        raise UnknownDestination(destination)
                    sent += 1
                    if checked:
                        if plan.should_drop(sender, destination, message) or plan.is_crashed(
                            destination
                        ):
                            # Dropped by the plan, or addressed to a crashed
                            # process (the sender is not told) -- exactly
                            # `send`'s two cases.
                            dropped += 1
                            continue
                    elif destination in crashed:
                        dropped += 1
                        continue
                    survivors.append(destination)
        finally:
            self.messages_sent += sent
            self.messages_dropped += dropped
            # On an unknown destination mid-broadcast the messages accepted
            # so far are still scheduled (or recorded) -- the same state a
            # sequential `send` loop leaves behind when it raises.
            if survivors:
                if deferred is not None:
                    deferred.append((sender, survivors, message))
                else:
                    self._schedule([(sender, survivors, message)])

    def _schedule(self, records: List[Record]) -> None:
        """Hand fixed-delay records to the transport; count what it lost."""
        self.messages_dropped += self.transport.send_batch(self._deliver, records)

    def _deliver(self, records: Iterable[Record]) -> None:
        """Deliver one queue entry's ``(sender, targets, message)`` records.

        The one delivery loop: a fixed-delay entry (a flushed
        :meth:`deferred_sends` scope or one send outside it) and a single
        per-message :meth:`send` (a one-record, one-target batch) all run
        here.  Records run in order, each
        record's targets in order.  A target crashed since the send is
        dropped; the crashed set is read once per record (crashes happen
        between queue entries, never inside a handler), and filtered only
        when it meets the targets.  ``messages_delivered`` and
        ``messages_dropped`` move once per record.  Every other target's
        process gets ``on_message(sender, message)``, looked up on the
        instance at call time (so a method patched onto the class sees
        every delivery), after the message is appended to its
        ``message_log`` when its ``log_messages`` is set.

        A raising handler ends the entry there, as it ends a per-message
        run: the deliveries it left unreached are taken back out of the
        counters and of ``stats.executed`` (which counted the entry's
        whole weight before it ran), so both read as the per-message
        path's at the raise.
        """
        # Read crash state through the plan: a checkpoint restore rebinds
        # ``plan.crashed``.
        crashed = self.failure_plan.crashed
        processes = self._processes
        records = iter(records)
        targets: Sequence[Hashable] = ()
        live: Sequence[Hashable] = ()
        pending: Iterator[Hashable] = iter(())
        try:
            for sender, targets, message in records:
                live = targets
                if crashed and not crashed.isdisjoint(targets):
                    live = [target for target in targets if target not in crashed]
                    self.messages_dropped += len(targets) - len(live)
                self.messages_delivered += len(live)
                pending = iter(live)
                for destination in pending:
                    process = processes[destination]
                    if process.log_messages:
                        process.message_log.append((sender, message))
                    process.on_message(sender, message)
        except BaseException:
            self._unreach(targets, live, len(list(pending)), records)
            raise

    def _unreach(
        self,
        targets: Sequence[Hashable],
        live: Sequence[Hashable],
        rest: int,
        records: Iterator[Record],
    ) -> None:
        """Take back the accounting of the deliveries a raise left unreached.

        ``live`` are the record's uncrashed ``targets`` in order, ``rest``
        of them after the raising one; ``records`` are the entry's later
        records.
        """
        reached = len(live) - rest
        position = reached - 1  # of the raising delivery, within ``targets``
        if live is not targets and reached:
            # ``live`` is the subsequence of uncrashed targets; equal
            # identities share a crash state, so a greedy match finds it.
            seen = 0
            for position, target in enumerate(targets):
                if target == live[seen]:
                    seen += 1
                    if seen == reached:
                        break
        self.messages_delivered -= rest
        self.messages_dropped -= (len(targets) - len(live)) - (position + 1 - reached)
        self.simulator.stats.executed -= (len(targets) - position - 1) + sum(
            [len(later) for _, later, _ in records]
        )

    # ------------------------------------------------------------------ #
    # deferred sends
    # ------------------------------------------------------------------ #

    @contextmanager
    def deferred_sends(self) -> Iterator[None]:
        """Schedule this block's sends as one queue entry.

        Inside the scope, on a fixed-delay channel
        (:meth:`~repro.distsim.transport.Transport.deferred_latency`: the
        reliable and the lossy channels), every :meth:`send` and
        :meth:`send_many` still runs its failure-plan checks and
        ``messages_sent`` accounting at once, but keeps its record instead
        of scheduling it.  The records are flushed -- one
        :meth:`~repro.distsim.transport.Transport.send_batch` call, which
        draws their losses in record order and makes the survivors *one*
        weighted ``"message"`` entry -- when the scope exits (also on an
        exception) and before any other ``Simulator.schedule``/
        ``schedule_at``/``schedule_batch`` push.  A heartbeat round is
        thus one queue entry.

        Every push therefore lands in the queue in the order one entry per
        send would have made it, the entries the flush replaces would have
        sat next to each other in one bucket with nothing between them,
        and the loss draws consume the stream in the same per-edge order:
        the run is byte-identical, only cheaper.  Only an event budget
        (``Simulator.run_window(max_events=)``) sees the difference: it
        never splits an entry, so it may now overrun by up to a flushed
        entry's weight.  Nothing recorded outlives the scope, so
        checkpoints never see it.

        On any other transport, or when a scope is already open, this is a
        no-op.
        """
        if self.transport.deferred_latency() is None or self._deferred is not None:
            yield
            return
        simulator = self.simulator
        previous = simulator.before_push
        self._deferred = []
        simulator.before_push = self._flush_deferred
        try:
            yield
        finally:
            simulator.before_push = previous
            try:
                self._flush_deferred()
            finally:
                self._deferred = None

    def _flush_deferred(self) -> None:
        """Schedule every recorded send's survivors as one queue entry."""
        records = self._deferred
        if records:
            self._deferred = []
            self._schedule(records)

    # ------------------------------------------------------------------ #
    # execution helpers
    # ------------------------------------------------------------------ #

    def run_until_quiescent(self, *, max_events: int = 10_000_000) -> int:
        """Drain the simulator; returns the number of events executed."""
        return self.simulator.run_until_quiescent(max_events=max_events)
