"""Message delivery between registered processes, routed through a transport.

The communication model of Section 3.2 assumes: bidirectional links,
error-free transmission, per-link FIFO ordering ("synchronous communication:
messages sent from P to Q arrive in the order sent"), finite but arbitrary
delays, and negligible energy cost for communication.  The network layer
owns *who* can talk (process registration, crash/partition failure
injection via :class:`~repro.distsim.failures.FailurePlan`); the *channel
itself* -- delays, loss, corruption, FIFO scheduling on the simulation
clock -- lives in a pluggable :class:`~repro.distsim.transport.Transport`:

* each ``send`` first passes one admission test -- nothing in the failure
  plan (crashed endpoints, partitions, drop rules) can drop it and every
  destination is registered -- or, failing it, consults the failure plan
  per destination; then it hands the message to the transport, which
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
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set

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
        #: Whether every send is a record for ``send_batch`` (the channel
        #: has a :meth:`~repro.distsim.transport.Transport.deferred_latency`),
        #: read once here: a transport's delay model is fixed for its run.
        self._fixed_delay = self.transport.deferred_latency() is not None
        self.failure_plan = failure_plan if failure_plan is not None else FailurePlan()
        #: Registered processes by identity.  A shard worker registers only
        #: its own shard's vehicles, so a send that would cross shards
        #: raises :class:`UnknownDestination` -- no per-send check needed.
        self._processes: Dict[Hashable, Process] = {}
        #: The keys of ``_processes`` as a set, for :meth:`_admits`'s
        #: one-call registration test of a whole broadcast.
        self._registered: Set[Hashable] = set()
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
        self._registered.add(process.identity)
        process.attach(self)

    def register_all(self, processes: Iterable[Process]) -> None:
        """Register many processes (one loop, no per-process call stack)."""
        registered = self._processes
        identities = self._registered
        for process in processes:
            if process.identity in registered:
                raise ValueError(f"duplicate process identity {process.identity!r}")
            registered[process.identity] = process
            identities.add(process.identity)
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

    def _admits(self, sender: Hashable, targets: Sequence[Hashable]) -> bool:
        """Whether ``sender``'s message to every one of ``targets`` is
        accepted whole: the one admission test of :meth:`send` and
        :meth:`send_many`.

        True when nothing in the failure plan can drop it -- no drop
        predicates, the sender and every target alive, no partition window
        active at ``plan.clock`` -- and every target is registered.  The
        crash and registration tests are one C-level set call each, and
        the conditions short-circuit in order of cost.  A ``False`` sends
        the message down the per-destination walk, which asks the plan
        about each destination or raises :class:`UnknownDestination`.
        """
        plan = self.failure_plan
        crashed = plan.crashed
        return (
            not plan.drop_predicates
            and (not crashed or (sender not in crashed and crashed.isdisjoint(targets)))
            and not (plan.partitions and plan.active_partitions())
            and self._registered.issuperset(targets)
        )

    def send(self, sender: Hashable, destination: Hashable, message: Any) -> None:
        """Send a message; the transport schedules its delivery event.

        A message :meth:`_admits` is counted and sent.  Any other raises
        :class:`UnknownDestination` for an unregistered destination, and
        otherwise asks the failure plan (``should_drop``, then
        ``is_crashed``) whether to drop it.
        """
        targets = (destination,)
        if self._admits(sender, targets):
            self.messages_sent += 1
        else:
            if destination not in self._processes:
                raise UnknownDestination(destination)
            self.messages_sent += 1
            plan = self.failure_plan
            if plan.should_drop(sender, destination, message) or plan.is_crashed(destination):
                # Dropped by the plan, or addressed to a crashed process
                # (the sender is not told).
                self.messages_dropped += 1
                return
        if self._deferred is not None:
            self._deferred.append((sender, targets, message))
            return
        if self._fixed_delay:
            self._schedule([(sender, targets, message)])
            return

        def _deliver(delivered: Any) -> None:
            self._deliver(((sender, targets, delivered),))

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

        On the record path ``destinations`` is read exactly once: a tuple
        is kept as it is (the record outlives this call, and a tuple
        cannot change under it), anything else is read into a private
        list (a caller may reuse its list).  A broadcast :meth:`_admits`
        is accepted whole, with no Python loop.  Any other walks its
        destinations: it asks the failure plan about each (``should_drop``,
        then ``is_crashed``) when the broadcast could be dropped, and
        otherwise drops just the crashed ones.  Inside a shard worker a
        destination another shard owns was never registered there, so it
        raises :class:`UnknownDestination` like any other.  Either way
        the counters -- ``messages_sent``/``messages_dropped`` here,
        ``dropped_count`` and ``partition_dropped_count`` on the plan --
        are those of the per-message loop, and an unknown destination
        leaves the accepted prefix scheduled (or recorded) before it
        raises, as that loop does.  Delivery is :meth:`_deliver`.
        """
        deferred = self._deferred
        if deferred is None and not self._fixed_delay:
            for destination in destinations:
                self.send(sender, destination, message)
            return
        targets = destinations if type(destinations) is tuple else list(destinations)
        survivors: Sequence[Hashable] = ()
        sent = dropped = 0
        try:
            if self._admits(sender, targets):
                survivors = targets
                sent = len(targets)
            else:
                plan = self.failure_plan
                processes = self._processes
                crashed = plan.crashed
                checked = (
                    bool(plan.drop_predicates)
                    or sender in crashed
                    or bool(plan.partitions and plan.active_partitions())
                )
                survivors = []
                for destination in targets:
                    if destination not in processes:
                        raise UnknownDestination(destination)
                    sent += 1
                    if checked:
                        if plan.should_drop(sender, destination, message) or plan.is_crashed(
                            destination
                        ):
                            # Exactly `send`'s two drop cases.
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
        if not self._fixed_delay or self._deferred is not None:
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
