"""The deterministic discrete-event simulation engine.

The engine composes the primitives of :mod:`repro.distsim.events` -- a
monotonic :class:`~repro.distsim.events.SimClock` and a heap-based
:class:`~repro.distsim.events.EventQueue` with ``(time, sequence)``
ordering -- into the :class:`Simulator` every protocol run is driven by.
Ties are broken by insertion order, so a run is fully determined by the
sequence of ``schedule`` calls: no wall-clock or hash-order nondeterminism
leaks into protocol executions, which keeps the online experiments
reproducible and the property-based tests meaningful.

Events execute strictly in timestamp order (``run`` /
``run_until_quiescent``), the clock jumping from event to event.  Timed
arrivals, heartbeat ticks, partition windows and churn all
ride on the same queue; ``run_window`` drains a bounded window without
padding the clock.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

from repro.distsim.events import EventQueue, EventStats, ScheduledEvent, SimClock

__all__ = ["Simulator"]


class Simulator:
    """Deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("hello at t=1"))
        sim.run()
    """

    def __init__(self) -> None:
        self.clock = SimClock()
        self.queue = EventQueue()
        #: Called before every ``schedule``/``schedule_at``/``schedule_batch``
        #: push while a network defers its sends (see
        #: :meth:`~repro.distsim.network.Network.deferred_sends`), so the
        #: recorded sends reach the queue first and push order is kept.
        self.before_push: Optional[Callable[[], None]] = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.clock.now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self.queue.stats.executed

    @property
    def pending(self) -> int:
        """Number of live events still queued."""
        return len(self.queue)

    @property
    def stats(self) -> EventStats:
        """Scheduled/executed/cancelled counters (for the benchmarks)."""
        return self.queue.stats

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def schedule(
        self, delay: float, action: Callable[[], None], *, kind: str = "event"
    ) -> ScheduledEvent:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        if self.before_push is not None:
            self.before_push()
        return self.queue.push(self.now + delay, action, kind=kind)

    def schedule_at(
        self, time: float, action: Callable[[], None], *, kind: str = "event"
    ) -> ScheduledEvent:
        """Schedule ``action`` at an absolute simulation time."""
        if time < self.now:
            raise ValueError(f"cannot schedule into the past (time={time} < now={self.now})")
        if self.before_push is not None:
            self.before_push()
        return self.queue.push(time, action, kind=kind)

    def schedule_batch(
        self,
        entries: Iterable[Tuple[float, Callable[[], None]]],
        *,
        kind: str = "event",
    ) -> list:
        """Schedule many ``(absolute time, action)`` pairs in one call.

        Byte-identical to calling :meth:`schedule_at` per entry; the batch
        form lets harnesses hand a whole arrival sequence or a round of
        heartbeat ticks to the calendar queue at once (see
        :meth:`~repro.distsim.events.EventQueue.push_many`).
        """
        now = self.now
        if self.before_push is not None:
            self.before_push()

        def _validated():
            for time, action in entries:
                if time < now:
                    raise ValueError(
                        f"cannot schedule into the past (time={time} < now={now})"
                    )
                yield time, action

        return self.queue.push_many(_validated(), kind=kind)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Execute the next entry.  Returns ``False`` when the queue is empty.

        A weighted entry (one broadcast) runs whole and counts its weight.
        """
        event = self.queue.pop()  # pop counts the execution in queue.stats
        if event is None:
            return False
        self.clock.advance(event.time)
        event.action()
        return True

    def run(self, *, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or a time/event limit is hit).

        Returns the number of events executed by this call.  With ``until``
        set, events strictly later than ``until`` stay queued and the clock
        is left at ``until`` when the queue drained early.  ``max_events``
        is a budget in logical events (see :meth:`run_window`).
        """
        executed = self.run_window(until, max_events=max_events)
        if until is not None and self.now < until and not self.queue:
            self.clock.advance(until)
        return executed

    def run_window(
        self, until: Optional[float], *, max_events: Optional[int] = None
    ) -> int:
        """Run every event with ``time <= until`` without padding the clock.

        The drain loop behind :meth:`run`: when the queue drains before the
        bound, the clock stays at the *last executed event* instead of
        jumping to ``until`` (``None`` = no bound).

        Execution is *batched*: all events sharing a timestamp are drained
        from the calendar queue in one extraction, the clock advances once,
        and the actions run in sequence order -- the same order (and hence
        byte-identical histories) as popping them one at a time, minus the
        per-event peek/advance overhead.

        Events are counted by weight: an entry that delivers ``n``
        messages (one broadcast, or a whole flushed
        :meth:`~repro.distsim.network.Network.deferred_sends` scope such
        as a heartbeat round) counts ``n``, both in the return value and
        in ``stats.executed``.  ``max_events`` is a budget in those
        logical events.  An entry is never split, and each batch takes at
        least its first entry, so the budget can be overrun by less than
        one flushed entry's weight; the next call resumes the same
        history.
        """
        executed = 0
        queue = self.queue
        stats = queue.stats
        while True:
            limit = None if max_events is None else max_events - executed
            batch = queue.pop_batch(until=until, limit=limit)
            if not batch:
                break
            self.clock.advance(batch[0].time)
            for event in batch:
                # An earlier event of this very batch may have cancelled a
                # later one; honor it exactly as lazy heap deletion did.
                if event.cancelled:
                    stats.cancelled_skipped += event.weight
                    continue
                weight = event.weight
                stats.executed += weight
                executed += weight
                event.action()
        return executed

    def run_until_quiescent(self, *, max_events: int = 10_000_000) -> int:
        """Run until no events remain; guards against runaway protocols.

        ``max_events`` counts logical events, as in :meth:`run_window`: an
        entry is never split, so a run may end less than one flushed
        entry's weight (a broadcast, or a whole heartbeat round) past the
        budget before the guard raises.
        """
        executed = self.run(max_events=max_events)
        if self.pending:
            raise RuntimeError(
                f"simulation did not quiesce within {max_events} events "
                f"({self.pending} still pending)"
            )
        return executed
