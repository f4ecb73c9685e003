"""The deterministic discrete-event simulation engine.

The engine composes the primitives of :mod:`repro.distsim.events` -- a
monotonic :class:`~repro.distsim.events.SimClock` and a heap-based
:class:`~repro.distsim.events.EventQueue` with ``(time, sequence)``
ordering -- into the :class:`Simulator` every protocol run is driven by.
Ties are broken by insertion order, so a run is fully determined by the
sequence of ``schedule`` calls: no wall-clock or hash-order nondeterminism
leaks into protocol executions, which keeps the online experiments
reproducible and the property-based tests meaningful.

Two execution styles are supported:

* **event mode** (``run`` / ``run_until_quiescent``): events execute
  strictly in timestamp order, the clock jumping from event to event.
  This is the primary mode; timed arrivals, heartbeat ticks, partition
  windows and churn all ride on the same queue.
* **round compatibility mode** (``run_round`` / ``run_rounds``): time is
  consumed in fixed-length windows, each window draining every event that
  falls inside it before the clock advances to the next boundary.  This
  reproduces the historical lockstep "settle everything, then tick"
  behavior; on failure-free runs the two modes execute the same events in
  the same order (asserted by the conformance tests).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

from repro.distsim.events import EventQueue, EventStats, ScheduledEvent, SimClock

__all__ = ["Event", "Simulator"]

#: Backwards-compatible alias: the scheduled-event type used to live here.
Event = ScheduledEvent


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
        return self.queue.push(self.now + delay, action, kind=kind)

    def schedule_at(
        self, time: float, action: Callable[[], None], *, kind: str = "event"
    ) -> ScheduledEvent:
        """Schedule ``action`` at an absolute simulation time."""
        if time < self.now:
            raise ValueError(f"cannot schedule into the past (time={time} < now={self.now})")
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

        def _validated():
            for time, action in entries:
                if time < now:
                    raise ValueError(
                        f"cannot schedule into the past (time={time} < now={now})"
                    )
                yield time, action

        return self.queue.push_many(_validated(), kind=kind)

    def schedule_batch_at(
        self,
        time: float,
        actions: Iterable[Callable[[], None]],
        *,
        kind: str = "event",
    ) -> list:
        """Schedule many actions at one absolute time in a single call.

        Byte-identical to calling :meth:`schedule_at` per action (same
        sequence numbers, same execution order); the shared timestamp is
        validated once and the whole batch lands in one calendar-queue
        bucket (see :meth:`~repro.distsim.events.EventQueue.push_many_at`).
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time} < now={self.now})"
            )
        return self.queue.push_many_at(time, actions, kind=kind)

    # ------------------------------------------------------------------ #
    # event-mode execution
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when the queue is empty."""
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
        is left at ``until`` when the queue drained early.
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
                    stats.cancelled_skipped += 1
                    continue
                stats.executed += 1
                executed += 1
                event.action()
        return executed

    def run_until_quiescent(self, *, max_events: int = 10_000_000) -> int:
        """Run until no events remain; guards against runaway protocols."""
        executed = self.run(max_events=max_events)
        if self.pending:
            raise RuntimeError(
                f"simulation did not quiesce within {max_events} events "
                f"({self.pending} still pending)"
            )
        return executed

    # ------------------------------------------------------------------ #
    # round compatibility mode
    # ------------------------------------------------------------------ #

    def run_round(self, *, round_length: float = 1.0, max_events: int = 10_000_000) -> int:
        """Drain one fixed-length round: every event up to ``now + round_length``.

        Events scheduled *during* the round that still fall inside the
        window are executed too (the round "settles"); afterwards the clock
        sits exactly on the round boundary.  Returns the number of events
        executed.  When ``max_events`` truncates the round, the clock stays
        at the last executed event (events inside the window are still
        pending, so jumping to the boundary would strand them in the past);
        the round is then incomplete and can be resumed by calling again.
        """
        if round_length <= 0:
            raise ValueError(f"round_length must be positive, got {round_length}")
        boundary = self.now + round_length
        executed = self.run(until=boundary, max_events=max_events)
        next_time = self.queue.next_time()
        if self.now < boundary and (next_time is None or next_time > boundary):
            self.clock.advance(boundary)
        return executed

    def run_rounds(
        self, rounds: int, *, round_length: float = 1.0, max_events: int = 10_000_000
    ) -> int:
        """Execute ``rounds`` consecutive fixed-length rounds (compatibility mode)."""
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        executed = 0
        for _ in range(rounds):
            executed += self.run_round(round_length=round_length, max_events=max_events)
        return executed
