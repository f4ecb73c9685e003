"""The event core of the distributed simulation: clock, queue, stats.

Historically the simulator owned a private heap and a bare ``_now`` float;
the event-driven experiments (timed job arrivals, heartbeat ticks,
partition windows, churn) need those pieces as first-class objects:

* :class:`SimClock` -- a monotonic simulation clock.  Advancing it
  backwards is a hard error, which turns subtle scheduling bugs into
  immediate failures instead of silently reordered histories.
* :class:`ScheduledEvent` -- a timestamped callback with a deterministic
  ``(time, sequence)`` order and an optional ``kind`` tag for tracing.
* :class:`EventQueue` -- a bucketed *calendar queue* with lazy deletion of
  cancelled events and counters for the benchmark harness.
* :class:`EventStats` -- scheduled/executed/cancelled counters; the
  scenario benchmarks divide ``executed`` by wall time to report
  events/sec.

The queue used to be a binary heap of events; profiling the scale-up
scenarios showed the per-event ``heappush``/``heappop`` comparisons
dominating the hot path, because protocol traffic is intensely *clustered
in time*: a zero-delay message storm lands hundreds of events on one
timestamp, and the heap pays ``O(log n)`` comparisons for every one of
them.  The calendar-queue layout exploits exactly that clustering: events
live in per-timestamp FIFO buckets (a dict keyed by the exact float time),
and only the *distinct* timestamps go through a small heap.  Pushing into
an existing bucket is O(1); within a bucket, events pop in push order,
so a run is fully determined by its sequence of pushes and replays
byte-identically.  The one exception is the run's *input schedule*: an
``"arrival"`` or ``"churn"`` event that joins a bucket goes ahead of the
bucket's runtime events (messages, heartbeats, retries), after any input
events already there.  That is where it would sit had the whole schedule
been pushed before the run started, so how far ahead a driver queues its
arrivals never changes the run.

:meth:`EventQueue.pop_batch` additionally drains one whole timestamp
bucket in a single call, which is what lets the
:class:`~repro.distsim.engine.Simulator` dispatch a same-time batch with
one clock advance instead of one peek/advance cycle per event.

:class:`~repro.distsim.engine.Simulator` composes these; protocols and
harnesses may also use the queue directly for non-message events (timers,
arrivals, failure windows).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["SimClock", "ScheduledEvent", "EventQueue", "EventStats", "SCHEDULE_KINDS"]

Action = Callable[[], None]

#: Event kinds of a run's input schedule (job arrivals, foreign-shard
#: ticks, churn): within a timestamp bucket they run before every runtime
#: event, whenever they were pushed.
SCHEDULE_KINDS = frozenset({"arrival", "churn"})


def _schedule_prefix(bucket: List["ScheduledEvent"]) -> int:
    """Length of the bucket's leading run of input-schedule events."""
    for position, event in enumerate(bucket):
        if event.kind not in SCHEDULE_KINDS:
            return position
    return len(bucket)


class SimClock:
    """A monotonic simulation clock.

    The clock only moves forward; :meth:`advance` raises on any attempt to
    rewind it.  Event-driven runs rely on this invariant -- the conformance
    tests assert it directly.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def advance(self, to: float) -> None:
        """Move the clock forward to ``to`` (no-op when already there)."""
        if to < self._now:
            raise ValueError(
                f"simulation clock cannot run backwards ({to} < {self._now})"
            )
        self._now = float(to)


@dataclass(order=True)
class ScheduledEvent:
    """A scheduled callback, ordered by ``(time, sequence number)``.

    The sequence number is assigned by the queue at push time, so ties are
    broken by scheduling order (input-schedule events first, see
    :class:`EventQueue`) and a run is fully determined by the sequence of
    ``push`` calls.
    """

    time: float
    sequence: int
    action: Action = field(compare=False)
    #: Free-form tag ("message", "arrival", "heartbeat", ...) for traces.
    kind: str = field(default="event", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so that it is skipped when its time comes."""
        self.cancelled = True


@dataclass
class EventStats:
    """Counters accumulated over the lifetime of a queue/simulator."""

    scheduled: int = 0
    executed: int = 0
    cancelled_skipped: int = 0


class EventQueue:
    """A deterministic calendar queue of :class:`ScheduledEvent` objects.

    Events are stored in per-timestamp FIFO buckets; a heap orders only the
    distinct timestamps.  Within a bucket, input-schedule events
    (``"arrival"``/``"churn"``) come first and runtime events after them,
    each group in push (= sequence) order.  Cancelled events stay in their
    bucket and are discarded lazily when they reach the front.
    """

    __slots__ = ("_buckets", "_times", "_counter", "stats")

    def __init__(self) -> None:
        #: Exact timestamp -> FIFO list of events pushed at that time.  A
        #: cursor-free plain list with ``pop``-from-front replaced by batch
        #: extraction keeps the common paths allocation-light.
        self._buckets: Dict[float, List[ScheduledEvent]] = {}
        #: Heap of the distinct timestamps that currently own a bucket.
        self._times: List[float] = []
        self._counter = itertools.count()
        self.stats = EventStats()

    def __len__(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(
            1
            for bucket in self._buckets.values()
            for event in bucket
            if not event.cancelled
        )

    def __bool__(self) -> bool:
        return any(
            not event.cancelled
            for bucket in self._buckets.values()
            for event in bucket
        )

    def __iter__(self) -> Iterator[ScheduledEvent]:
        """Live queued events in arbitrary (bucket) order."""
        return (
            event
            for bucket in self._buckets.values()
            for event in bucket
            if not event.cancelled
        )

    def push(self, time: float, action: Action, *, kind: str = "event") -> ScheduledEvent:
        """Queue ``action`` at absolute time ``time``.

        An input-schedule event (``"arrival"``/``"churn"``) joining an
        existing bucket goes ahead of that bucket's runtime events.
        """
        time = float(time)
        event = ScheduledEvent(time, next(self._counter), action, kind=kind)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._times, time)
        elif kind in SCHEDULE_KINDS:
            bucket.insert(_schedule_prefix(bucket), event)
        else:
            bucket.append(event)
        self.stats.scheduled += 1
        return event

    def push_many(
        self, entries: Iterable[Tuple[float, Action]], *, kind: str = "event"
    ) -> List[ScheduledEvent]:
        """Batch-queue ``(time, action)`` pairs in order; one sequence range.

        Byte-identical to pushing the entries one by one (same sequence
        numbers, same pop order); the loop is inlined so a whole arrival
        window or a round of heartbeat ticks pays one method call and
        one stats update instead of one per event.
        """
        buckets = self._buckets
        times = self._times
        counter = self._counter
        schedule = kind in SCHEDULE_KINDS
        events = []
        for time, action in entries:
            time = float(time)
            event = ScheduledEvent(time, next(counter), action, kind=kind)
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = [event]
                heapq.heappush(times, time)
            elif schedule:
                bucket.insert(_schedule_prefix(bucket), event)
            else:
                bucket.append(event)
            events.append(event)
        self.stats.scheduled += len(events)
        return events

    def push_many_at(
        self, time: float, actions: Iterable[Action], *, kind: str = "event"
    ) -> List[ScheduledEvent]:
        """Batch-queue many actions at one shared timestamp.

        The single-bucket fast path of the batched dispatch pipeline: one
        bucket lookup and one extend for the whole batch (a heartbeat
        round's broadcast, a Phase I flood over a reliable fixed-delay
        channel) instead of one per event.  Sequence numbers are assigned
        in iteration order, so the pop order is byte-identical to pushing
        the actions one by one.
        """
        time = float(time)
        counter = self._counter
        events = [
            ScheduledEvent(time, next(counter), action, kind=kind)
            for action in actions
        ]
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = list(events)
            heapq.heappush(self._times, time)
        else:
            bucket.extend(events)
        self.stats.scheduled += len(events)
        return events

    # ------------------------------------------------------------------ #
    # front-of-queue access
    # ------------------------------------------------------------------ #

    def _front_bucket(self) -> Optional[List[ScheduledEvent]]:
        """The earliest bucket, with leading cancelled events pruned.

        Empty (or fully cancelled) buckets are retired as a side effect,
        so the returned bucket always starts with a live event.
        """
        while self._times:
            time = self._times[0]
            bucket = self._buckets[time]
            while bucket and bucket[0].cancelled:
                del bucket[0]
                self.stats.cancelled_skipped += 1
            if bucket:
                return bucket
            del self._buckets[time]
            heapq.heappop(self._times)
        return None

    def peek(self) -> Optional[ScheduledEvent]:
        """The next live event without removing it (skips cancelled ones)."""
        bucket = self._front_bucket()
        return bucket[0] if bucket else None

    def next_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` when empty."""
        event = self.peek()
        return event.time if event is not None else None

    def pop(self) -> Optional[ScheduledEvent]:
        """Remove and return the next live event (``None`` when empty).

        Popping counts as execution in :attr:`stats` -- the queue hands the
        event to exactly one consumer, so the counter stays correct for
        direct users as well as for the :class:`~repro.distsim.engine.Simulator`.
        """
        bucket = self._front_bucket()
        if bucket is None:
            return None
        event = bucket[0]
        if len(bucket) == 1:
            del self._buckets[event.time]
            heapq.heappop(self._times)
        else:
            del bucket[0]
        self.stats.executed += 1
        return event

    def pop_batch(
        self, *, until: Optional[float] = None, limit: Optional[int] = None
    ) -> List[ScheduledEvent]:
        """Drain every event at the next timestamp into one batch.

        Returns the events sharing the earliest queued timestamp, in bucket
        order -- the *batched delivery* unit: the simulator advances the
        clock once and dispatches the whole batch.  Events the batch's own
        actions schedule back at the same timestamp form a new bucket and
        come out in a later batch.

        ``until`` leaves batches strictly later than that time queued (an
        empty list is returned); ``limit`` truncates the batch, leaving the
        remainder of the bucket in place.  Executions are *not* counted
        here: the consumer skips events cancelled mid-batch, so it owns
        the executed/cancelled accounting (see ``Simulator.run``).
        """
        bucket = self._front_bucket()
        if bucket is None:
            return []
        time = bucket[0].time
        if until is not None and time > until:
            return []
        if limit is None or limit >= len(bucket):
            batch = bucket
            del self._buckets[time]
            heapq.heappop(self._times)
        else:
            if limit <= 0:
                return []
            batch = bucket[:limit]
            del bucket[:limit]
        return batch
