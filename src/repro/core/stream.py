"""The arrival driver: the one scheduler of every online run's job arrivals.

:class:`StreamDriver` reveals a job sequence to the fleet one arrival at a
time (the online setting of Section 3.2) on the fleet's discrete-event
simulator.  :func:`~repro.core.online.run_online`, each parallel-lockstep
shard worker and :func:`~repro.service.harness.run_service` all drive their
fleet through it; they differ only in the hooks they pass.

Only a bounded look-ahead window of arrivals (default 64) is ever queued:
the window refills in batches as arrivals fire, so memory is independent
of stream length.  The window size never changes the run.  An arrival
that joins a timestamp bucket already holding protocol events goes ahead
of them (see :meth:`repro.distsim.events.EventQueue.push`), which is
exactly where it would sit had the whole sequence been queued up front --
so a message whose delay spans any number of arrival gaps still runs
after the arrival it lands on, at every look-ahead.

Execution interleaving
----------------------
With no ``control`` hook and no ``duration``, :meth:`StreamDriver.run`
drains the simulator straight to quiescence.  Otherwise it advances in
hops: for each upcoming arrival at time ``t`` it first drains every event
*strictly before* ``t`` (to the largest float below ``t``), then invokes
the control callback -- the service harness's clean point for window
closes, checkpoints and state-store rewrites -- and then executes the
``t`` bucket.  Hops only pause the queue; events pop in the same order
either way.

The provisioned heap
--------------------
A run's fleet is some 20 objects a vehicle that live until the run ends,
so every full collection of the cyclic garbage collector rescans them all
and frees nothing.  :func:`frozen_heap` moves whatever exists at the end
of provisioning into the collector's permanent generation for the length
of the run; the garbage cycles the run itself creates are still found and
freed.
"""

from __future__ import annotations

import gc
import math
from collections import deque
from contextlib import contextmanager
from functools import partial
from itertools import islice
from typing import Any, Callable, Deque, Iterable, Iterator, Optional, Sequence, Set, Tuple

from repro.distsim.events import SCHEDULE_KINDS
from repro.distsim.failures import ChurnSpec, FailurePlan, apply_churn
from repro.grid.lattice import Point
from repro.vehicles.fleet import Fleet, FleetConfig

__all__ = ["StreamDriver", "frozen_heap"]


@contextmanager
def frozen_heap() -> Iterator[None]:
    """Keep every object alive on entry out of the collector's passes.

    ``gc.freeze()`` on entry and ``gc.unfreeze()`` on exit, also when the
    body raises.  It does nothing when the caller has frozen objects
    already or has switched the collector off: their setting is theirs.
    """
    if gc.get_freeze_count() or not gc.isenabled():
        yield
        return
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class StreamDriver:
    """Runs a fleet against a lazily produced job stream.

    Parameters
    ----------
    jobs:
        Any iterable of :class:`~repro.core.demand.Job` with strictly
        increasing times (validated incrementally).  May be infinite when
        ``duration`` bounds the run.
    recovery_rounds:
        When a job cannot be served immediately, run this many heartbeat
        rounds on the clock and retry once (monitoring fleets only).
    churn:
        Timed leave/join specs; vertices hosting no vehicle are ignored.
    ticks:
        Arrival times of jobs owned by *other* shards of a multi-process
        run.  Each replays the reference arrival's fleet-wide bookkeeping
        -- advance the failure clock and, when monitoring, run the global
        heartbeat round over this fleet's vehicles -- so a worker's clocks
        and round numbers match the single-process run event for event.
    lookahead:
        Most arrivals scheduled ahead of the clock (the window refills when
        it has drained to half).  Correctness does not depend on the value
        (1 and 10^6 give byte-identical runs); it only bounds harness
        memory.
    duration:
        Stop dispatching once the next arrival would fire after this
        simulation time; pending look-ahead arrivals are cancelled and the
        network drains to quiescence.
    on_arrival / on_served:
        Metrics hooks: ``on_arrival(index, job)`` at dispatch,
        ``on_served(index, job, latency)`` on successful service.
    control:
        Called with the driver at every inter-arrival boundary (all events
        strictly before the next arrival executed) and once after the final
        drain (``driver.finished`` is then ``True``).
    start_consumed / pending / churn_applied:
        Resume plumbing (see :mod:`repro.service.checkpoint`): the number
        of jobs already pulled from the *original* stream, the not-yet
        dispatched ``(index, job)`` arrivals to re-schedule, and the churn
        specs already applied.  ``jobs`` must already be advanced past the
        consumed prefix.
    """

    def __init__(
        self,
        fleet: Fleet,
        fleet_config: FleetConfig,
        plan: FailurePlan,
        jobs: Iterable[Any],
        *,
        recovery_rounds: int = 0,
        churn: Sequence[ChurnSpec] = (),
        ticks: Sequence[float] = (),
        lookahead: int = 64,
        duration: Optional[float] = None,
        on_arrival: Optional[Callable[[int, Any], None]] = None,
        on_served: Optional[Callable[[int, Any, float], None]] = None,
        control: Optional[Callable[["StreamDriver"], None]] = None,
        on_primed: Optional[Callable[["StreamDriver"], None]] = None,
        start_consumed: int = 0,
        pending: Sequence[Tuple[int, Any]] = (),
        churn_applied: Optional[Set[ChurnSpec]] = None,
    ) -> None:
        if lookahead < 1:
            raise ValueError(f"lookahead must be at least 1, got {lookahead}")
        self.fleet = fleet
        self.plan = plan
        self.recovery_rounds = recovery_rounds
        self.monitoring = bool(fleet_config.monitoring)
        self.churn = tuple(churn)
        self.ticks = ticks
        self.lookahead = lookahead
        self._refill_at = lookahead // 2
        self.duration = duration
        self.on_arrival = on_arrival
        self.on_served = on_served
        self.control = control
        self.on_primed = on_primed
        self._ready = False
        self.consumed = start_consumed
        self.dispatched = start_consumed - len(pending)
        self.served = 0
        self.finished = False
        self.churn_applied: Set[ChurnSpec] = (
            churn_applied if churn_applied is not None else set()
        )
        self._iterator: Iterator[Any] = iter(jobs)
        self._exhausted = False
        self._pending_resume = tuple(pending)
        self._last_time = max((job.time for _, job in pending), default=-math.inf)
        #: Scheduled arrivals in time order: ``(index, job, pair_key, event)``.
        self.window: Deque[Tuple[int, Any, Any, Any]] = deque()

    # ------------------------------------------------------------------ #
    # introspection (used by the harness's control callback)
    # ------------------------------------------------------------------ #

    def at_clean_point(self) -> bool:
        """Whether every pending event is reconstructible from a snapshot.

        True between arrivals once the network has drained: only input
        schedule events (arrivals and churn, both reconstructed from the
        config + snapshot on resume) are pending.  Transient protocol
        events (messages still in flight because the delay spans an
        arrival gap, recovery heartbeats, retransmit waits) are state the
        snapshot format deliberately does not capture, so they defer the
        checkpoint to the next boundary.
        """
        return all(event.kind in SCHEDULE_KINDS for event in self.fleet.simulator.queue)

    def pending_arrivals(self) -> list:
        """The scheduled-but-not-dispatched ``(index, job)`` look-ahead."""
        return [(index, job) for index, job, _, _ in self.window]

    # ------------------------------------------------------------------ #
    # the per-job service logic
    # ------------------------------------------------------------------ #

    def _heartbeat(self) -> None:
        self.fleet.run_heartbeat_round(settle=False)

    def _fire(self) -> None:
        """The window's head arrival reaches the fleet."""
        index, job, pair_key, _ = self.window.popleft()
        # Refill *before* serving -- deterministic, and where the refilled
        # arrivals sit in the queue never depends on when they were pushed.
        self._refill()
        self.dispatched += 1
        if self.on_arrival is not None:
            self.on_arrival(index, job)
        fleet = self.fleet
        now = fleet.simulator.now
        self.plan.set_time(now)
        if fleet.deliver_job(job.position, job.energy, settle=False, pair_key=pair_key):
            self._record(index, job, now - job.time)
            if self.monitoring:
                self._heartbeat()
        elif self.recovery_rounds > 0 and self.monitoring:
            # Recovery must happen *on the clock*: each heartbeat round is a
            # scheduled event so its protocol messages (watch initiations,
            # Phase I/II replacements) are delivered before the retry fires
            # -- all strictly before the next arrival at +1.  The whole
            # recovery window goes to the calendar queue as one batch.
            simulator = fleet.simulator
            spacing = 0.5 / self.recovery_rounds
            simulator.schedule_batch(
                (
                    (now + spacing * round_index, self._heartbeat)
                    for round_index in range(1, self.recovery_rounds + 1)
                ),
                kind="heartbeat",
            )
            simulator.schedule(0.7, partial(self._retry, index, job), kind="retry")
            simulator.schedule(0.8, self._heartbeat, kind="heartbeat")
        elif self.monitoring:
            self._heartbeat()

    def _retry(self, index: int, job: Any) -> None:
        if self.fleet.retry_job(job.position, job.energy, settle=False):
            self._record(index, job, self.fleet.simulator.now - job.time)

    def _record(self, index: int, job: Any, latency: float) -> None:
        """Called once per *successfully served* job (a failed retry never is)."""
        self.served += 1
        if self.on_served is not None:
            self.on_served(index, job, latency)

    def _tick(self) -> None:
        """A foreign shard's arrival: its fleet-wide bookkeeping only.

        ``recovery_rounds == 0`` is a parallel-lockstep precondition, so the
        global heartbeat round is the whole suffix of the reference arrival.
        """
        self.plan.set_time(self.fleet.simulator.now)
        if self.monitoring:
            self._heartbeat()

    def _apply_churn(self, spec: ChurnSpec) -> None:
        now = self.fleet.simulator.now
        self.plan.set_time(now)
        apply_churn([spec], now, self.churn_applied, leave=self._leave, join=self._join)

    def _leave(self, vertex: Point) -> None:
        if vertex in self.fleet.vehicles:
            self.fleet.crash_vehicle(vertex)

    def _join(self, vertex: Point) -> None:
        if vertex in self.fleet.vehicles:
            self.fleet.revive_vehicle(vertex)

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def _schedule(self, arrivals: Sequence[Tuple[int, Any]]) -> None:
        """Queue ``(index, job)`` arrivals: one routing lookup, one batch push."""
        fleet = self.fleet
        routed = fleet.route_positions([job.position for _, job in arrivals])
        fire = self._fire
        events = fleet.simulator.schedule_batch(
            ((job.time, fire) for _, job in arrivals), kind="arrival"
        )
        self.window.extend(
            (index, job, pair_key, event)
            for (index, job), pair_key, event in zip(arrivals, routed, events)
        )

    def _refill(self) -> None:
        """Top the window up to the look-ahead once it has drained to half.

        The whole deficit is pulled off the stream first and scheduled as
        one batch.  The window's size is a function of the arrivals fired
        so far, so a resumed run (whose window is the snapshot's pending
        arrivals) refills exactly when the uninterrupted run does.
        """
        pending = len(self.window)
        if self._exhausted or pending > self._refill_at:
            return
        deficit = self.lookahead - pending
        fresh = list(enumerate(islice(self._iterator, deficit), self.consumed))
        self._exhausted = len(fresh) < deficit
        for index, job in fresh:
            if job.time <= self._last_time:
                raise ValueError(
                    f"job times must be strictly increasing: job {index} "
                    f"arrives at {job.time} after {self._last_time}"
                )
            self._last_time = job.time
        self.consumed += len(fresh)
        if fresh:
            self._schedule(fresh)

    def prepare(self) -> None:
        """Schedule churn, ticks and the initial look-ahead (idempotent).

        Called by :meth:`run`.  A resuming harness overwrites the queue
        statistics with the snapshot's values from the ``on_primed`` hook,
        which fires after the snapshot's churn + pending arrivals are
        re-pushed but *before* the look-ahead takes new jobs, so later
        scheduling counts accrue exactly as in the uninterrupted run.
        """
        if self._ready:
            return
        self._ready = True
        simulator = self.fleet.simulator
        # Churn first, in canonical order, then the arrival schedule: the
        # same relative order in every leg of a resumed run.
        simulator.schedule_batch(
            (
                (spec.time, partial(self._apply_churn, spec))
                for spec in sorted(self.churn, key=lambda e: (e.time, e.vertex, e.action))
                if spec not in self.churn_applied
            ),
            kind="churn",
        )
        if self.ticks:
            tick = self._tick
            simulator.schedule_batch(((time, tick) for time in self.ticks), kind="arrival")
        if self._pending_resume:
            self._schedule(self._pending_resume)
        self._pending_resume = ()
        if self.on_primed is not None:
            self.on_primed(self)
        self._refill()

    # ------------------------------------------------------------------ #
    # the control loop
    # ------------------------------------------------------------------ #

    def run(self) -> int:
        """Drive the stream to completion; returns jobs served."""
        simulator = self.fleet.simulator
        self.prepare()
        hops = self.control is not None or self.duration is not None
        while hops and self.window:
            head_time = self.window[0][1].time
            if self.duration is not None and head_time > self.duration:
                for _, _, _, event in self.window:
                    event.cancel()
                self.window.clear()
                self._exhausted = True
                break
            # Drain everything strictly before the arrival: the largest
            # float below head_time is an exact, serializable boundary.
            boundary = math.nextafter(head_time, -math.inf)
            if simulator.now < boundary:
                simulator.run(until=boundary)
            if self.control is not None:
                self.control(self)
            simulator.run(until=head_time)
        simulator.run_until_quiescent()
        self.finished = True
        if self.control is not None:
            self.control(self)
        return self.served
