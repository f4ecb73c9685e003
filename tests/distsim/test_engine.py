"""Tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest

from repro.distsim.engine import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("first"))
        sim.schedule(1.0, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second"]

    def test_now_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        log = []
        sim.schedule_at(5.0, lambda: log.append(sim.now))
        sim.run()
        assert log == [5.0]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_execution(self):
        sim = Simulator()
        log = []

        def chain(depth: int) -> None:
            log.append(depth)
            if depth < 3:
                sim.schedule(1.0, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert log == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_not_run(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, lambda: log.append("no"))
        sim.schedule(2.0, lambda: log.append("yes"))
        event.cancel()
        sim.run()
        assert log == ["yes"]

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending == 1


class TestRunControls:
    def test_run_until_time_limit(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(5.0, lambda: log.append(5))
        sim.run(until=2.0)
        assert log == [1]
        sim.run()
        assert log == [1, 5]

    def test_run_max_events(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: log.append(i))
        sim.run(max_events=2)
        assert log == [0, 1]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_run_until_quiescent_guard(self):
        sim = Simulator()

        def reschedule() -> None:
            sim.schedule(1.0, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError):
            sim.run_until_quiescent(max_events=100)

    def test_run_until_quiescent_counts(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        assert sim.run_until_quiescent() == 4


class TestRunWindow:
    """``run_window`` is the drain loop behind ``run`` and every shard worker."""

    @staticmethod
    def _chain(sim, log, depth):
        """Self-scheduling events: each execution schedules one more."""

        def event(step=0):
            log.append((sim.now, step))
            if step < depth:
                sim.schedule_at(sim.now + 0.7, lambda s=step + 1: event(s))

        return event

    def test_same_events_same_order_as_stepping(self):
        reference = Simulator()
        ref_log = []
        reference.schedule_at(0.3, self._chain(reference, ref_log, 6))
        while reference.step():
            pass

        sim = Simulator()
        log = []
        sim.schedule_at(0.3, self._chain(sim, log, 6))
        assert sim.run_window(None) == reference.events_processed == 7
        assert log == ref_log

    def test_clock_stays_at_last_executed_event(self):
        sim = Simulator()
        sim.schedule_at(1.5, lambda: None)
        sim.run_window(10.0)
        assert sim.now == 1.5
        # ``run`` with the same bound pads the clock out to it instead.
        padded = Simulator()
        padded.schedule_at(1.5, lambda: None)
        padded.run(until=10.0)
        assert padded.now == 10.0

    def test_bound_is_inclusive_and_later_events_stay_queued(self):
        sim = Simulator()
        log = []
        for time in (1.0, 2.0, 2.5):
            sim.schedule_at(time, lambda t=time: log.append(t))
        assert sim.run_window(2.0) == 2
        assert log == [1.0, 2.0]
        assert sim.pending == 1 and sim.now == 2.0

    def test_max_events_truncation_resumes_to_the_same_history(self):
        reference = Simulator()
        ref_log = []
        reference.schedule_at(0.0, self._chain(reference, ref_log, 9))
        reference.run_window(None)

        sim = Simulator()
        log = []
        sim.schedule_at(0.0, self._chain(sim, log, 9))
        chunks = []
        while sim.pending:
            chunks.append(sim.run_window(None, max_events=3))
        assert chunks == [3, 3, 3, 1]
        assert log == ref_log

    @staticmethod
    def _broadcasts(sim, log):
        """Weighted entries (one per broadcast) mixed with plain events."""
        def broadcast(label, fanout):
            return lambda: log.extend((sim.now, label, i) for i in range(fanout))

        sim.queue.push(1.0, broadcast("a", 4), kind="message", weight=4)
        sim.queue.push(1.0, lambda: log.append((sim.now, "b", 0)))
        sim.queue.push(1.0, broadcast("c", 2), kind="message", weight=2)
        sim.queue.push(2.0, lambda: log.append((sim.now, "d", 0)))
        sim.queue.push(2.0, broadcast("e", 3), kind="message", weight=3)

    def test_max_events_truncation_with_broadcasts_resumes_to_the_same_history(self):
        reference = Simulator()
        ref_log = []
        self._broadcasts(reference, ref_log)
        assert reference.pending == 11
        assert reference.run_window(None) == reference.events_processed == 11

        sim = Simulator()
        log = []
        self._broadcasts(sim, log)
        chunks = []
        while sim.pending:
            chunks.append(sim.run_window(None, max_events=3))
        # A budget counts logical events and never splits an entry: the
        # first entry of a call is always taken, so "a" (4) overruns 3,
        # and "d" (1) + "e" (3) overrun it by less than e's fan-out.
        assert chunks == [4, 3, 4]
        assert sum(chunks) == sim.events_processed == sim.stats.scheduled == 11
        assert log == ref_log

    def test_step_runs_a_broadcast_whole(self):
        sim = Simulator()
        log = []
        self._broadcasts(sim, log)
        assert sim.step()
        assert sim.events_processed == 4 and len(log) == 4
        assert sim.pending == 7

    def test_same_time_cancellation_inside_one_batch_is_honored(self):
        sim = Simulator()
        log = []
        later = []
        sim.schedule_at(1.0, lambda: (log.append("first"), later[0].cancel()))
        later.append(sim.schedule_at(1.0, lambda: log.append("cancelled")))
        sim.schedule_at(1.0, lambda: log.append("third"))
        assert sim.run_window(None) == 2
        assert log == ["first", "third"]
        assert sim.stats.cancelled_skipped == 1
