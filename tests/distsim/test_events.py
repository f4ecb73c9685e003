"""Conformance tests for the event core and the online event driver.

Covers deterministic event ordering, clock monotonicity, batched
calendar-queue delivery, and the online driver's timed failures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.online import run_online
from repro.distsim.engine import Simulator
from repro.distsim.events import EventQueue, ScheduledEvent, SimClock
from repro.distsim.failures import ChurnSpec, FailurePlan, PartitionSpec
from repro.vehicles.fleet import FleetConfig
from repro.workloads.arrivals import random_arrivals
from repro.workloads.generators import square_demand


class TestSimClock:
    def test_starts_at_zero_and_advances(self):
        clock = SimClock()
        assert clock.now == 0.0
        clock.advance(2.5)
        assert clock.now == 2.5

    def test_advancing_to_now_is_a_noop(self):
        clock = SimClock(3.0)
        clock.advance(3.0)
        assert clock.now == 3.0

    def test_rewinding_raises(self):
        clock = SimClock(5.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance(4.999)


class TestEventQueueOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(3.0, lambda: None)
        queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        times = [queue.pop().time for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        order = []
        for tag in "abc":
            queue.push(1.0, lambda: None, kind=tag)
        while queue:
            order.append(queue.pop().kind)
        assert order == ["a", "b", "c"]

    def test_cancelled_events_are_skipped_lazily(self):
        queue = EventQueue()
        keep = queue.push(2.0, lambda: None)
        drop = queue.push(1.0, lambda: None)
        drop.cancel()
        assert len(queue) == 1
        assert queue.pop() is keep
        assert queue.pop() is None

    def test_len_counts_only_live_events(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(4)]
        events[0].cancel()
        events[2].cancel()
        assert len(queue) == 2

    def test_stats_track_scheduled_and_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        event.cancel()
        queue.push(2.0, lambda: None)
        queue.pop()
        assert queue.stats.scheduled == 2
        assert queue.stats.cancelled_skipped == 1


class TestSimulatorClockMonotonicity:
    def test_clock_never_regresses_across_a_run(self):
        sim = Simulator()
        observed = []
        for delay in (5.0, 1.0, 3.0, 1.0):
            sim.schedule(delay, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert sim.now == 5.0

    def test_scheduling_into_the_past_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling_executes_in_order(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(0.5, lambda: log.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.schedule(2.0, lambda: log.append(("later", sim.now)))
        sim.run()
        assert log == [("outer", 1.0), ("inner", 1.5), ("later", 2.0)]

    def test_stats_executed_matches_events_processed(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run_until_quiescent()
        assert sim.stats.executed == sim.events_processed == 5


def _result_fingerprint(result):
    return (
        result.jobs_served,
        result.feasible,
        result.max_vehicle_energy,
        result.total_travel,
        result.total_service,
        result.replacements,
        result.searches,
        result.messages,
        tuple(sorted(result.vehicle_energies.items())),
    )


class TestEventDriver:
    def test_clock_reaches_last_arrival(self):
        jobs = random_arrivals(square_demand(3, 2.0), np.random.default_rng(0))
        result = run_online(jobs)
        assert result.sim_time >= float(len(jobs))
        assert result.events_processed >= len(jobs)

    def test_is_deterministic(self):
        jobs = random_arrivals(square_demand(4, 2.0), np.random.default_rng(3))
        first = run_online(jobs, rng=np.random.default_rng(11))
        second = run_online(jobs, rng=np.random.default_rng(11))
        assert _result_fingerprint(first) == _result_fingerprint(second)


class TestTimedFailures:
    def test_partition_drops_cross_cut_messages(self):
        plan = FailurePlan()
        plan.add_partition(PartitionSpec(start=2.0, end=4.0, axis=0, boundary=0.5))
        plan.set_time(3.0)
        assert plan.is_partitioned((0, 0), (1, 0))
        assert not plan.is_partitioned((0, 0), (0, 5))
        plan.set_time(4.0)  # window is half-open
        assert not plan.is_partitioned((0, 0), (1, 0))

    def test_crash_and_recover_toggle_message_delivery(self):
        plan = FailurePlan()
        plan.crash("p")
        assert plan.should_drop("p", "q", "hello")
        plan.recover("p")
        assert not plan.should_drop("p", "q", "hello")
        plan.recover("never-crashed")  # unknown identities are ignored

    def test_partition_ignores_non_coordinate_identities(self):
        plan = FailurePlan()
        plan.add_partition(PartitionSpec(start=0.0, end=10.0, axis=0, boundary=0.5))
        plan.set_time(1.0)
        assert not plan.is_partitioned("alice", "bob")

    def test_churn_schedule_changes_a_run(self):
        demand = square_demand(4, 3.0)
        jobs = random_arrivals(demand, np.random.default_rng(0))
        quiet = run_online(jobs, capacity=20.0, omega=2.0)
        churned = run_online(
            jobs,
            capacity=20.0,
            omega=2.0,
            churn=[ChurnSpec(time=1.0, vertex=v, action="leave") for v in demand.support()],
        )
        assert quiet.feasible
        assert churned.jobs_served < quiet.jobs_served

    def test_churn_rejoin_restores_service(self):
        demand = square_demand(4, 3.0)
        jobs = random_arrivals(demand, np.random.default_rng(0))
        churn = [
            ChurnSpec(time=1.0, vertex=v, action="leave") for v in demand.support()
        ] + [ChurnSpec(time=5.0, vertex=v, action="join") for v in demand.support()]
        partial = run_online(jobs, capacity=20.0, omega=2.0, churn=churn)
        all_gone = run_online(
            jobs,
            capacity=20.0,
            omega=2.0,
            churn=[ChurnSpec(time=1.0, vertex=v, action="leave") for v in demand.support()],
        )
        assert partial.jobs_served > all_gone.jobs_served

    def test_event_driver_recovery_installs_replacement_before_retry(self):
        """Recovery heartbeats must run on the clock ahead of the retry.

        Six jobs hit one point whose active vehicle goes done but is
        initiation-suppressed; only the monitoring loop can replace it,
        so every job is served only if the replacement lands first.
        """
        from repro.core.demand import JobSequence

        jobs = JobSequence.from_positions([(0, 0)] * 6)
        plan = FailurePlan()
        plan.suppress_initiation((0, 0))
        result = run_online(
            jobs,
            capacity=4.0,
            omega=2.0,
            config=FleetConfig(monitoring=True),
            failure_plan=plan,
            recovery_rounds=4,
        )
        assert result.feasible
        assert result.jobs_served == len(jobs)
        assert result.replacements >= 1


class TestCalendarQueueBatching:
    """The batched-delivery API of the calendar queue."""

    def test_pop_batch_drains_one_timestamp(self):
        queue = EventQueue()
        for kind in "abc":
            queue.push(1.0, lambda: None, kind=kind)
        queue.push(2.0, lambda: None, kind="later")
        batch = queue.pop_batch()
        assert [event.kind for event in batch] == ["a", "b", "c"]
        assert queue.next_time() == 2.0

    def test_pop_batch_respects_until_and_limit(self):
        queue = EventQueue()
        for _ in range(4):
            queue.push(5.0, lambda: None)
        assert queue.pop_batch(until=4.0) == []
        partial = queue.pop_batch(limit=3)
        assert len(partial) == 3
        assert len(queue.pop_batch()) == 1

    def test_push_many_preserves_sequence_order(self):
        queue = EventQueue()
        queue.push_many([(2.0, lambda: None), (1.0, lambda: None), (2.0, lambda: None)])
        order = [queue.pop().sequence for _ in range(3)]
        assert order == [1, 0, 2]  # (time, sequence) order, exactly as push()

    def test_input_schedule_events_go_ahead_of_runtime_events(self):
        """A late-pushed arrival or churn event still runs before messages."""
        queue = EventQueue()
        queue.push(3.0, lambda: None, kind="churn")
        queue.push(3.0, lambda: None, kind="message")
        queue.push(3.0, lambda: None, kind="arrival")
        queue.push_many([(3.0, lambda: None)], kind="churn")
        queue.push(3.0, lambda: None, kind="retry")
        assert [event.kind for event in queue.pop_batch()] == [
            "churn",
            "arrival",
            "churn",
            "message",
            "retry",
        ]

    def test_input_schedule_events_keep_push_order_among_themselves(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None, kind="arrival")
        second, third = queue.push_many(
            [(1.0, lambda: None), (1.0, lambda: None)], kind="arrival"
        )
        assert queue.pop_batch() == [first, second, third]

    def test_same_time_events_scheduled_mid_batch_run_after_it(self):
        sim = Simulator()
        log = []

        def first():
            log.append("first")
            sim.schedule(0.0, lambda: log.append("nested"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second", "nested"]

    def test_cancellation_inside_a_batch_is_honored(self):
        """An event may cancel a same-timestamp event later in its batch."""
        sim = Simulator()
        log = []
        holder = {}

        def assassin():
            log.append("assassin")
            holder["victim"].cancel()

        sim.schedule(1.0, assassin)
        holder["victim"] = sim.schedule(1.0, lambda: log.append("victim"))
        executed = sim.run()
        assert log == ["assassin"]
        assert executed == 1
        assert sim.queue.stats.cancelled_skipped == 1

    def test_batched_run_counts_match_per_event_pops(self):
        def build():
            sim = Simulator()
            for delay in (1.0, 1.0, 2.0, 2.0, 2.0):
                sim.schedule(delay, lambda: None)
            return sim

        batched = build()
        assert batched.run() == 5
        stepped = build()
        while stepped.step():
            pass
        assert stepped.events_processed == batched.events_processed == 5
