"""Broadcasts: Network.send_many and the fixed-delay path Transport.send_batch.

The contract is byte-identity: a broadcast through ``send_many`` must be
indistinguishable -- delivery order, counters, dropped messages, FIFO
clamping -- from the per-destination ``send`` loop it replaces, on every
transport (one record on a fixed-delay channel, a ``send`` loop everywhere
else).
"""

from __future__ import annotations

import pytest

from repro.distsim.engine import Simulator
from repro.distsim.failures import FailurePlan, PartitionSpec
from repro.distsim.network import Network, UnknownDestination
from repro.distsim.process import Process
from repro.distsim.transport import (
    LatencyTransport,
    LossyTransport,
    ReliableTransport,
    TransportSpec,
)


class Recorder(Process):
    def __init__(self, identity):
        super().__init__(identity)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((self.network.simulator.now, sender, message))


def _network(transport=None, *, failure_plan=None, delay=0.25):
    net = Network(
        Simulator(), delay=delay, failure_plan=failure_plan, transport=transport
    )
    procs = [Recorder(f"p{i}") for i in range(5)]
    net.register_all(procs)
    return net, procs


def _trace(net, procs):
    net.run_until_quiescent()
    return [
        (p.identity, p.received) for p in procs
    ], (net.messages_sent, net.messages_delivered, net.messages_dropped)


class TestReliableFastPath:
    def test_identical_to_sequential_sends(self):
        targets = ["p1", "p2", "p3", "p4"]
        batched, procs_a = _network(ReliableTransport(0.25))
        batched.send_many("p0", targets, "hello")
        sequential, procs_b = _network(ReliableTransport(0.25))
        for t in targets:
            sequential.send("p0", t, "hello")
        assert _trace(batched, procs_a) == _trace(sequential, procs_b)

    def test_zero_delay_batch(self):
        batched, procs = _network(ReliableTransport(0.0))
        batched.send_many("p0", ["p1", "p2"], "x")
        trace, counters = _trace(batched, procs)
        assert counters == (2, 2, 0)
        assert dict(trace)["p1"] == [(0.0, "p0", "x")]

    def test_fifo_clamp_preserved_across_batches(self):
        # A slow earlier message on one link must not be overtaken by a
        # later batch on the same link.
        net, procs = _network(ReliableTransport(1.0))
        net.send("p0", "p1", "slow")
        # batch at delay 1.0 again: p1's second message must arrive after
        # its first even though both land at the same nominal time; FIFO
        # clamping keeps per-link order.
        net.send_many("p0", ["p1", "p2"], "fast")
        trace = dict(_trace(net, procs)[0])
        assert [m for _, _, m in trace["p1"]] == ["slow", "fast"]
        assert [m for _, _, m in trace["p2"]] == ["fast"]

    def test_send_clamps_late_links(self):
        # The FIFO clamp lives in ``Transport.send``, for variable-delay
        # channels: a link whose previous delivery lands *later* than a
        # new message's nominal time pushes that message out to the
        # previous delivery time, while the other links keep theirs.
        sim = Simulator()
        transport = LatencyTransport(delay=0.2, jitter=0.0).bind(sim)
        log = []
        transport.send("a", "b", "slow", lambda m: log.append(("b", m)))
        transport._last_delivery[("a", "b")] = 1.0  # as if a 1.0-delay send
        for destination in ("b", "c"):
            transport.send("a", destination, "fast", lambda m, d=destination: log.append((d, m)))
        sim.run()
        assert log == [("b", "slow"), ("c", "fast"), ("b", "fast")]
        assert transport._last_delivery[("a", "b")] == 1.0
        assert transport._last_delivery[("a", "c")] == 0.2

    def test_send_batch_is_one_entry_without_link_state(self):
        # ``send_batch`` runs only on constant-delay channels, where
        # ``now + delay`` never decreases: no link needs a clamp, so the
        # records are one weighted entry and no per-link state is kept.
        sim = Simulator()
        transport = ReliableTransport(0.2).bind(sim)
        delivered = []
        first = [("a", ["b"], "first")]
        second = [("a", ["b", "c"], "second"), ("d", ["b"], "third")]
        assert transport.send_batch(delivered.append, first) == 0
        assert transport.send_batch(delivered.append, second) == 0
        assert [len(bucket) for bucket in sim.queue._buckets.values()] == [2]
        assert [entry.weight for entry in sim.queue._buckets[0.2]] == [1, 3]
        assert transport._last_delivery == {}
        assert sim.run() == 4
        assert delivered == [first, second]
        assert transport.messages_scheduled == 4

    def test_send_batch_takes_lost_destinations_out(self):
        # Seed 3 loses the first draw of edge ("a", "b") and keeps the next
        # two; the record keeps its other destinations, in order.
        sim = Simulator()
        transport = LossyTransport(loss=0.5, delay=0.2, seed=3).bind(sim)
        records = [("a", ["b"], "m"), ("a", ["b", "b"], "n")]
        scalar = LossyTransport(loss=0.5, seed=3)
        assert [scalar.drops("a", "b", None) for _ in range(3)] == [True, False, False]
        assert transport.send_batch(lambda records: None, records) == 1
        assert records == [("a", [], "m"), ("a", ["b", "b"], "n")]
        (entry,) = sim.queue._buckets[0.2]
        assert entry.weight == transport.messages_scheduled == 2
        assert transport.messages_dropped == 1

    def test_crashed_destination_dropped(self):
        plan = FailurePlan()
        net, procs = _network(ReliableTransport(0.1), failure_plan=plan)
        plan.crash("p2")
        net.send_many("p0", ["p1", "p2", "p3"], "m")
        trace, (sent, delivered, dropped) = _trace(net, procs)
        assert (sent, delivered, dropped) == (3, 2, 1)
        assert dict(trace)["p2"] == []

    def test_unknown_destination_raises(self):
        net, _ = _network(ReliableTransport(0.1))
        with pytest.raises(KeyError):
            net.send_many("p0", ["p1", "nope"], "m")


def _lattice_network(*, failure_plan=None, delay=0.25):
    """Five recorders on a line of lattice points (partitions need coordinates)."""
    net = Network(Simulator(), failure_plan=failure_plan, transport=ReliableTransport(delay))
    procs = [Recorder((i, 0)) for i in range(5)]
    net.register_all(procs)
    return net, procs


def _broadcast_and_loop(setup, sender, targets, message="m"):
    """Run the same broadcast as ``send_many`` and as a ``send`` loop.

    ``setup()`` returns a fresh ``(network, processes)``.  Returns both
    networks with their processes, after draining.
    """
    batched = setup()
    batched[0].send_many(sender, targets, message)
    looped = setup()
    for target in targets:
        looped[0].send(sender, target, message)
    for net, _ in (batched, looped):
        net.run_until_quiescent()
    return batched, looped


def _counters(net):
    plan = net.failure_plan
    return (
        net.messages_sent,
        net.messages_delivered,
        net.messages_dropped,
        plan.dropped_count,
        plan.partition_dropped_count,
        net.simulator.events_processed,
        net.simulator.stats.scheduled,
    )


def _received(procs):
    return [(p.identity, p.received) for p in procs]


class TestOneEntryBroadcast:
    """A reliable fixed-delay broadcast is one queue entry worth n events."""

    def test_one_entry_counts_one_event_per_recipient(self):
        net, _ = _network(ReliableTransport(0.25))
        net.send_many("p0", ["p1", "p2", "p3", "p4"], "m")
        queue = net.simulator.queue
        assert [len(bucket) for bucket in queue._buckets.values()] == [1]
        assert len(queue) == net.simulator.pending == 4
        assert queue.stats.scheduled == 4

    def test_same_event_counters_as_the_send_loop(self):
        (a, procs_a), (b, procs_b) = _broadcast_and_loop(
            lambda: _network(ReliableTransport(0.25)), "p0", ["p1", "p2", "p3", "p4"]
        )
        assert a.simulator.events_processed == b.simulator.events_processed == 4
        assert a.simulator.stats.scheduled == b.simulator.stats.scheduled == 4
        assert _counters(a) == _counters(b)
        assert _received(procs_a) == _received(procs_b)

    @pytest.mark.parametrize("how", ["crash", "rebind"])
    def test_recipient_crashed_in_flight_is_the_only_drop(self, how):
        # "rebind" replaces the crashed set the way a checkpoint restore does.
        def crash(plan):
            if how == "crash":
                plan.crash("p2")
            else:
                plan.crashed = {"p2"}

        def setup():
            return _network(ReliableTransport(1.0), failure_plan=FailurePlan())

        runs = []
        for batched in (True, False):
            net, procs = setup()
            if batched:
                net.send_many("p0", ["p1", "p2", "p3"], "m")
            else:
                for target in ("p1", "p2", "p3"):
                    net.send("p0", target, "m")
            net.simulator.schedule_at(0.5, lambda plan=net.failure_plan: crash(plan))
            net.run_until_quiescent()
            runs.append((_counters(net), _received(procs)))
        assert runs[0] == runs[1]
        counters, received = runs[0]
        assert counters[:3] == (3, 2, 1)
        assert dict(received)["p2"] == []
        assert [m for _, _, m in dict(received)["p1"]] == ["m"]
        assert [m for _, _, m in dict(received)["p3"]] == ["m"]

    def test_crashed_sender(self):
        def setup():
            plan = FailurePlan()
            plan.crash("p0")
            return _network(ReliableTransport(0.25), failure_plan=plan)

        (a, procs_a), (b, procs_b) = _broadcast_and_loop(setup, "p0", ["p1", "p2", "p3"])
        assert _counters(a) == _counters(b)
        assert _counters(a)[:4] == (3, 0, 3, 3)
        assert _received(procs_a) == _received(procs_b)

    def test_partition_window_and_drop_predicate_match_the_send_loop(self):
        calls = {True: [], False: []}

        def setup(batched):
            def predicate(sender, destination, message):
                calls[batched].append(destination)
                return destination == (4, 0)

            plan = FailurePlan()
            plan.add_partition(PartitionSpec(start=0.0, end=10.0, axis=0, boundary=1.5))
            plan.add_drop_rule(predicate)
            plan.crash((3, 0))
            return _lattice_network(failure_plan=plan)

        targets = [(1, 0), (2, 0), (3, 0), (4, 0)]
        batched = setup(True)
        batched[0].send_many((0, 0), targets, "m")
        looped = setup(False)
        for target in targets:
            looped[0].send((0, 0), target, "m")
        for net, _ in (batched, looped):
            net.run_until_quiescent()
        assert _counters(batched[0]) == _counters(looped[0])
        # (1,0) delivered; (2,0),(3,0),(4,0) partitioned away from (0,0).
        assert _counters(batched[0])[:5] == (4, 1, 3, 3, 3)
        assert _received(batched[1]) == _received(looped[1])
        # The predicate runs only for destinations the partition spared,
        # once each, in destination order.
        assert calls[True] == calls[False] == [(1, 0)]

    def test_drop_predicate_is_called_once_per_destination_in_order(self):
        calls = {True: [], False: []}

        def setup(batched):
            def predicate(sender, destination, message):
                calls[batched].append(destination)
                return destination == "p3"

            plan = FailurePlan()
            plan.add_drop_rule(predicate)
            plan.crash("p2")
            return _network(ReliableTransport(0.25), failure_plan=plan)

        targets = ["p4", "p1", "p2", "p3"]
        batched = setup(True)
        batched[0].send_many("p0", targets, "m")
        looped = setup(False)
        for target in targets:
            looped[0].send("p0", target, "m")
        for net, _ in (batched, looped):
            net.run_until_quiescent()
        assert calls[True] == calls[False] == targets
        assert _counters(batched[0]) == _counters(looped[0])
        assert _counters(batched[0])[:4] == (4, 2, 2, 1)
        assert _received(batched[1]) == _received(looped[1])

    @pytest.mark.parametrize(
        "start, expected", [(0.0, (2, 1, 1, 1, 1)), (5.0, (2, 2, 0, 0, 0))]
    )
    def test_partition_window_alone(self, start, expected):
        # Only the window can drop here; it counts only while active at
        # the plan's clock (0.0).
        def setup():
            plan = FailurePlan()
            plan.add_partition(PartitionSpec(start=start, end=10.0, axis=0, boundary=1.5))
            return _lattice_network(failure_plan=plan)

        (a, procs_a), (b, procs_b) = _broadcast_and_loop(setup, (0, 0), [(1, 0), (2, 0)])
        assert _counters(a) == _counters(b)
        assert _counters(a)[:5] == expected
        assert _received(procs_a) == _received(procs_b)

    def test_same_time_send_from_a_handler_runs_after_the_whole_broadcast(self):
        class Relay(Process):
            def __init__(self, identity, log):
                super().__init__(identity)
                self.log = log

            def on_message(self, sender, message):
                self.log.append((self.identity, message))
                if message == "ping":
                    self.send("p0", "pong")

        def run(batched):
            log = []
            net = Network(Simulator(), transport=ReliableTransport(0.0))
            net.register_all(Relay(f"p{i}", log) for i in range(4))
            targets = ["p1", "p2", "p3"]
            if batched:
                net.send_many("p0", targets, "ping")
            else:
                for target in targets:
                    net.send("p0", target, "ping")
            net.run_until_quiescent()
            return log, net.simulator.events_processed

        assert run(True) == run(False)
        log, events = run(True)
        assert log == [
            ("p1", "ping"), ("p2", "ping"), ("p3", "ping"),
            ("p0", "pong"), ("p0", "pong"), ("p0", "pong"),
        ]
        assert events == 6


def _plan_with(feature):
    """A plan over ``_lattice_network`` ids with one drop-capable feature."""
    plan = FailurePlan()
    if feature == "drop predicate":
        plan.add_drop_rule(lambda sender, destination, message: destination == (3, 0))
    elif feature == "crashed sender":
        plan.crash((0, 0))
    elif feature == "crashed destination":
        plan.crash((2, 0))
    elif feature == "active partition":
        plan.add_partition(PartitionSpec(start=0.0, end=10.0, axis=0, boundary=1.5))
    elif feature == "later partition":
        plan.add_partition(PartitionSpec(start=5.0, end=10.0, axis=0, boundary=1.5))
    return plan


class TestCheckedBroadcasts:
    """Only a broadcast that could be dropped asks the plan per destination."""

    @pytest.mark.parametrize(
        "feature, checked",
        [
            ("nothing", False),
            ("crashed destination", False),
            ("later partition", False),
            ("drop predicate", True),
            ("crashed sender", True),
            ("active partition", True),
        ],
    )
    def test_should_drop_runs_only_when_a_drop_is_possible(
        self, monkeypatch, feature, checked
    ):
        calls = []
        should_drop = FailurePlan.should_drop

        def counted(plan, *args):
            calls.append(args)
            return should_drop(plan, *args)

        monkeypatch.setattr(FailurePlan, "should_drop", counted)
        targets = [(1, 0), (2, 0), (3, 0)]
        batched, procs_a = _lattice_network(failure_plan=_plan_with(feature))
        batched.send_many((0, 0), targets, "m")
        assert calls == ([((0, 0), t, "m") for t in targets] if checked else [])
        # Skipping the checks never changes the outcome.
        looped, procs_b = _lattice_network(failure_plan=_plan_with(feature))
        for target in targets:
            looped.send((0, 0), target, "m")
        for net in (batched, looped):
            net.run_until_quiescent()
        assert _counters(batched) == _counters(looped)
        assert _received(procs_a) == _received(procs_b)


class TestUnknownDestination:
    @pytest.mark.parametrize(
        "path", ["send", "send_many", "send_many checked", "send_many deferred"]
    )
    def test_names_the_destination_and_keeps_earlier_sends(self, path):
        plan = FailurePlan()
        if path == "send_many checked":
            plan.add_drop_rule(lambda sender, destination, message: False)
        if path == "send_many deferred":
            transport = LossyTransport(loss=0.0, delay=0.25)
        else:
            transport = ReliableTransport(0.25)
        net, procs = _network(transport, failure_plan=plan)
        with pytest.raises(UnknownDestination) as raised:
            if path == "send":
                net.send("p0", "p1", "m")
                net.send("p0", "nope", "m")
            elif path == "send_many deferred":
                with net.deferred_sends():
                    net.send_many("p0", ["p1", "nope"], "m")
            else:
                net.send_many("p0", ["p1", "nope"], "m")
        assert isinstance(raised.value, KeyError)
        assert raised.value.destination == "nope"
        assert "unknown destination 'nope'" in str(raised.value)
        trace, counters = _trace(net, procs)
        assert counters == (1, 1, 0)
        assert dict(trace)["p1"] == [(0.25, "p0", "m")]


class TestLossyBroadcasts:
    def test_lossy_stream_consumed_in_send_order(self):
        # The seeded loss stream must be drawn per message in destination
        # order, exactly as sequential sends draw it.
        spec = TransportSpec("lossy", {"loss": 0.5, "seed": 7})
        targets = ["p1", "p2", "p3", "p4"]
        batched, procs_a = _network(spec.build())
        batched.send_many("p0", targets, "m")
        sequential, procs_b = _network(spec.build())
        for t in targets:
            sequential.send("p0", t, "m")
        assert _trace(batched, procs_a) == _trace(sequential, procs_b)

    def test_lossy_broadcast_outside_a_scope_is_one_entry(self):
        # A lossy channel has a fixed delay too: a broadcast outside a
        # deferred-send scope is one record, drawn and pushed at once.
        net, procs = _network(LossyTransport(loss=0.5, delay=0.25, seed=7))
        net.send_many("p0", ["p1", "p2", "p3", "p4"], "m")
        (entry,) = net.simulator.queue._buckets[0.25]
        assert entry.weight == net.transport.messages_scheduled
        assert entry.weight + net.transport.messages_dropped == 4


class TestQueueBatchPush:
    def test_interleaves_with_existing_bucket(self):
        # A weighted entry takes its push-order slot in the bucket and runs
        # whole; the counters see its weight.
        sim = Simulator()
        log = []
        sim.queue.push(1.0, lambda: log.append("first"))
        sim.queue.push(
            1.0, lambda: log.extend(["second", "third"]), kind="message", weight=2
        )
        sim.queue.push(1.0, lambda: log.append("fourth"))
        assert sim.run() == 4
        assert log == ["first", "second", "third", "fourth"]
        assert sim.stats.scheduled == sim.stats.executed == 4
