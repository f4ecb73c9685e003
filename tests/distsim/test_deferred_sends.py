"""Deferred sends: ``Network.deferred_sends`` on a fixed-delay channel.

Every send of a reliable or lossy fixed-delay transport is a record that
``Transport.send_batch`` schedules.  Inside the scope the records are kept;
when the scope flushes, a lossy channel resolves them in one
``drops_many`` call, and all the survivors become one weighted queue
entry.  The contract is byte-identity with the per-message path (the same
channel with ``deferred_latency`` forced to ``None``): the same deliveries
in the same order, the same counters, and the same stream state (the
per-edge counters).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.distsim.transport as transport_module
from repro.api.service import ServiceConfig
from repro.core.online import run_online
from repro.distsim.engine import Simulator
from repro.distsim.failures import ChurnSpec, FailurePlan, PartitionSpec
from repro.distsim.network import Network, UnknownDestination
from repro.distsim.process import Process
from repro.distsim.transport import (
    CorruptingTransport,
    LossyTransport,
    ReliableTransport,
    RetransmitTransport,
    Transport,
    TransportSpec,
)
from repro.service import resume_service, run_service
from repro.vehicles.fleet import FleetConfig
from repro.workloads.arrivals import random_arrivals
from repro.workloads.library import build_family_demand

IDS = [(x, y) for x in range(3) for y in range(3)]


class Recorder(Process):
    def __init__(self, identity, log):
        super().__init__(identity)
        self.log = log

    def on_message(self, sender, message):
        self.log.append((self.network.simulator.now, sender, self.identity, message))


def _network(transport, *, plan=None):
    log = []
    net = Network(Simulator(), transport=transport, failure_plan=plan)
    procs = [Recorder(identity, log) for identity in IDS]
    net.register_all(procs)
    return net, procs, log


def _schedule(broadcasts, seed=5):
    """A recorded send schedule: broadcasts to random peer sets and singles."""
    rng = np.random.default_rng(seed)
    ops = []
    for step in range(broadcasts):
        sender = IDS[int(rng.integers(len(IDS)))]
        peers = [p for p in IDS if p != sender]
        if step % 4 == 3:
            ops.append(("one", sender, [peers[int(rng.integers(len(peers)))]], step))
        else:
            chosen = sorted(rng.choice(len(peers), size=int(rng.integers(1, 6)), replace=False))
            ops.append(("many", sender, [peers[i] for i in chosen], step))
    return ops


def _replay(net, ops):
    for kind, sender, targets, message in ops:
        if kind == "one":
            net.send(sender, targets[0], message)
        else:
            net.send_many(sender, targets, message)


def _state(net, log):
    transport = net.transport
    plan = net.failure_plan
    return {
        "log": list(log),
        "network": (net.messages_sent, net.messages_delivered, net.messages_dropped),
        "transport": (transport.messages_scheduled, transport.messages_dropped),
        "plan": (plan.dropped_count, plan.partition_dropped_count),
        "events": (net.simulator.events_processed, net.simulator.stats.scheduled),
        "streams": transport.stream_state(),
    }


def _run(ops, *, deferred, plan_factory=None, loss=0.3):
    transport = LossyTransport(loss=loss, delay=0.1, seed=11)
    plan = plan_factory() if plan_factory is not None else None
    net, _, log = _network(transport, plan=plan)
    if deferred:
        with net.deferred_sends():
            assert net._deferred is not None
            _replay(net, ops)
    else:
        _replay(net, ops)
    net.run_until_quiescent()
    return _state(net, log)


class TestDrawsMatchTheScalarStream:
    @pytest.mark.parametrize("width", [1, 9, 10, 300])
    def test_drops_many_equals_drops(self, width):
        rng = np.random.default_rng(width)
        records = [
            (IDS[int(a)], [IDS[int(b)] for b in rng.integers(0, len(IDS), int(size))], None)
            for a, size in zip(rng.integers(0, len(IDS), width), rng.integers(0, 6, width))
        ]
        bulk = LossyTransport(loss=0.4, seed=9)
        scalar = LossyTransport(loss=0.4, seed=9)
        bulk.drops_many(records[:3])  # the stream continues across calls
        for sender, targets, message in records[:3]:
            for target in targets:
                scalar.drops(sender, target, message)
        expected = [
            scalar.drops(sender, target, message)
            for sender, targets, message in records
            for target in targets
        ]
        assert bulk.drops_many(records) == [
            position for position, dropped in enumerate(expected) if dropped
        ]
        assert bulk.stream_state() == scalar.stream_state()


class TestDeferredEqualsPerMessage:
    @pytest.mark.parametrize("broadcasts", [3, 80])
    def test_recorded_schedule(self, broadcasts):
        ops = _schedule(broadcasts)
        deferred = _run(ops, deferred=True)
        per_message = _run(ops, deferred=False)
        assert deferred == per_message
        assert deferred["network"][2] > 0 or broadcasts < 10  # losses happened

    def test_crashes_and_drop_rules(self):
        def plan():
            plan = FailurePlan()
            plan.crash((1, 1))
            plan.add_drop_rule(lambda s, d, m: d == (2, 2) and m % 2 == 0)
            return plan

        ops = _schedule(60, seed=8)
        assert _run(ops, deferred=True, plan_factory=plan) == _run(
            ops, deferred=False, plan_factory=plan
        )

    def test_crashed_sender_checks_every_destination(self):
        def plan():
            plan = FailurePlan()
            plan.crash((0, 0))
            return plan

        ops = [("many", (0, 0), [(0, 1), (0, 2)], 0), ("many", (1, 0), [(0, 0), (2, 0)], 1)]
        deferred = _run(ops, deferred=True, plan_factory=plan)
        assert deferred == _run(ops, deferred=False, plan_factory=plan)
        assert deferred["plan"] == (2, 0)  # the crashed sender's two sends
        assert deferred["network"][0] == 4

    @pytest.mark.parametrize(
        "transport",
        [ReliableTransport(0.1), LossyTransport(loss=0.0, delay=0.1, seed=1)],
        ids=["reliable", "lossless-lossy"],
    )
    def test_each_flush_is_one_queue_entry(self, transport):
        net, _, _ = _network(transport)
        with net.deferred_sends():
            net.send_many((0, 0), IDS[1:], "a")
            net.send_many((1, 1), IDS[:4], "b")
            net.send((2, 2), (0, 0), "c")
        queue = net.simulator.queue
        assert [len(bucket) for bucket in queue._buckets.values()] == [1]
        (entry,) = queue._buckets[0.1]
        assert entry.kind == "message"
        assert entry.weight == len(queue) == 8 + 4 + 1
        assert net.transport.messages_scheduled == 13

    def test_flushed_entry_weighs_the_survivors(self):
        net, _, log = _network(LossyTransport(loss=0.5, delay=0.1, seed=1))
        with net.deferred_sends():
            net.send_many((0, 0), IDS[1:], "a")
            net.send_many((1, 1), IDS[:4], "b")
        (entry,) = net.simulator.queue._buckets[0.1]
        lost = net.transport.messages_dropped
        assert 0 < lost < 12
        assert entry.weight == 12 - lost == net.transport.messages_scheduled
        assert net.run_until_quiescent() == entry.weight == len(log)

    def test_a_fully_lost_flush_pushes_nothing(self):
        net, _, _ = _network(LossyTransport(loss=1.0, delay=0.1, seed=1))
        with net.deferred_sends():
            net.send_many((0, 0), IDS[1:], "a")
        assert not net.simulator.queue._buckets
        assert net.messages_dropped == net.transport.messages_dropped == 8
        assert net.simulator.stats.scheduled == 0

    def test_a_reliable_flush_does_no_loss_work(self, monkeypatch):
        def no_loss_work(*args):
            raise AssertionError("loss work on a lossless channel")

        monkeypatch.setattr(ReliableTransport, "drops", no_loss_work)
        net, _, log = _network(ReliableTransport(0.1))
        assert net.transport.drops_many is None
        with net.deferred_sends():
            net.send_many((0, 0), IDS[1:], "a")
            net.send((1, 1), (0, 0), "b")
        assert net.run_until_quiescent() == len(log) == 9

    def test_failure_plan_is_not_asked_per_destination(self, monkeypatch):
        # A broadcast nothing in the plan can drop is one record, inside the
        # scope or not; only a drop rule makes it ask per destination.
        calls = []
        original = FailurePlan.should_drop

        def counting(self, *args):
            calls.append(args[1])
            return original(self, *args)

        monkeypatch.setattr(FailurePlan, "should_drop", counting)
        net, _, _ = _network(LossyTransport(loss=0.2, delay=0.1, seed=1))
        with net.deferred_sends():
            net.send_many((0, 0), IDS[1:], "a")
        net.send_many((0, 0), IDS[1:], "a")
        assert calls == []
        net.failure_plan.add_drop_rule(lambda sender, destination, message: False)
        net.send_many((0, 0), IDS[1:], "a")
        assert calls == IDS[1:]


class TestFlushOrder:
    def _timeline(self, deferred):
        transport = LossyTransport(loss=0.25, delay=0.5, seed=4)
        net, procs, log = _network(transport)

        def pending():
            return None if net._deferred is None else [m for _, _, m in net._deferred]

        def body(expect):
            net.send_many((0, 0), IDS[1:], "first")
            assert pending() == expect(["first"])
            procs[0].set_timer(0.5, lambda: log.append(("timer", net.simulator.now)))
            assert pending() == expect([])  # the timer push flushed "first"
            net.send_many((2, 2), IDS[:-1], "second")
            net.simulator.schedule_batch([(0.5, lambda: log.append(("batch",)))])
            net.send((1, 1), (0, 0), "third")
            assert pending() == expect(["third"])

        if deferred:
            with net.deferred_sends():
                body(lambda recorded: recorded)
        else:
            body(lambda recorded: None)
        queue_order = [
            (event.kind, event.weight) for bucket in net.simulator.queue._buckets.values()
            for event in bucket
        ]
        net.run_until_quiescent()
        return log, queue_order, _state(net, log)

    def test_a_push_inside_the_scope_flushes_pending_sends_first(self):
        deferred_log, deferred_queue, deferred_state = self._timeline(True)
        log, _, state = self._timeline(False)
        assert deferred_log == log
        assert deferred_state == state
        kinds = [kind for kind, _ in deferred_queue]
        # A flush whose every send was lost pushes no entry.
        survived = {entry[-1] for entry in log if entry[0] not in ("timer", "batch")}
        expected = ["message", "timer", "message", "event", "message"]
        for kept, position in (("third", 4), ("second", 2), ("first", 0)):
            if kept not in survived:
                del expected[position]
        assert kinds == expected
        assert ("timer", 0.5) in log


class TestScopeLifecycle:
    def test_nothing_pending_after_exit(self):
        net, _, _ = _network(LossyTransport(loss=0.3, delay=0.1, seed=1))
        with net.deferred_sends():
            net.send_many((0, 0), IDS[1:], "a")
            assert net.simulator.before_push is not None
        assert net._deferred is None
        assert net.simulator.before_push is None
        assert net.simulator.pending == net.transport.messages_scheduled > 0

    def test_exception_flushes_and_closes_the_scope(self):
        ops = _schedule(40)
        transport = LossyTransport(loss=0.3, delay=0.1, seed=11)
        net, _, log = _network(transport)
        with pytest.raises(RuntimeError, match="boom"):
            with net.deferred_sends():
                _replay(net, ops)
                raise RuntimeError("boom")
        assert net._deferred is None
        assert net.simulator.before_push is None
        net.run_until_quiescent()
        assert _state(net, log) == _run(ops, deferred=False)

    def test_unknown_destination_keeps_the_accepted_sends(self):
        states = []
        for deferred in (True, False):
            net, _, log = _network(LossyTransport(loss=0.3, delay=0.1, seed=1))
            with pytest.raises(KeyError):
                if deferred:
                    with net.deferred_sends():
                        net.send_many((0, 0), [(0, 1), (0, 2), "nope", (1, 1)], "a")
                else:
                    net.send_many((0, 0), [(0, 1), (0, 2), "nope", (1, 1)], "a")
            net.run_until_quiescent()
            states.append(_state(net, log))
        assert states[0] == states[1]

    def test_nested_scope_is_one_scope(self):
        net, _, _ = _network(LossyTransport(loss=0.3, delay=0.1, seed=1))
        with net.deferred_sends():
            outer = net._deferred
            with net.deferred_sends():
                net.send((0, 0), (0, 1), "a")
            assert net._deferred is outer and len(outer) == 1
        assert net._deferred is None

    @pytest.mark.parametrize(
        "transport",
        [
            ReliableTransport(0.1),
            ReliableTransport(0.0),
            LossyTransport(loss=0.3),
            type("SubclassedReliable", (ReliableTransport,), {})(0.1),
            type("SubclassedLossy", (LossyTransport,), {})(loss=0.3),
        ],
        ids=["reliable", "reliable-zero-delay", "lossy", "reliable-subclass", "lossy-subclass"],
    )
    def test_fixed_delay_transports_open_the_scope(self, transport):
        net, _, _ = _network(transport)
        with net.deferred_sends():
            assert net._deferred == []
            assert net.simulator.before_push is not None
        assert net._deferred is None

    @pytest.mark.parametrize(
        "transport",
        [
            CorruptingTransport(rate=0.5, delay=0.1),
            RetransmitTransport(inner={"kind": "lossy", "params": {"loss": 0.3}}),
        ],
        ids=["corrupting", "retransmit"],
    )
    def test_other_transports_keep_the_per_message_path(self, transport):
        net, _, _ = _network(transport)
        with net.deferred_sends():
            assert net._deferred is None
            assert net.simulator.before_push is None


def _no_delay(self):
    return None


def _channel(kind, delay, *, per_message):
    """A fixed-delay channel, or its per-message twin.

    The twin is a subclass that draws, delays and delivers exactly as the
    channel does, but reports no ``deferred_latency``, which keeps it on
    per-message ``Transport.send``.
    """
    cls = ReliableTransport if kind == "reliable" else LossyTransport
    if per_message:
        cls = type("PerMessage" + cls.__name__, (cls,), {"deferred_latency": _no_delay})
    if kind == "reliable":
        return cls(delay)
    return cls(loss=0.3, delay=delay, seed=7)


_NODE = st.integers(0, len(IDS) - 1)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("one"), _NODE, _NODE),
        st.tuples(st.just("many"), _NODE, st.lists(_NODE, max_size=6)),
        st.tuples(st.just("timer"), _NODE, st.sampled_from([0.0, 0.05, 0.1, 0.2])),
        st.tuples(st.just("crash"), _NODE),
    ),
    max_size=8,
)
#: Segments of operations, each run inside or outside a deferred-send
#: scope and followed by an optional partial drain of the queue.
_SEGMENTS = st.lists(
    st.tuples(st.booleans(), _OPS, st.sampled_from([None, 0.0, 0.05, 0.1, 0.3])),
    max_size=6,
)


def _interleaving(transport, segments):
    """Run ``segments`` over ``transport``; returns the observable state."""
    net, procs, log = _network(transport)
    tags = iter(range(10**6))
    sent = []  # (sender, destination, tag) in send order

    def fire(proc):
        def callback():
            log.append(("timer", net.simulator.now, proc.identity))
            tag = next(tags)
            destination = IDS[(IDS.index(proc.identity) + 1) % len(IDS)]
            sent.append((proc.identity, destination, tag))
            proc.send(destination, tag)

        return callback

    def apply(ops):
        for op in ops:
            if op[0] == "one":
                tag = next(tags)
                sent.append((IDS[op[1]], IDS[op[2]], tag))
                net.send(IDS[op[1]], IDS[op[2]], tag)
            elif op[0] == "many":
                tag = next(tags)
                sent.extend((IDS[op[1]], IDS[d], tag) for d in op[2])
                net.send_many(IDS[op[1]], [IDS[d] for d in op[2]], tag)
            elif op[0] == "timer":
                procs[op[1]].set_timer(op[2], fire(procs[op[1]]))
            else:
                net.failure_plan.crash(IDS[op[1]])

    for inside, ops, drain in segments:
        if inside:
            with net.deferred_sends():
                apply(ops)
        else:
            apply(ops)
        if drain is not None:
            net.simulator.run(until=net.simulator.now + drain)
    net.run_until_quiescent()
    state = _state_of(net, log)
    state["sent"] = sent
    return state


def _state_of(net, log):
    state = {
        "log": list(log),
        "network": (net.messages_sent, net.messages_delivered, net.messages_dropped),
        "transport": (net.transport.messages_scheduled, net.transport.messages_dropped),
        "events": (net.simulator.stats.executed, net.simulator.stats.scheduled),
    }
    if isinstance(net.transport, LossyTransport):
        state["streams"] = net.transport.stream_state()
    return state


class TestDeferredEqualsPerMessageProperty:
    @pytest.mark.parametrize("delay", [0.0, 0.1])
    @pytest.mark.parametrize("kind", ["reliable", "lossy"])
    @settings(max_examples=60, deadline=None)
    @given(segments=_SEGMENTS)
    def test_any_interleaving(self, kind, delay, segments):
        deferred = _interleaving(_channel(kind, delay, per_message=False), segments)
        per_message = _interleaving(_channel(kind, delay, per_message=True), segments)
        assert deferred == per_message
        # Per-link FIFO: each link delivers its messages in send order.
        order = {(s, d, tag): n for n, (s, d, tag) in enumerate(deferred["sent"])}
        by_link = {}
        for entry in deferred["log"]:
            if entry[0] != "timer":
                _, sender, destination, tag = entry
                by_link.setdefault((sender, destination), []).append(
                    order[(sender, destination, tag)]
                )
        assert all(seen == sorted(seen) for seen in by_link.values())


class Boom(Exception):
    """Raised by a poisoned handler."""


class Poisoned(Recorder):
    """Logs like :class:`Recorder`, and raises on a message poisoned for it."""

    def on_message(self, sender, message):
        super().on_message(sender, message)
        if message[1] == self.identity:
            raise Boom(message)


_BROADCAST = st.tuples(
    st.just("many"),
    _NODE,  # sender
    st.lists(_NODE, max_size=6),  # destinations, repeats and the sender allowed
    st.booleans(),  # passed as a generator
    st.none() | st.integers(0, 6),  # an unknown destination inserted here
    st.none() | st.integers(0, 5),  # the destination whose handler raises
)
_SEND_OPS = st.lists(
    st.one_of(
        _BROADCAST,
        st.tuples(st.just("crash"), _NODE),
        st.tuples(st.just("recover"), _NODE),
        st.tuples(st.just("rule"), _NODE),
    ),
    max_size=8,
)
_SEND_SEGMENTS = st.lists(
    st.tuples(st.booleans(), _SEND_OPS, st.sampled_from([None, 0.0, 0.1, 0.3])),
    max_size=5,
)


def _broadcasts(transport, segments):
    """Run broadcast ``segments`` until they end or a handler raises."""
    log = []
    net = Network(Simulator(), transport=transport, failure_plan=FailurePlan())
    net.register_all([Poisoned(identity, log) for identity in IDS])
    plan = net.failure_plan

    serials = iter(range(10**6))

    def apply(ops):
        for op in ops:
            if op[0] == "crash":
                plan.crash(IDS[op[1]])
            elif op[0] == "recover":
                plan.recover(IDS[op[1]])
            elif op[0] == "rule":
                target = IDS[op[1]]
                plan.add_drop_rule(lambda s, d, m, target=target: d == target)
            else:
                _, sender, nodes, lazy, unknown, poison = op
                targets = [IDS[n] for n in nodes]
                poisoned = targets[poison] if poison is not None and poison < len(targets) else None
                if unknown is not None:
                    targets.insert(min(unknown, len(targets)), "nope")
                destinations = (t for t in targets) if lazy else targets
                serial = next(serials)
                try:
                    net.send_many(IDS[sender], destinations, (serial, poisoned))
                except UnknownDestination:
                    log.append(("unknown", serial))

    raised = False
    try:
        for inside, ops, drain in segments:
            if inside:
                with net.deferred_sends():
                    apply(ops)
            else:
                apply(ops)
            if drain is not None:
                net.simulator.run(until=net.simulator.now + drain)
        net.run_until_quiescent()
    except Boom:
        raised = True
    state = _state_of(net, log)
    state["plan"] = (plan.dropped_count, plan.partition_dropped_count)
    state["raised"] = raised
    return state


class TestSendManyEqualsSendLoopProperty:
    """``send_many``'s accept-whole branch and the crash-filtered delivery
    equal a per-message ``send`` loop, up to a raising handler."""

    @pytest.mark.parametrize("delay", [0.0, 0.1])
    @pytest.mark.parametrize("kind", ["reliable", "lossy"])
    @settings(max_examples=80, deadline=None)
    @given(segments=_SEND_SEGMENTS)
    def test_any_broadcast_schedule(self, kind, delay, segments):
        batched = _broadcasts(_channel(kind, delay, per_message=False), segments)
        per_message = _broadcasts(_channel(kind, delay, per_message=True), segments)
        assert batched == per_message

    @pytest.mark.parametrize("inside", [False, True], ids=["batched", "deferred"])
    def test_a_raise_mid_record_counts_only_the_deliveries_made(self, inside):
        ops = [
            # (0, 0) -> (0, 1) (0, 2) (1, 1) (0, 1) (1, 2) (1, 0); (1, 1) raises.
            ("many", 0, [1, 2, 4, 1, 5, 3], False, None, 2),
            ("crash", 1),  # (0, 1) and (1, 2) crash between send and delivery
            ("crash", 5),
        ]
        segments = [(inside, ops, None)]
        state = _broadcasts(_channel("reliable", 0.1, per_message=False), segments)
        assert state == _broadcasts(_channel("reliable", 0.1, per_message=True), segments)
        assert state["raised"]
        # The first (0, 1) was dropped, (0, 2) and (1, 1) delivered; the
        # second (0, 1), (1, 2) and (1, 0) were never reached.
        assert state["network"] == (6, 2, 1)
        assert state["events"][0] == 3


#: How a caller may hand ``send_many`` its destinations.
_SHAPES = {
    "tuple": tuple,
    "list": list,
    "generator": lambda targets: (target for target in targets),
}
_ADMISSION_BROADCASTS = [
    ((0, 0), [(0, 1), (1, 1), (2, 2)], "a"),
    ((1, 0), [(0, 0), (1, 1), (2, 0), (2, 1)], "b"),
    ((2, 2), [(0, 2), (1, 2)], "c"),
]
#: One failure-plan state per way a broadcast can fail ``Network._admits``
#: (plus two that pass it), and the broadcasts each sends.
_ADMISSION_CASES = {
    "admitted": (lambda plan: None, _ADMISSION_BROADCASTS),
    "crashed sender": (lambda plan: plan.crash((0, 0)), _ADMISSION_BROADCASTS),
    "crashed destination": (lambda plan: plan.crash((1, 1)), _ADMISSION_BROADCASTS),
    "crash elsewhere": (lambda plan: plan.crash((1, 2)), _ADMISSION_BROADCASTS[:2]),
    "active partition": (
        lambda plan: plan.add_partition(PartitionSpec(start=0.0, end=10.0, axis=0, boundary=0.5)),
        _ADMISSION_BROADCASTS,
    ),
    "future partition": (
        lambda plan: plan.add_partition(PartitionSpec(start=5.0, end=10.0, axis=0, boundary=0.5)),
        _ADMISSION_BROADCASTS,
    ),
    "drop rule": (
        lambda plan: plan.add_drop_rule(lambda s, d, m: d == (2, 0)),
        _ADMISSION_BROADCASTS,
    ),
    # A destination this network never registered: in a shard worker,
    # a vehicle another shard owns.
    "unregistered destination": (
        lambda plan: None,
        _ADMISSION_BROADCASTS[:1] + [((1, 0), [(0, 1), (9, 9), (2, 0)], "x")],
    ),
}


def _admission_run(transport, case, *, shape, inside):
    """Send ``case``'s broadcasts: ``send_many`` with destinations of
    ``shape``, or (``shape=None``) the per-message ``send`` loop."""
    setup, broadcasts = _ADMISSION_CASES[case]
    net, _, log = _network(transport)
    plan = net.failure_plan
    setup(plan)
    with net.deferred_sends() if inside else nullcontext():
        for sender, targets, message in broadcasts:
            try:
                if shape is None:
                    for target in targets:
                        net.send(sender, target, message)
                else:
                    net.send_many(sender, _SHAPES[shape](targets), message)
            except UnknownDestination as error:
                log.append(("unknown", message, error.destination))
    net.run_until_quiescent()
    state = _state_of(net, log)
    state["plan"] = (plan.dropped_count, plan.partition_dropped_count)
    return state


class TestSendManyAdmission:
    """``send_many``'s one admission test, and the walk for what fails it."""

    @pytest.mark.parametrize("inside", [False, True], ids=["batched", "deferred"])
    @pytest.mark.parametrize("kind", ["reliable", "lossy"])
    @pytest.mark.parametrize("case", sorted(_ADMISSION_CASES))
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_every_shape_equals_the_send_loop(self, shape, case, kind, inside):
        broadcast = _admission_run(_channel(kind, 0.1, per_message=False), case, shape=shape, inside=inside)
        loop = _admission_run(_channel(kind, 0.1, per_message=False), case, shape=None, inside=inside)
        assert broadcast == loop
        assert broadcast["network"][0] > 0

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @pytest.mark.parametrize(
        "case, network, plan",
        [
            ("admitted", (9, 9, 0), (0, 0)),
            # The crashed sender's three sends are plan drops; the send to
            # it is a crashed-destination drop.
            ("crashed sender", (9, 5, 4), (3, 0)),
            ("crashed destination", (9, 7, 2), (0, 0)),
            ("crash elsewhere", (7, 7, 0), (0, 0)),
            ("active partition", (9, 5, 4), (4, 4)),
            ("future partition", (9, 9, 0), (0, 0)),
            ("drop rule", (9, 8, 1), (1, 0)),
            ("unregistered destination", (4, 4, 0), (0, 0)),
        ],
    )
    def test_counters_of_every_case(self, shape, case, network, plan):
        # Pinned by hand, not against the ``send`` loop, which shares the
        # admission test.
        state = _admission_run(ReliableTransport(0.1), case, shape=shape, inside=False)
        assert state["network"] == network
        assert state["plan"] == plan

    def test_a_generator_reaches_the_walk_intact(self):
        # The admission test must not read a one-shot iterator: a
        # broadcast that fails it walks every destination it was given.
        net, _, log = _network(ReliableTransport(0.1))
        net.failure_plan.crash((1, 1))
        net.send_many((0, 0), (t for t in [(0, 1), (1, 1), (2, 2)]), "m")
        net.run_until_quiescent()
        assert (net.messages_sent, net.messages_delivered, net.messages_dropped) == (3, 2, 1)
        assert [entry[2] for entry in log] == [(0, 1), (2, 2)]

    @pytest.mark.parametrize("inside", [False, True], ids=["batched", "deferred"])
    def test_a_reused_caller_list_leaves_the_record_alone(self, inside):
        net, _, log = _network(ReliableTransport(0.1))
        targets = [(0, 1), (0, 2)]
        with net.deferred_sends() if inside else nullcontext():
            net.send_many((0, 0), targets, "a")
            targets[:] = [(2, 2)]
            net.send_many((1, 1), targets, "b")
            targets.append((2, 1))
        net.run_until_quiescent()
        assert [entry[1:] for entry in log] == [
            ((0, 0), (0, 1), "a"),
            ((0, 0), (0, 2), "a"),
            ((1, 1), (2, 2), "b"),
        ]

    def test_a_tuple_audience_is_scheduled_uncopied(self):
        net, _, _ = _network(ReliableTransport(0.1))
        peers = ((0, 1), (0, 2))
        with net.deferred_sends():
            net.send_many((0, 0), peers, "a")
            ((_, recorded, _),) = net._deferred
            assert recorded is peers
        net.send_many((1, 1), peers, "b")
        (_, second) = net.simulator.queue._buckets[0.1]
        ((_, scheduled, _),) = second.action.args[0]
        assert scheduled is peers
        # A list is copied: the record outlives the caller's list.
        listed = list(peers)
        with net.deferred_sends():
            net.send_many((0, 0), listed, "c")
            ((_, recorded, _),) = net._deferred
            assert recorded == listed and recorded is not listed


def _rounds(transport, *, budget=None, rounds=4):
    """Heartbeat-like rounds: every node broadcasts to the rest, deferred.

    Each round is drained before the next; with a ``budget``, each drain
    first stops at that many events and then finishes.
    """
    net, procs, log = _network(transport)
    for round_id in range(rounds):
        with net.deferred_sends():
            for sender in IDS:
                net.send_many(sender, [p for p in IDS if p != sender], (round_id, sender))
            procs[round_id].set_timer(0.05, lambda: log.append(("timer",)))
        until = net.simulator.now + 0.3
        if budget is not None:
            net.simulator.run(until=until, max_events=budget)
        net.simulator.run(until=until)
    return net, log


def _queued_rounds(transport, rounds=3):
    """Three rounds queued back to back at one time, a tick after each."""
    net, _, log = _network(transport)
    for round_id in range(rounds):
        with net.deferred_sends():
            for sender in IDS:
                net.send_many(sender, [p for p in IDS if p != sender], (round_id, sender))
        net.simulator.schedule(0.1, lambda: log.append(("tick",)))
    return net, log


class TestEventBudget:
    """``run(max_events=k)`` never splits a flushed entry; resuming is exact."""

    @pytest.mark.parametrize("kind", ["reliable", "lossy"])
    @pytest.mark.parametrize("budget", [0, 1, 7, 30, 71, 72, 73, 150, 10**6])
    def test_run_then_run_gives_the_same_log(self, kind, budget):
        whole, whole_log = _queued_rounds(_channel(kind, 0.1, per_message=False))
        total = whole.simulator.run()
        split, split_log = _queued_rounds(_channel(kind, 0.1, per_message=False))
        weights = [e.weight for e in split.simulator.queue if e.kind == "message"]
        assert len(weights) == 3 and sum(weights) + 3 == total
        first = split.simulator.run(max_events=budget)
        # A round's entry runs whole or not at all: the budget is met
        # (or the queue drained) and overrun by less than one entry.
        assert min(budget, total) <= first < budget + max(weights)
        assert split.simulator.run() == total - first
        assert split_log == whole_log
        assert split.simulator.stats.executed == whole.simulator.stats.executed

    @pytest.mark.parametrize("kind", ["reliable", "lossy"])
    @pytest.mark.parametrize("budget", [0, 1, 13, 72, 100])
    def test_budgeted_drains_give_the_same_log(self, kind, budget):
        whole, whole_log = _rounds(_channel(kind, 0.1, per_message=False))
        split, split_log = _rounds(_channel(kind, 0.1, per_message=False), budget=budget)
        assert split_log == whole_log
        assert _state_of(split, split_log) == _state_of(whole, whole_log)


LOSSY_EDGE = TransportSpec("lossy", {"loss": 0.1, "delay": 0.02, "seed": 3, "stream": "edge"})
RELIABLE = TransportSpec("reliable", {"delay": 0.02})

_RUN_FIELDS = (
    "jobs_served",
    "max_vehicle_energy",
    "vehicle_energies",
    "replacements",
    "searches",
    "messages",
    "messages_dropped",
    "heartbeat_rounds",
    "events_processed",
    "sim_time",
)


def _count_vector_draws(monkeypatch):
    """Record how many loss draws each array evaluation of the slot table
    makes."""
    calls = []
    original = transport_module._EdgeSlots.draws

    def counting(self, records):
        words = original(self, records)
        calls.append(len(words))
        return words

    monkeypatch.setattr(transport_module._EdgeSlots, "draws", counting)
    return calls


def _count_flushed_records(monkeypatch):
    """Record how many sends each non-empty deferred-scope flush carries."""
    flushed = []
    original = Network._flush_deferred

    def counting(self):
        if self._deferred:
            flushed.append(len(self._deferred))
        original(self)

    monkeypatch.setattr(Network, "_flush_deferred", counting)
    return flushed


def _online_run_with_crashes(monitoring, transport):
    demand = build_family_demand("scale-up", {"side": 9, "per_point": 1})
    jobs = random_arrivals(demand, np.random.default_rng(0))
    return run_online(
        jobs,
        omega=3.0,
        capacity="theorem",
        config=FleetConfig(monitoring=monitoring),
        recovery_rounds=2,
        dead_vehicles=[(0, 0), (0, 1), (4, 4)],
        transport=transport,
    )


def _service_config(transport):
    demand = build_family_demand("scale-up", {"side": 9, "per_point": 1})
    jobs = list(random_arrivals(demand, np.random.default_rng(1)).jobs)
    config = ServiceConfig.from_demand(
        demand,
        omega=3.0,
        fleet=FleetConfig(monitoring="ring"),
        recovery_rounds=2,
        churn=(ChurnSpec(time=10.5, vertex=(4, 4), action="leave"),),
        transport=transport,
        window_jobs=20,
        checkpoint_every=1,
    )
    return config, jobs


def _resumed_from_mid_run(config, jobs, tmp_path):
    snapshot = tmp_path / "snap.json"
    partial = run_service(config, jobs, checkpoint_path=str(snapshot), stop_after_checkpoints=2)
    resumed = resume_service(str(snapshot), jobs)
    return partial, resumed


class TestRunsAreUnchanged:
    """Whole runs with the deferral equal runs forced onto the per-message path."""

    @pytest.mark.parametrize("monitoring", ["ring", "gossip"])
    def test_online_run_with_crashes(self, monitoring, monkeypatch):
        calls = _count_vector_draws(monkeypatch)
        deferred = _online_run_with_crashes(monitoring, LOSSY_EDGE)
        assert calls and max(calls) > 1  # a round's draws were one array call
        monkeypatch.setattr(LossyTransport, "deferred_latency", lambda self: None)
        per_message = _online_run_with_crashes(monitoring, LOSSY_EDGE)
        assert deferred.messages_dropped > 0
        assert deferred.replacements > 0
        for name in _RUN_FIELDS:
            assert getattr(deferred, name) == getattr(per_message, name), name

    @pytest.mark.parametrize("monitoring", ["ring", "gossip"])
    def test_reliable_online_run_with_crashes(self, monitoring, monkeypatch):
        flushed = _count_flushed_records(monkeypatch)
        deferred = _online_run_with_crashes(monitoring, RELIABLE)
        assert flushed and max(flushed) > 1  # whole rounds became one entry
        # Off the fixed-delay path: every message is its own
        # ``Transport.send``.
        monkeypatch.setattr(ReliableTransport, "deferred_latency", lambda self: None)
        per_message = _online_run_with_crashes(monitoring, RELIABLE)
        assert deferred.replacements > 0
        for name in _RUN_FIELDS:
            assert getattr(deferred, name) == getattr(per_message, name), name

    @pytest.mark.parametrize("monitoring", ["ring", "gossip"])
    @pytest.mark.parametrize("transport", [RELIABLE, LOSSY_EDGE], ids=["reliable", "lossy"])
    def test_fixed_delay_runs_never_send_per_message(self, transport, monitoring, monkeypatch):
        # Heartbeat rounds, handler replies and searches alike: every
        # message of a fixed-delay channel is a record for ``send_batch``.
        def per_message(self, *args):
            raise AssertionError("a fixed-delay message took Transport.send")

        monkeypatch.setattr(Transport, "send", per_message)
        result = _online_run_with_crashes(monitoring, transport)
        assert result.messages > 0
        assert result.replacements > 0

    def test_checkpoint_mid_run_resumes_to_the_same_hash(self, tmp_path, monkeypatch):
        config, jobs = _service_config(LOSSY_EDGE)
        calls = _count_vector_draws(monkeypatch)
        full = run_service(config, jobs)
        assert calls
        partial, resumed = _resumed_from_mid_run(config, jobs, tmp_path)
        assert partial.interrupted and partial.jobs_total < full.jobs_total
        assert resumed.result_hash() == full.result_hash()
        assert resumed.fleet_digest == full.fleet_digest
        assert full.messages_dropped > 0

    def test_reliable_checkpoint_mid_run_resumes_to_the_same_hash(self, tmp_path, monkeypatch):
        config, jobs = _service_config(RELIABLE)
        flushed = _count_flushed_records(monkeypatch)
        full = run_service(config, jobs)
        assert flushed and max(flushed) > 1
        partial, resumed = _resumed_from_mid_run(config, jobs, tmp_path)
        assert partial.interrupted and partial.jobs_total < full.jobs_total
        assert resumed.result_hash() == full.result_hash()
        assert resumed.fleet_digest == full.fleet_digest
        monkeypatch.setattr(ReliableTransport, "deferred_latency", lambda self: None)
        per_message = run_service(config, jobs)
        assert per_message.result_hash() == full.result_hash()
        assert per_message.fleet_digest == full.fleet_digest
