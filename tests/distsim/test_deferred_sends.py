"""Deferred loss resolution: ``Network.deferred_sends`` on a lossy channel.

Inside the scope, a lossy transport's sends are recorded and resolved in
one ``drops_many`` call when the scope flushes; each broadcast's survivors
become one queue entry.  The contract is byte-identity with the
per-message path: the same deliveries in the same order, the same
counters, and the same stream state (the per-edge counters).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.distsim.transport as transport_module
from repro.api.service import ServiceConfig
from repro.core.online import run_online
from repro.distsim.engine import Simulator
from repro.distsim.failures import ChurnSpec, FailurePlan
from repro.distsim.network import Network
from repro.distsim.process import Process
from repro.distsim.transport import (
    CorruptingTransport,
    LossyTransport,
    ReliableTransport,
    RetransmitTransport,
    TransportSpec,
    _VECTOR_MIN_DRAWS,
    _edge_stream_rng,
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
        "edge_counts": dict(transport._edge_counts),
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
    @pytest.mark.parametrize("width", [1, _VECTOR_MIN_DRAWS - 1, _VECTOR_MIN_DRAWS, 300])
    def test_drops_many_equals_drops(self, width):
        rng = np.random.default_rng(width)
        sends = [
            (IDS[int(a)], IDS[int(b)], None) for a, b in rng.integers(0, len(IDS), (width, 2))
        ]
        bulk = LossyTransport(loss=0.4, seed=9)
        scalar = LossyTransport(loss=0.4, seed=9)
        bulk.drops_many(sends[:3])  # the stream continues across calls
        for sender, destination, message in sends[:3]:
            scalar.drops(sender, destination, message)
        assert bulk.drops_many(sends) == [scalar.drops(*send) for send in sends]
        assert bulk._edge_counts == scalar._edge_counts

    def test_vector_draws_are_the_edge_stream_generators(self):
        transport = LossyTransport(loss=0.5, seed=2**70 + 3)
        sends = [(("a", i % 3), ("b", i % 5), None) for i in range(64)]
        draws = transport._first_draws(sends)
        counts = {}
        for (sender, destination, _), draw in zip(sends, draws):
            counter = counts.get((sender, destination), 0)
            counts[(sender, destination)] = counter + 1
            rng = _edge_stream_rng(transport.seed, transport.salt, sender, destination, counter)
            assert draw == rng.random()


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

    def test_each_broadcast_is_one_queue_entry(self):
        net, _, _ = _network(LossyTransport(loss=0.0, delay=0.1, seed=1))
        with net.deferred_sends():
            net.send_many((0, 0), IDS[1:], "a")
            net.send_many((1, 1), IDS[:4], "b")
        queue = net.simulator.queue
        assert [len(bucket) for bucket in queue._buckets.values()] == [2]
        assert len(queue) == 8 + 4

    def test_failure_plan_is_not_asked_per_destination(self, monkeypatch):
        calls = []
        original = FailurePlan.should_drop

        def counting(self, *args):
            calls.append(args[1])
            return original(self, *args)

        monkeypatch.setattr(FailurePlan, "should_drop", counting)
        net, _, _ = _network(LossyTransport(loss=0.2, delay=0.1, seed=1))
        with net.deferred_sends():
            net.send_many((0, 0), IDS[1:], "a")
        assert calls == []
        net.send_many((0, 0), IDS[1:], "a")  # outside: the per-message path
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
        assert kinds == ["message", "timer", "message", "event", "message"]
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
            CorruptingTransport(rate=0.5, delay=0.1),
            RetransmitTransport(inner={"kind": "lossy", "params": {"loss": 0.3}}),
            type("Subclassed", (LossyTransport,), {})(loss=0.3),
        ],
        ids=["reliable", "corrupting", "retransmit", "lossy-subclass"],
    )
    def test_other_transports_keep_the_per_message_path(self, transport):
        net, _, _ = _network(transport)
        with net.deferred_sends():
            assert net._deferred is None
            assert net.simulator.before_push is None


LOSSY_EDGE = TransportSpec("lossy", {"loss": 0.1, "delay": 0.02, "seed": 3, "stream": "edge"})


def _count_vector_draws(monkeypatch):
    calls = []
    original = transport_module.first_uniforms

    def counting(words):
        calls.append(len(words))
        return original(words)

    monkeypatch.setattr(transport_module, "first_uniforms", counting)
    return calls


class TestRunsAreUnchanged:
    """Whole runs with the deferral equal runs forced onto the per-message path."""

    @pytest.mark.parametrize("monitoring", ["ring", "gossip"])
    def test_online_run_with_crashes(self, monitoring, monkeypatch):
        demand = build_family_demand("scale-up", {"side": 9, "per_point": 1})
        jobs = random_arrivals(demand, np.random.default_rng(0))

        def run():
            return run_online(
                jobs,
                omega=3.0,
                capacity="theorem",
                config=FleetConfig(monitoring=monitoring),
                recovery_rounds=2,
                dead_vehicles=[(0, 0), (0, 1), (4, 4)],
                transport=LOSSY_EDGE,
            )

        calls = _count_vector_draws(monkeypatch)
        deferred = run()
        assert calls and max(calls) >= _VECTOR_MIN_DRAWS  # the vectorized path ran
        monkeypatch.setattr(LossyTransport, "deferred_latency", lambda self: None)
        per_message = run()
        assert deferred.messages_dropped > 0
        assert deferred.replacements > 0
        for name in (
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
        ):
            assert getattr(deferred, name) == getattr(per_message, name), name

    def test_checkpoint_mid_run_resumes_to_the_same_hash(self, tmp_path, monkeypatch):
        demand = build_family_demand("scale-up", {"side": 9, "per_point": 1})
        jobs = list(random_arrivals(demand, np.random.default_rng(1)).jobs)
        config = ServiceConfig.from_demand(
            demand,
            omega=3.0,
            fleet=FleetConfig(monitoring="ring"),
            recovery_rounds=2,
            churn=(ChurnSpec(time=10.5, vertex=(4, 4), action="leave"),),
            transport=LOSSY_EDGE,
            window_jobs=20,
            checkpoint_every=1,
        )
        calls = _count_vector_draws(monkeypatch)
        full = run_service(config, jobs)
        assert calls
        snapshot = tmp_path / "snap.json"
        partial = run_service(
            config, jobs, checkpoint_path=str(snapshot), stop_after_checkpoints=2
        )
        assert partial.interrupted and partial.jobs_total < full.jobs_total
        resumed = resume_service(str(snapshot), jobs)
        assert resumed.result_hash() == full.result_hash()
        assert resumed.fleet_digest == full.fleet_digest
        assert full.messages_dropped > 0
