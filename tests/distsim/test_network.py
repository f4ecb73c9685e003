"""Tests for the FIFO message-passing network layer."""

from __future__ import annotations

from typing import Any, Hashable, List

import pytest

from repro.distsim.engine import Simulator
from repro.distsim.failures import FailurePlan
from repro.distsim.network import Network
from repro.distsim.process import Process


class Recorder(Process):
    """A process that records every message it receives."""

    def __init__(self, identity: Hashable) -> None:
        super().__init__(identity)
        self.received: List[Any] = []
        self.started = False

    def on_start(self) -> None:
        self.started = True

    def on_message(self, sender: Hashable, message: Any) -> None:
        self.received.append((sender, message))


class Echo(Process):
    """A process that replies to every message with an acknowledgement."""

    def on_message(self, sender: Hashable, message: Any) -> None:
        if message != "ack":
            self.send(sender, "ack")


class TestRegistration:
    def test_register_and_lookup(self):
        net = Network()
        proc = Recorder("a")
        net.register(proc)
        assert net.process("a") is proc
        assert "a" in net
        assert "b" not in net

    def test_duplicate_identity_rejected(self):
        net = Network()
        net.register(Recorder("a"))
        with pytest.raises(ValueError):
            net.register(Recorder("a"))

    def test_register_all_and_start(self):
        net = Network()
        procs = [Recorder(i) for i in range(3)]
        net.register_all(procs)
        net.start()
        assert all(p.started for p in procs)

    def test_send_before_attach_raises(self):
        proc = Recorder("lonely")
        with pytest.raises(RuntimeError):
            proc.send("other", "hi")

    def test_unknown_destination_rejected(self):
        net = Network()
        net.register(Recorder("a"))
        with pytest.raises(KeyError):
            net.send("a", "missing", "hi")


class TestDelivery:
    def test_message_delivered(self):
        net = Network(delay=1.0)
        a, b = Recorder("a"), Recorder("b")
        net.register_all([a, b])
        net.send("a", "b", "hello")
        net.run_until_quiescent()
        assert b.received == [("a", "hello")]
        assert net.messages_sent == 1
        assert net.messages_delivered == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Network(delay=-1.0)

    def test_request_reply_conversation(self):
        net = Network(delay=0.5)
        a, b = Recorder("a"), Echo("b")
        net.register_all([a, b])
        net.send("a", "b", "ping")
        net.run_until_quiescent()
        assert a.received == [("b", "ack")]

    def test_message_log_kept_on_process(self):
        net = Network()
        a, b = Recorder("a"), Recorder("b")
        net.register_all([a, b])
        net.send("a", "b", "x")
        net.run_until_quiescent()
        assert b.message_log == [("a", "x")]


class TestFailures:
    def test_crashed_destination_drops_messages(self):
        plan = FailurePlan()
        net = Network(failure_plan=plan)
        a, b = Recorder("a"), Recorder("b")
        net.register_all([a, b])
        plan.crash("b")
        net.send("a", "b", "lost")
        net.run_until_quiescent()
        assert b.received == []
        assert net.messages_dropped == 1

    def test_crashed_sender_drops_messages(self):
        plan = FailurePlan()
        net = Network(failure_plan=plan)
        a, b = Recorder("a"), Recorder("b")
        net.register_all([a, b])
        plan.crash("a")
        net.send("a", "b", "lost")
        net.run_until_quiescent()
        assert b.received == []

    def test_crash_after_send_before_delivery(self):
        plan = FailurePlan()
        net = Network(delay=5.0, failure_plan=plan)
        a, b = Recorder("a"), Recorder("b")
        net.register_all([a, b])
        net.send("a", "b", "in-flight")
        plan.crash("b")
        net.run_until_quiescent()
        assert b.received == []

    def test_drop_rule(self):
        plan = FailurePlan()
        plan.add_drop_rule(lambda s, d, m: m == "secret")
        net = Network(failure_plan=plan)
        a, b = Recorder("a"), Recorder("b")
        net.register_all([a, b])
        net.send("a", "b", "secret")
        net.send("a", "b", "public")
        net.run_until_quiescent()
        assert [m for _, m in b.received] == ["public"]

    def test_crashed_process_not_started(self):
        plan = FailurePlan()
        plan.crash("a")
        net = Network(failure_plan=plan)
        a = Recorder("a")
        net.register(a)
        net.start()
        assert not a.started

    def test_initiation_suppression_flag(self):
        plan = FailurePlan()
        plan.suppress_initiation("x")
        assert plan.is_initiation_suppressed("x")
        assert not plan.is_initiation_suppressed("y")
