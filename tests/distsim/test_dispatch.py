"""Handler dispatch: every delivery is one ``on_message`` call.

The network calls ``process.on_message(sender, message)`` itself, looked up
on the instance at delivery time, on every path: a flushed deferred-send
entry, a fixed-delay send outside the scope, and a single per-message
``Network.send`` on a variable-delay channel.  A
method patched onto the class after registration (how a profiler counts
handler calls by message type) therefore sees every delivery, and a
process with ``log_messages`` set still records each one.
"""

from __future__ import annotations

import pytest

from repro.distsim.engine import Simulator
from repro.distsim.failures import FailurePlan
from repro.distsim.network import Network
from repro.distsim.process import Process
from repro.distsim.transport import LatencyTransport, LossyTransport, ReliableTransport

IDS = ["p0", "p1", "p2", "p3"]


class Handler(Process):
    def on_message(self, sender, message):
        pass


class Silent(Handler):
    log_messages = False


def _build(transport, cls=Handler):
    net = Network(Simulator(), transport=transport, failure_plan=FailurePlan())
    procs = [cls(identity) for identity in IDS]
    net.register_all(procs)
    return net, procs


def _traffic(net, path):
    """Two broadcasts and a single send over ``path``; returns the sends."""
    sends = [("p0", ["p1", "p2", "p3"], "a"), ("p3", ["p0", "p1"], "b"), ("p2", ["p1"], "c")]

    def emit():
        for sender, targets, message in sends:
            if len(targets) == 1:
                net.send(sender, targets[0], message)
            else:
                net.send_many(sender, targets, message)

    if path == "flushed":
        with net.deferred_sends():
            assert net._deferred is not None
            emit()
    else:
        emit()
    return [
        (sender, target, message) for sender, targets, message in sends for target in targets
    ]


PATHS = {
    "flushed": lambda: ReliableTransport(0.1),
    "flushed-lossless-lossy": lambda: LossyTransport(loss=0.0, delay=0.1, seed=1),
    "unscoped": lambda: ReliableTransport(0.1),
    "per-message": lambda: LatencyTransport(delay=0.1, jitter=0.05, seed=3),
}


def _path(name):
    return "flushed" if name.startswith("flushed") else name


@pytest.mark.parametrize("name", sorted(PATHS))
def test_a_class_patch_after_registration_sees_every_delivery(name, monkeypatch):
    net, procs = _build(PATHS[name]())
    seen = []

    def patched(self, sender, message):
        seen.append((sender, self.identity, message))

    monkeypatch.setattr(Handler, "on_message", patched)
    expected = _traffic(net, _path(name))
    net.run_until_quiescent()
    assert sorted(seen) == sorted(expected)
    assert net.messages_delivered == len(seen) == net.simulator.stats.executed


@pytest.mark.parametrize("name", sorted(PATHS))
def test_an_instance_patch_is_called(name):
    net, procs = _build(PATHS[name]())
    seen = []
    procs[1].on_message = lambda sender, message: seen.append((sender, message))
    _traffic(net, _path(name))
    net.run_until_quiescent()
    assert sorted(seen) == [("p0", "a"), ("p2", "c"), ("p3", "b")]


@pytest.mark.parametrize("name", sorted(PATHS))
def test_message_log_records_every_delivery_when_enabled(name):
    net, procs = _build(PATHS[name]())
    expected = _traffic(net, _path(name))
    net.run_until_quiescent()
    for proc in procs:
        assert sorted(proc.message_log) == sorted(
            (sender, message) for sender, target, message in expected if target == proc.identity
        )


@pytest.mark.parametrize("name", sorted(PATHS))
def test_message_log_stays_empty_when_disabled(name, monkeypatch):
    net, procs = _build(PATHS[name](), cls=Silent)
    calls = []
    monkeypatch.setattr(Silent, "on_message", lambda self, s, m: calls.append(m))
    expected = _traffic(net, _path(name))
    net.run_until_quiescent()
    assert len(calls) == len(expected)
    assert all(proc.message_log == [] for proc in procs)


@pytest.mark.parametrize("name", sorted(PATHS))
def test_a_crashed_recipient_is_neither_logged_nor_called(name, monkeypatch):
    net, procs = _build(PATHS[name]())
    seen = []
    monkeypatch.setattr(Handler, "on_message", lambda self, s, m: seen.append(self.identity))
    _traffic(net, _path(name))
    net.failure_plan.crash("p1")  # after the send: dropped at delivery
    net.run_until_quiescent()
    assert procs[1].message_log == [] and "p1" not in seen
    assert net.messages_delivered == len(seen) == 3
    assert net.messages_dropped == 3
