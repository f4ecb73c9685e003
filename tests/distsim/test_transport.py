"""Tests for the pluggable message-transport layer."""

from __future__ import annotations

import json
from typing import Any, Hashable, List

import pytest

from repro.distsim.engine import Simulator
from repro.distsim.network import Network
from repro.distsim.process import Process
from repro.distsim.transport import (
    TRANSPORT_KINDS,
    CorruptingTransport,
    LatencyTransport,
    LossyTransport,
    ReliableTransport,
    Transport,
    TransportSpec,
    available_transports,
    build_transport,
)
from repro.vehicles.messages import MoveMessage, QueryMessage, ReplyMessage


class Recorder(Process):
    def __init__(self, identity: Hashable) -> None:
        super().__init__(identity)
        self.received: List[Any] = []

    def on_message(self, sender: Hashable, message: Any) -> None:
        self.received.append((sender, message))


def _network(transport: Transport, identities=("a", "b")) -> Network:
    net = Network(transport=transport)
    net.register_all([Recorder(identity) for identity in identities])
    return net


class TestReliableTransport:
    def test_zero_delay_delivers_at_send_time(self):
        net = _network(ReliableTransport())
        net.send("a", "b", "hi")
        net.run_until_quiescent()
        assert net.process("b").received == [("a", "hi")]
        assert net.simulator.now == 0.0

    def test_fixed_delay(self):
        net = _network(ReliableTransport(delay=2.5))
        net.send("a", "b", "hi")
        net.run_until_quiescent()
        assert net.simulator.now == 2.5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ReliableTransport(delay=-1.0)


class TestLatencyTransport:
    def test_per_edge_delay_is_deterministic_and_stable(self):
        first = LatencyTransport(delay=0.1, jitter=0.5, seed=7)
        second = LatencyTransport(delay=0.1, jitter=0.5, seed=7)
        for transport in (first, second):
            transport.bind(Simulator())
        edges = [("a", "b"), ("b", "a"), ((0, 0), (1, 0))]
        assert [first.latency(s, d, None) for s, d in edges] == [
            second.latency(s, d, None) for s, d in edges
        ]
        # Independent of call order and of message content.
        assert first.latency("a", "b", "x") == first.latency("a", "b", "y")

    def test_different_edges_and_seeds_get_different_delays(self):
        transport = LatencyTransport(delay=0.0, jitter=1.0, seed=0)
        other_seed = LatencyTransport(delay=0.0, jitter=1.0, seed=1)
        assert transport.latency("a", "b", None) != transport.latency("b", "a", None)
        assert transport.latency("a", "b", None) != other_seed.latency("a", "b", None)

    def test_delay_bounded_by_floor_and_jitter(self):
        transport = LatencyTransport(delay=0.2, jitter=0.3, seed=5)
        for edge in [((i, 0), (0, i)) for i in range(20)]:
            delay = transport.latency(edge[0], edge[1], None)
            assert 0.2 <= delay < 0.5

    def test_fifo_survives_jitter(self):
        net = _network(LatencyTransport(delay=0.0, jitter=1.0, seed=3))
        for i in range(20):
            net.send("a", "b", i)
        net.run_until_quiescent()
        assert [m for _, m in net.process("b").received] == list(range(20))


class TestLossyTransport:
    def test_zero_loss_delivers_everything(self):
        net = _network(LossyTransport(loss=0.0))
        for i in range(30):
            net.send("a", "b", i)
        net.run_until_quiescent()
        assert len(net.process("b").received) == 30
        assert net.messages_dropped == 0

    def test_total_loss_delivers_nothing(self):
        net = _network(LossyTransport(loss=1.0))
        for i in range(10):
            net.send("a", "b", i)
        net.run_until_quiescent()
        assert net.process("b").received == []
        assert net.messages_dropped == 10
        assert net.transport.messages_dropped == 10

    def test_seeded_loss_is_deterministic(self):
        def deliveries(seed: int) -> List[int]:
            net = _network(LossyTransport(loss=0.4, seed=seed))
            for i in range(50):
                net.send("a", "b", i)
            net.run_until_quiescent()
            return [m for _, m in net.process("b").received]

        first = deliveries(11)
        assert first == deliveries(11)
        assert first != deliveries(12)
        assert 0 < len(first) < 50

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            LossyTransport(loss=1.5)


class TestCorruptingTransport:
    def _protocol_messages(self) -> List[Any]:
        tag = ((0, 0), 1)
        return [
            QueryMessage(tag, (0, 0), (1, 1), (2, 2)),
            ReplyMessage(tag, (1, 1), True),
            MoveMessage(tag, (0, 0), (1, 1), (2, 2)),
        ]

    def test_only_protocol_messages_are_corrupted(self):
        transport = CorruptingTransport(rate=1.0, seed=0)
        transport.bind(Simulator())
        assert transport.mutate("a", "b", "heartbeat") == "heartbeat"
        for message in self._protocol_messages():
            mutated = transport.mutate("a", "b", message)
            assert type(mutated) is type(message)
            assert mutated != message

    def test_mutations_preserve_field_types(self):
        transport = CorruptingTransport(rate=1.0, seed=42)
        transport.bind(Simulator())
        for _ in range(50):
            for message in self._protocol_messages():
                mutated = transport.mutate("a", "b", message)
                initiator, round_id = mutated.tag
                assert isinstance(round_id, int)
                if isinstance(mutated, ReplyMessage):
                    assert isinstance(mutated.flag, bool)
                else:
                    assert all(isinstance(c, int) for c in mutated.destination)
                    assert all(isinstance(c, int) for c in mutated.pair_key)

    def test_zero_rate_never_corrupts(self):
        transport = CorruptingTransport(rate=0.0, seed=0)
        transport.bind(Simulator())
        for message in self._protocol_messages():
            assert transport.mutate("a", "b", message) is message

    def test_corruption_counter_tracks_mutations(self):
        net = _network(CorruptingTransport(rate=1.0, seed=1), identities=[(0, 0), (1, 1)])
        tag = ((0, 0), 1)
        net.send((0, 0), (1, 1), ReplyMessage(tag, (0, 0), True))
        net.run_until_quiescent()
        assert net.transport.messages_corrupted == 1
        ((_, delivered),) = net.process((1, 1)).received
        assert isinstance(delivered, ReplyMessage)


class TestTransportSpec:
    def test_round_trips_through_json(self):
        for kind in available_transports():
            spec = TransportSpec(kind=kind)
            restored = TransportSpec.from_json(json.loads(json.dumps(spec.to_json())))
            assert restored == spec

    def test_params_round_trip_and_normalize(self):
        spec = TransportSpec("lossy", {"seed": 3, "loss": 0.25})
        assert spec.params == (("loss", 0.25), ("seed", 3))
        restored = TransportSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.build().loss == 0.25

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown transport kind"):
            TransportSpec("warp-drive")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            TransportSpec("reliable", {"loss": 0.5})

    def test_invalid_param_value_rejected_eagerly(self):
        with pytest.raises(ValueError, match="probability"):
            TransportSpec("lossy", {"loss": 2.0})

    def test_junk_typed_params_raise_value_error_not_type_error(self):
        # The CLI and config layers catch ValueError only; junk params must
        # never escape as TypeError tracebacks.
        with pytest.raises(ValueError):
            TransportSpec("lossy", {"loss": "abc"})
        with pytest.raises(ValueError):
            TransportSpec("latency", {"delay": [1, 2]})
        with pytest.raises(ValueError):
            TransportSpec("corrupting", {"rate": "high"})

    def test_huge_latency_seed_is_valid(self):
        spec = TransportSpec("latency", {"seed": 2**63, "jitter": 1.0})
        transport = spec.build()
        delay = transport.latency("a", "b", None)
        assert 0.0 <= delay < transport.delay + transport.jitter

    def test_build_returns_fresh_instances(self):
        spec = TransportSpec("lossy", {"loss": 0.5, "seed": 1})
        assert spec.build() is not spec.build()

    def test_build_transport_resolution(self):
        assert build_transport(None) is None
        assert isinstance(build_transport("latency"), LatencyTransport)
        assert isinstance(build_transport(TransportSpec("lossy")), LossyTransport)
        instance = ReliableTransport()
        assert build_transport(instance) is instance
        with pytest.raises(TypeError):
            build_transport(42)


class TestTransportOwnership:
    def test_unbound_transport_cannot_send(self):
        transport = ReliableTransport()
        with pytest.raises(RuntimeError, match="not bound"):
            transport.send("a", "b", "hi", lambda m: None)

    def test_bind_resets_fifo_state(self):
        transport = ReliableTransport(delay=1.0)
        sim = Simulator()
        transport.bind(sim)
        transport.send("a", "b", "x", lambda m: None)
        assert transport._last_delivery
        transport.bind(Simulator())
        assert not transport._last_delivery

    def test_rebinding_rewinds_counters_and_streams(self):
        """A transport instance reused across runs must reproduce a fresh
        run bit for bit: counters zeroed, seeded streams rewound."""
        transport = LossyTransport(loss=0.4, seed=7)

        def run() -> tuple:
            net = Network(transport=transport)
            net.register_all([Recorder("a"), Recorder("b")])
            for i in range(40):
                net.send("a", "b", i)
            net.run_until_quiescent()
            return (
                [m for _, m in net.process("b").received],
                transport.messages_dropped,
            )

        first = run()
        second = run()
        assert first == second
        assert 0 < len(first[0]) < 40


class TestDistanceLatencyTransport:
    def test_delay_grows_with_manhattan_distance(self):
        from repro.distsim.transport import DistanceLatencyTransport

        transport = DistanceLatencyTransport(delay=0.01, per_step=0.002)
        near = transport.latency((0, 0), (1, 0), "m")
        far = transport.latency((0, 0), (5, 5), "m")
        assert near == pytest.approx(0.012)
        assert far == pytest.approx(0.01 + 0.002 * 10)

    def test_non_lattice_identities_pay_only_the_floor(self):
        from repro.distsim.transport import DistanceLatencyTransport

        transport = DistanceLatencyTransport(delay=0.01, per_step=0.002)
        assert transport.latency("alice", "bob", "m") == pytest.approx(0.01)
        assert transport.latency((0, 0), "bob", "m") == pytest.approx(0.01)

    def test_pure_function_of_the_edge(self):
        from repro.distsim.transport import DistanceLatencyTransport

        transport = DistanceLatencyTransport()
        first = [transport.latency((0, 0), (3, 1), i) for i in range(5)]
        assert len(set(first)) == 1  # no stream state consumed

    def test_negative_parameters_rejected(self):
        from repro.distsim.transport import DistanceLatencyTransport

        with pytest.raises(ValueError):
            DistanceLatencyTransport(delay=-0.1)
        with pytest.raises(ValueError):
            DistanceLatencyTransport(per_step=-0.1)

    def test_spec_round_trip(self):
        spec = TransportSpec("distance-latency", {"delay": 0.02, "per_step": 0.001})
        restored = TransportSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert restored == spec
        assert restored.build().per_step == pytest.approx(0.001)


class TestRetransmitTransport:
    def _lossy_inner(self, loss=0.5, seed=1):
        return {"kind": "lossy", "params": {"loss": loss, "seed": seed}}

    def test_wraps_loss_down_to_the_power_of_attempts(self):
        from repro.distsim.transport import RetransmitTransport

        simulator = Simulator()
        transport = RetransmitTransport(
            inner=self._lossy_inner(loss=0.5, seed=3), retries=3, timeout=0.1
        ).bind(simulator)
        sends = 2000
        delivered = sum(
            0 if transport.drops("a", "b", i) else 1 for i in range(sends)
        )
        # End-to-end loss 0.5^4 = 6.25%; allow generous sampling slack.
        assert delivered / sends > 0.9

    def test_lost_attempts_charge_timeout_latency(self):
        from repro.distsim.transport import RetransmitTransport

        simulator = Simulator()
        transport = RetransmitTransport(
            inner=self._lossy_inner(loss=0.7, seed=5), retries=5, timeout=0.25
        ).bind(simulator)
        for message in range(50):
            if not transport.drops("a", "b", message):
                wait = transport.latency("a", "b", message)
                # Each lost attempt before success costs one timeout.
                assert wait == pytest.approx((wait // 0.25) * 0.25, abs=1e-9)
        assert transport.retransmissions > 0

    def test_reliable_inner_is_a_noop(self):
        from repro.distsim.transport import RetransmitTransport

        simulator = Simulator()
        transport = RetransmitTransport(retries=3, timeout=0.1).bind(simulator)
        assert not transport.drops("a", "b", "m")
        assert transport.latency("a", "b", "m") == 0.0
        assert transport.retransmissions == 0

    def test_a_retried_message_is_not_overtaken_on_its_link(self):
        # Seed 3 loses the link's first draw and keeps the next two: the
        # first message is retried once and pays one timeout, the second
        # goes through at its first attempt, and the per-link FIFO clamp
        # holds it back to the first one's delivery time.
        from repro.distsim.transport import RetransmitTransport

        transport = RetransmitTransport(
            inner=self._lossy_inner(loss=0.5, seed=3), retries=3, timeout=1.0
        )
        net = _network(transport)
        arrivals = []
        net.process("b").on_message = lambda sender, message: arrivals.append(
            (net.simulator.now, message)
        )
        net.send("a", "b", "first")
        net.send("a", "b", "second")
        net.run_until_quiescent()
        assert transport.retransmissions == 1
        assert arrivals == [(1.0, "first"), (1.0, "second")]

    def test_bind_rewinds_the_inner_stream(self):
        from repro.distsim.transport import RetransmitTransport

        transport = RetransmitTransport(
            inner=self._lossy_inner(loss=0.5, seed=9), retries=1, timeout=0.1
        )
        first = [transport.bind(Simulator()).drops("a", "b", i) for i in range(64)]
        second = [transport.bind(Simulator()).drops("a", "b", i) for i in range(64)]
        assert first == second

    def test_invalid_parameters_rejected(self):
        from repro.distsim.transport import RetransmitTransport

        with pytest.raises(ValueError):
            RetransmitTransport(retries=-1)
        with pytest.raises(ValueError):
            RetransmitTransport(timeout=0.0)
        with pytest.raises(ValueError):
            TransportSpec("retransmit", {"retries": -2})

    def test_nested_spec_round_trip_and_hashability(self):
        spec = TransportSpec(
            "retransmit",
            {
                "inner": {"kind": "lossy", "params": {"loss": 0.3, "seed": 4}},
                "retries": 2,
                "timeout": 0.2,
            },
        )
        restored = TransportSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert restored == spec
        assert hash(restored) == hash(spec)
        built = restored.build()
        assert built.inner.kind == "lossy"

    def test_mutation_delegates_to_the_inner_transport(self):
        from repro.distsim.transport import RetransmitTransport

        simulator = Simulator()
        transport = RetransmitTransport(
            inner={"kind": "corrupting", "params": {"rate": 1.0, "seed": 2}},
            retries=0,
            timeout=0.1,
        ).bind(simulator)
        message = ReplyMessage(((0, 0), 1), (0, 0), True)
        mutated = transport.mutate("a", "b", message)
        assert isinstance(mutated, ReplyMessage)
        assert mutated != message


class TestEdgeKeyedStreams:
    """Seeded draws are keyed per edge, independent of interleaving.

    Each draw derives from ``(edge, purpose, seed, per-edge counter)``, so
    per-shard sub-fleets reproduce the single-process decisions exactly --
    the property the multi-process parallel lockstep engine is built on.
    """

    EDGES = [("a", "b"), ("c", "d"), ((0, 0), (3, 1))]

    @pytest.mark.parametrize("kind", ["lossy", "corrupting"])
    def test_global_stream_is_rejected(self, kind):
        with pytest.raises(ValueError, match="global stream was removed"):
            TransportSpec(kind, {"stream": "global"})
        with pytest.raises(ValueError, match="global stream was removed"):
            TRANSPORT_KINDS[kind][0](stream="global")

    def test_invalid_stream_rejected(self):
        with pytest.raises(ValueError, match="stream"):
            LossyTransport(stream="per-edge")
        with pytest.raises(ValueError, match="stream"):
            CorruptingTransport(stream="shard")

    def _decisions(self, transport, schedule):
        """Run ``drops`` over (edge, count) bursts; return per-edge sequences."""
        out = {edge: [] for edge in self.EDGES}
        for edge, count in schedule:
            for _ in range(count):
                out[edge].append(transport.drops(edge[0], edge[1], None))
        return out

    def test_edge_stream_is_interleaving_independent(self):
        round_robin = [(edge, 1) for _ in range(10) for edge in self.EDGES]
        batched = [(edge, 10) for edge in self.EDGES]
        first = self._decisions(LossyTransport(loss=0.4, seed=9), round_robin)
        second = self._decisions(LossyTransport(loss=0.4, seed=9), batched)
        assert first == second
        assert any(any(seq) for seq in first.values())  # some drops happened

    def test_spec_naming_the_edge_stream_still_builds(self):
        # Saved configs name the stream explicitly; they draw exactly what
        # a spec without the key draws.
        spec = TransportSpec("lossy", {"loss": 0.2, "seed": 7, "stream": "edge"})
        restored = TransportSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert restored == spec
        schedule = [(edge, 6) for edge in self.EDGES]
        plain = TransportSpec("lossy", {"loss": 0.2, "seed": 7})
        assert self._decisions(restored.build(), schedule) == self._decisions(
            plain.build(), schedule
        )
        TransportSpec("corrupting", {"rate": 0.5, "stream": "edge"}).build()

    def test_stream_state_round_trip(self):
        transport = LossyTransport(loss=0.4, seed=9)
        prefix = [(edge, 5) for edge in self.EDGES]
        self._decisions(transport, prefix)
        state = json.loads(json.dumps(transport.stream_state()))

        resumed = LossyTransport(loss=0.4, seed=9)
        resumed.restore_stream_state(state)
        tail = [(edge, 5) for edge in self.EDGES]
        assert self._decisions(resumed, tail) == self._decisions(transport, tail)

    def test_fresh_stream_state_is_empty(self):
        assert LossyTransport().stream_state() == {"edge_counts": []}
        assert CorruptingTransport().stream_state() == {"edge_counts": []}

    def test_corrupting_edge_stream_interleaving_independent(self):
        tag = ((0, 0), 1)

        def mutations(order):
            transport = CorruptingTransport(rate=1.0, seed=4)
            transport.bind(Simulator())
            out = {}
            for edge in order:
                message = ReplyMessage(tag, (0, 0), True)
                out.setdefault(edge, []).append(
                    transport.mutate(edge[0], edge[1], message)
                )
            return out

        forward = mutations([("a", "b"), ("c", "d"), ("a", "b"), ("c", "d")])
        reversed_ = mutations([("c", "d"), ("c", "d"), ("a", "b"), ("a", "b")])
        assert forward == reversed_

    def test_corrupting_counter_skips_non_protocol_messages(self):
        transport = CorruptingTransport(rate=1.0, seed=4)
        transport.bind(Simulator())
        transport.mutate("a", "b", "heartbeat")
        assert transport.stream_state() == {"edge_counts": []}
        transport.mutate("a", "b", ReplyMessage(((0, 0), 1), (0, 0), True))
        assert transport.stream_state() == {"edge_counts": [[["a", "b"], 1]]}
