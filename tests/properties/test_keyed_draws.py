"""The counter-based keyed draw behaves like independent uniforms.

Every seeded choice of a run -- loss, corruption, per-edge jitter, gossip
peers -- is the keyed mix of :mod:`repro.distsim.keyed`, evaluated on
Python ints for a single send and on whole arrays for a heartbeat round.
These tests pin the two spellings equal and check the statistics the
protocol relies on: the loss rate is the configured one, and draws of
different edges, counters and purposes are independent.  All inputs are
fixed, so each statistical bound is a deterministic check with a wide
(five-sigma) margin, not a flaky sample.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsim.keyed import (
    MASK,
    IdentityKeys,
    coordinate_keys,
    fmix64,
    identity_key,
    mix,
    stream_root,
    unit,
)
import repro.distsim.transport as transport_module
from repro.distsim.transport import (
    _ARRAY_DRAWS,
    _CORRUPT_SALT,
    _LOSS_SALT,
    CorruptingTransport,
    LatencyTransport,
    LossyTransport,
)
from repro.vehicles.gossip import peer_draws, peer_indices
from repro.vehicles.messages import MoveMessage, QueryMessage, ReplyMessage

N = 20_000
#: Five standard errors of a correlation coefficient over ``N`` pairs.
CORRELATION_BOUND = 5 / np.sqrt(N)


def _edge_draws(root, sender, destination, counters):
    keys = IdentityKeys()
    return unit(mix(root, keys[sender], keys[destination], np.asarray(counters, np.uint64)))


#: Up to 108 draws of repeated edges between lattice and non-lattice
#: identities.
_RECORDS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", (0, 1), (2, 2)]),
        st.lists(st.sampled_from(["a", "b", "c", (0, 1), (2, 2)]), max_size=9),
    ),
    max_size=12,
)


def _correlation(a, b):
    return float(np.corrcoef(a, b)[0, 1])


class TestSpellingsAgree:
    @settings(max_examples=200, deadline=None)
    @given(words=st.lists(st.integers(0, MASK), min_size=1, max_size=5))
    def test_python_ints_and_arrays_give_the_same_bits(self, words):
        state = mix(stream_root(7, 3), *words)
        arrays = [np.array([word], dtype=np.uint64) for word in words]
        assert int(mix(stream_root(7, 3), *arrays)[0]) == state
        assert float(unit(np.array([state], dtype=np.uint64))[0]) == unit(state)
        assert fmix64(np.array(words, dtype=np.uint64)).tolist() == [fmix64(w) for w in words]

    @settings(max_examples=200, deadline=None)
    @given(
        points=st.lists(
            st.tuples(st.integers(-(2**40), 2**40), st.integers(-(2**40), 2**40)),
            min_size=1,
            max_size=20,
        )
    )
    def test_coordinate_keys_are_the_identity_keys(self, points):
        keys = coordinate_keys(np.array(points, dtype=np.int64))
        assert keys.tolist() == [identity_key(point) for point in points]

    def test_any_hashable_has_a_stable_key(self):
        # Non-lattice identities key on their ``repr``: stable across
        # processes, and distinct from the lattice point they resemble.
        assert identity_key("a") == identity_key("a") != identity_key("b")
        assert identity_key((1.0, 2.0)) != identity_key((1, 2))
        assert identity_key((1, 2)) != identity_key((2, 1)) != identity_key((1, 2, 0))
        # Equal lattice points key equally whatever their integer type, so
        # a memo keyed by identity cannot depend on which form came first.
        assert identity_key((np.int64(1), np.int32(2))) == identity_key((1, 2))

    def test_the_mix_is_fixed(self):
        # Changing any of these re-draws every seeded run.
        assert identity_key("a") == 0x12885E31E75A6153
        assert identity_key((1, 2)) == 0x0C0266261F3A0C53
        assert mix(stream_root(0, 0), 1, 2, 3) == 0x01BECD8257D754CC

    @settings(max_examples=100, deadline=None)
    @given(records=_RECORDS, split=st.integers(0, 12))
    def test_slot_draws_are_the_keyed_mix(self, records, split):
        # The reference loop: an edge's n-th draw is the full keyed mix of
        # the edge and n, whatever the slot table premixes.
        transport = LossyTransport(seed=2**70 + 3)
        keys = IdentityKeys()
        counters = {}
        expected = []
        for sender, targets in records:
            for target in targets:
                counter = counters.get((sender, target), 0)
                counters[(sender, target)] = counter + 1
                expected.append(mix(transport._root, keys[sender], keys[target], counter))
        words = []
        for part in (records[:split], records[split:]):
            part_records = [(sender, targets, None) for sender, targets in part]
            words.extend(transport._slots.draws(part_records).tolist())
        assert words == expected

    @settings(max_examples=100, deadline=None)
    @given(records=_RECORDS, split=st.integers(0, 12), loss=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    def test_drops_many_equals_drops(self, records, split, loss):
        # Up to 108 draws per call: record sets on both sides of the
        # array cutoff.
        bulk = LossyTransport(loss=loss, seed=2**70 + 3)
        scalar = LossyTransport(loss=loss, seed=2**70 + 3)
        flat = []
        # Two calls: the stream continues across flushes.
        for part in (records[:split], records[split:]):
            lost = bulk.drops_many([(sender, targets, None) for sender, targets in part])
            draws = sum(len(targets) for _, targets in part)
            flat.extend(position in lost for position in range(draws))
        expected = [
            scalar.drops(sender, target, None) for sender, targets in records for target in targets
        ]
        assert flat == expected
        assert bulk.stream_state() == scalar.stream_state()

    @pytest.mark.parametrize("draws", [1, _ARRAY_DRAWS - 1, _ARRAY_DRAWS, 3 * _ARRAY_DRAWS])
    def test_array_cutoff_picks_the_spelling_not_the_draws(self, draws, monkeypatch):
        array_calls = []
        original = transport_module._EdgeSlots.draws

        def spying(self, records):
            words = original(self, records)
            array_calls.append(len(words))
            return words

        monkeypatch.setattr(transport_module._EdgeSlots, "draws", spying)
        targets = ["b", "c", (0, 1)] * draws
        records = [("a", targets[:draws], None)]
        bulk = LossyTransport(loss=0.5, seed=11)
        lost = bulk.drops_many(records)
        assert array_calls == ([draws] if draws >= _ARRAY_DRAWS else [])
        scalar = LossyTransport(loss=0.5, seed=11)
        assert lost == [
            position
            for position, target in enumerate(targets[:draws])
            if scalar.drops("a", target, None)
        ]

    def test_latency_jitter_is_the_edge_draw_at_counter_zero(self):
        transport = LatencyTransport(delay=0.5, jitter=2.0, seed=9)
        root = transport._root
        expected = 0.5 + 2.0 * _edge_draws(root, (0, 0), (0, 1), [0])[0]
        assert transport.latency((0, 0), (0, 1), None) == expected


class TestLossRate:
    def test_empirical_loss_rate_is_inside_the_binomial_interval(self):
        senders = [(x, y) for x in range(10) for y in range(10)]
        for loss in (0.05, 0.15, 0.5):
            transport = LossyTransport(loss=loss, seed=3)
            records = [(sender, senders[:20], None) for sender in senders] * 10
            lost = transport.drops_many(records)
            n = len(records) * 20
            sigma = np.sqrt(n * loss * (1 - loss))
            assert abs(len(lost) - n * loss) < 5 * sigma, loss

    @pytest.mark.parametrize("draws", [2, 100])
    def test_extreme_rates_are_exact(self, draws):
        records = [("a", ["b", "c"] * (draws // 2), None)]
        assert LossyTransport(loss=0.0).drops_many(records) == []
        assert LossyTransport(loss=1.0).drops_many(records) == list(range(draws))

    def test_draws_are_uniform(self):
        draws = _edge_draws(stream_root(0, _LOSS_SALT), (0, 0), (0, 1), range(N))
        counts = np.bincount((draws * 20).astype(int), minlength=20)
        expected = N / 20
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 60  # 19 degrees of freedom: p < 1e-5 beyond this


class TestIndependence:
    ROOT = stream_root(3, _LOSS_SALT)

    def test_across_edges(self):
        base = _edge_draws(self.ROOT, (0, 0), (0, 1), range(N))
        for sender, destination in [((0, 1), (0, 0)), ((0, 0), (1, 0)), ((5, 5), (0, 1))]:
            other = _edge_draws(self.ROOT, sender, destination, range(N))
            assert abs(_correlation(base, other)) < CORRELATION_BOUND

    def test_across_counters(self):
        draws = _edge_draws(self.ROOT, (0, 0), (0, 1), range(N + 1))
        assert abs(_correlation(draws[:-1], draws[1:])) < CORRELATION_BOUND
        # Consecutive losses at 15%: the joint rate is the product.
        lost = draws < 0.15
        both = float((lost[:-1] & lost[1:]).mean())
        assert abs(both - 0.15**2) < 5 * np.sqrt(0.15**2 * (1 - 0.15**2) / N)

    def test_across_salts_and_seeds(self):
        loss = _edge_draws(self.ROOT, (0, 0), (0, 1), range(N))
        for root in (stream_root(3, _CORRUPT_SALT), stream_root(4, _LOSS_SALT)):
            other = _edge_draws(root, (0, 0), (0, 1), range(N))
            assert abs(_correlation(loss, other)) < CORRELATION_BOUND

    def test_across_corruption_draw_indices(self):
        transport = CorruptingTransport(rate=1.0, seed=4)
        states = np.array(
            [transport._draw_state((0, 0), (0, 1)) for _ in range(N)], dtype=np.uint64
        )
        first, second = unit(mix(states, 0)), unit(mix(states, 1))
        assert abs(_correlation(first, second)) < CORRELATION_BOUND

    def test_gossip_slots_and_vehicles(self):
        keys = coordinate_keys(np.array([(x, y) for x in range(100) for y in range(100)]))
        draws = peer_draws(keys, [7] * len(keys), 2)
        assert abs(_correlation(draws[:, 0], draws[:, 1])) < 5 / np.sqrt(len(keys))
        assert abs(_correlation(draws[:-1, 0], draws[1:, 0])) < 5 / np.sqrt(len(keys))


#: A heartbeat-shaped neighbourhood: every point of a 3x3 block.
_BLOCK = [(x, y) for x in range(3) for y in range(3)]


def _loss_calls():
    """A fixed sequence of ``drops_many`` calls (``None`` is one scalar
    ``drops``) on both sides of the array cutoff.  The fourth and sixth
    calls repeat edges inside one array-sized flush (a heartbeat, then a
    digest and a suspicion to the same peer), and the fourth mixes in
    non-lattice identities."""
    peers = {point: [p for p in _BLOCK if p != point] for point in _BLOCK}
    heartbeat = [(point, peers[point], None) for point in _BLOCK]
    return [
        [("a", ["b", "c"], None), ((0, 0), [(0, 1)], None)],
        heartbeat,
        None,
        heartbeat[:4]
        + [((0, 0), [(0, 1), (2, 2)], None), ((0, 0), [(0, 1)], None)]
        + [("a", ["b", (1, 1), "c"], None)],
        [((1, 1), [(0, 0)], None)],
        heartbeat + [((2, 2), [(0, 0), (0, 0)], None)],
    ]


def _run_loss_calls(transport, calls):
    decisions = []
    for call in calls:
        if call is None:
            decisions.append(transport.drops((0, 0), (0, 1), None))
        else:
            decisions.append(transport.drops_many(call))
    return decisions


def _corruption_sends():
    """A fixed send sequence for :class:`CorruptingTransport`: protocol
    messages advance their edge's counter, a heartbeat does not."""
    tag = ((0, 0), 1)
    sends = []
    for step in range(40):
        sender, destination = _BLOCK[step % 9], _BLOCK[(step * 4 + 1) % 9]
        message = (
            QueryMessage(tag, sender, (1, 1), (2, 2)),
            ReplyMessage(tag, sender, step % 2 == 0),
            MoveMessage(tag, sender, (0, 2), (2, 0)),
            "heartbeat",
        )[step % 4]
        sends.append((sender, destination, message))
    return sends


def _run_corruption_sends(transport, sends):
    decisions = []
    for sender, destination, message in sends:
        delivered = transport.mutate(sender, destination, message)
        decisions.append(
            [
                transport.drops(sender, destination, message),
                type(delivered).__name__,
                list(astuple(delivered)) if delivered is not message else None,
            ]
        )
    return decisions


def _resumed(transport, build):
    fresh = build()
    fresh.restore_stream_state(json.loads(json.dumps(transport.stream_state())))
    return fresh


class TestStreamsAcrossARestore:
    """A JSON round trip of ``stream_state()`` continues every edge stream,
    on the scalar and the array spelling alike.  The digest pins the
    decisions and the final state: any change to how draws are computed
    or counters advance moves it."""

    LOSS_DIGEST = "3a8cf1db980d2e33c1ee3e53ad1a3a940bf8a4400d0ec336b8ea0aeb8e8c5d13"
    CORRUPTION_DIGEST = "f7af437949029a54f081f18a13bb3406df16b6126788c8b816af034af85d5ca6"

    @staticmethod
    def _digest(decisions, transport):
        blob = json.dumps([decisions, transport.stream_state()], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def test_loss_draws(self):
        calls = _loss_calls()
        assert any(c is not None and sum(len(t) for _, t, _ in c) >= _ARRAY_DRAWS for c in calls)

        def build():
            return LossyTransport(loss=0.3, seed=5)

        whole = build()
        expected = _run_loss_calls(whole, calls)
        for cut in range(1, len(calls)):
            before = build()
            head = _run_loss_calls(before, calls[:cut])
            after = _resumed(before, build)
            assert head + _run_loss_calls(after, calls[cut:]) == expected, cut
            assert after.stream_state() == whole.stream_state()
        assert self._digest(expected, whole) == self.LOSS_DIGEST

    def test_corruption_draws(self):
        sends = _corruption_sends()

        def build():
            return CorruptingTransport(rate=0.5, seed=6)

        whole = build()
        expected = _run_corruption_sends(whole, sends)
        assert any(corrupted for _, _, corrupted in expected)
        before = build()
        head = _run_corruption_sends(before, sends[:17])
        after = _resumed(before, build)
        assert head + _run_corruption_sends(after, sends[17:]) == expected
        assert after.stream_state() == whole.stream_state()
        assert self._digest(expected, whole) == self.CORRUPTION_DIGEST


class TestSelectPeers:
    @settings(max_examples=300, deadline=None)
    @given(
        candidates=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=30, unique=True
        ).map(sorted),
        identity=st.tuples(st.integers(0, 6), st.integers(0, 6)),
        counter=st.integers(0, 2**32),
        fanout=st.integers(0, 8),
    )
    def test_never_the_sender_and_never_a_repeat(self, candidates, identity, counter, fanout):
        draws = peer_draws([identity_key(identity)], [counter], fanout)
        low = bisect_left(candidates, identity)
        member = low < len(candidates) and candidates[low] == identity
        chosen = peer_indices(draws, [low], [member], [len(candidates)])[0]
        peers = [candidates[index] for index in chosen.tolist() if index >= 0]
        assert identity not in peers
        assert len(peers) == len(set(peers)) == min(fanout, len(set(candidates) - {identity}))
        assert set(peers) <= set(candidates)
