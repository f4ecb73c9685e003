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
from repro.vehicles.gossip import peer_draws, select_peers

N = 20_000
#: Five standard errors of a correlation coefficient over ``N`` pairs.
CORRELATION_BOUND = 5 / np.sqrt(N)


def _edge_draws(root, sender, destination, counters):
    keys = IdentityKeys()
    return unit(mix(root, keys[sender], keys[destination], np.asarray(counters, np.uint64)))


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
    @given(
        records=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", (0, 1), (2, 2)]),
                st.lists(st.sampled_from(["a", "b", "c", (0, 1), (2, 2)]), max_size=9),
            ),
            max_size=12,
        ),
        split=st.integers(0, 12),
        loss=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    )
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
        assert bulk._edge_counts == scalar._edge_counts

    @pytest.mark.parametrize("draws", [1, _ARRAY_DRAWS - 1, _ARRAY_DRAWS, 3 * _ARRAY_DRAWS])
    def test_array_cutoff_picks_the_spelling_not_the_draws(self, draws, monkeypatch):
        array_calls = []
        original = transport_module.mix

        def spying(state, *words):
            array_calls.extend(isinstance(word, np.ndarray) for word in words[:1])
            return original(state, *words)

        monkeypatch.setattr(transport_module, "mix", spying)
        targets = ["b", "c", (0, 1)] * draws
        records = [("a", targets[:draws], None)]
        bulk = LossyTransport(loss=0.5, seed=11)
        lost = bulk.drops_many(records)
        assert any(array_calls) == (draws >= _ARRAY_DRAWS)
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
        draws = peer_draws([identity_key(identity)], [counter], fanout)[0].tolist()
        peers = select_peers(identity, draws, candidates)
        assert identity not in peers
        assert len(peers) == len(set(peers)) == min(fanout, len(set(candidates) - {identity}))
        assert set(peers) <= set(candidates)
