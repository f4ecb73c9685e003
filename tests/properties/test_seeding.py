"""The vectorized seeding port equals numpy's own ``default_rng(s).random()``.

:func:`repro.distsim.seeding.first_uniforms` re-implements SeedSequence,
PCG64 seeding and the first ``random()`` as array arithmetic; the edge-keyed
loss stream relies on it being bit-exact for every 128-bit seed.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsim.seeding import first_uniforms

#: Boundary seeds: zero, one, every word boundary, seeds whose high words
#: are zero (SeedSequence sees fewer than four words), and the maximum.
SPECIAL = [
    0,
    1,
    2,
    2**32 - 1,
    2**32,
    2**32 + 1,
    2**64 - 1,
    2**64,
    2**64 + 2**32,
    2**96 - 1,
    2**96,
    2**127,
    2**128 - 1,
    (2**128 - 1) ^ (2**32 - 1),  # zero low word
    0xFFFFFFFF << 64,  # zero low words under a non-zero one
]


def seed_words(seeds):
    """The ``(n, 4)`` little-endian uint32 words of ints in ``[0, 2**128)``."""
    return np.array(
        [[(seed >> (32 * k)) & 0xFFFFFFFF for k in range(4)] for seed in seeds],
        dtype=np.uint32,
    ).reshape(-1, 4)


def _reference(seeds):
    return np.array([np.random.default_rng(seed).random() for seed in seeds])


def _sample_seeds():
    rng = np.random.default_rng(20240611)
    seeds = list(SPECIAL)
    # Every word count: bit lengths 1..128 give 1-4 non-zero words.
    for bits in range(1, 129):
        seeds.extend(
            int.from_bytes(rng.bytes(16), "little") >> (128 - bits) for _ in range(20)
        )
    # Real keyed digests, as the edge-keyed loss stream builds them.
    key = (3).to_bytes(8, "little")
    for counter in range(8_000):
        edge = ((counter % 13, counter % 7), (counter % 11, 1))
        digest = hashlib.blake2b(
            repr((0x10E55, *edge, counter)).encode("utf-8"), key=key, digest_size=16
        ).digest()
        seeds.append(int.from_bytes(digest, "little"))
    return seeds


def test_port_equals_default_rng_on_ten_thousand_seeds():
    seeds = _sample_seeds()
    assert len(seeds) >= 10_000
    assert len(set(seeds)) > 9_500
    got = first_uniforms(seed_words(seeds))
    expected = _reference(seeds)
    mismatched = [seed for seed, a, b in zip(seeds, got, expected) if a != b]
    assert not mismatched, mismatched[:5]


def test_digest_bytes_read_as_words_are_the_integer_seed():
    digests = [hashlib.blake2b(bytes([i]), digest_size=16).digest() for i in range(64)]
    words = np.frombuffer(b"".join(digests), dtype="<u4").reshape(-1, 4)
    seeds = [int.from_bytes(d, "little") for d in digests]
    assert (words == seed_words(seeds)).all()
    assert (first_uniforms(words) == _reference(seeds)).all()


def test_empty_and_single_seed():
    assert first_uniforms(seed_words([])).shape == (0,)
    assert first_uniforms(seed_words([42]))[0] == np.random.default_rng(42).random()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**128 - 1), min_size=1, max_size=40))
def test_port_equals_default_rng_on_arbitrary_batches(seeds):
    assert (first_uniforms(seed_words(seeds)) == _reference(seeds)).all()
