"""Counter-based keyed draws: one 64-bit integer mix for every seeded choice.

Loss, corruption, per-edge jitter and gossip peers draw from a pure
function of *what* is drawn -- ``(seed, purpose salt, sender, destination,
per-edge message counter[, draw index])`` -- never from one generator
consumed in send order: the counter-based model of Salmon et al.
("Parallel random numbers: as easy as 1, 2, 3", SC 2011), which lets a
sharded run reproduce the single-process draws of its edges.

The mix is the SplitMix64 finaliser absorbing one 64-bit word at a time,
``mix(state, w) = fmix64(state ^ w)``.  Every function accepts Python ints
or broadcasting ``uint64`` arrays with the same bits, so a heartbeat
round's draws are a few whole-array operations while a single send
computes the identical value in plain Python.

Identities are keyed by value, never by a dense registry index (those
differ between shard sub-fleets): a tuple of ints -- a lattice point --
mixes its coordinates, and any other hashable is one keyed blake2b digest
of its ``repr``, computed once per identity by :class:`IdentityKeys`.
"""

from __future__ import annotations

import hashlib
from numbers import Integral
from typing import Any, Hashable

import numpy as np

__all__ = [
    "MASK", "fmix64", "mix", "unit", "stream_root", "identity_key", "coordinate_keys",
    "IdentityKeys",
]

#: All 64 bits.
MASK = (1 << 64) - 1

#: The golden-ratio constant: the starting state of every chain.
_GAMMA = 0x9E3779B97F4A7C15

#: Domain-separation key of the ``repr`` digest of non-lattice identities.
_IDENTITY_KEY = b"repro-identity"


def fmix64(x: Any) -> Any:
    """The SplitMix64 finaliser: a bijection of 64-bit words with full
    avalanche.  ``x`` is a Python int below ``2**64`` or a ``uint64``
    array; the masks are no-ops on the array, where products wrap."""
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def mix(state: Any, *words: Any) -> Any:
    """Absorb ``words`` into ``state``, one finaliser round per word."""
    for word in words:
        state = fmix64(state ^ word)
    return state


def unit(word: Any) -> Any:
    """The top 53 bits of ``word`` as a float in ``[0, 1)`` (exact)."""
    return (word >> 11) * 2.0**-53


def stream_root(seed: int, salt: int) -> int:
    """The chain state of one seeded stream; any Python int is a valid seed."""
    return mix(_GAMMA, int(seed) & MASK, salt)


def identity_key(identity: Hashable) -> int:
    """The 64-bit key of one process identity.

    A tuple of integers (Python or numpy) is a lattice point and mixes its
    length and coordinates (equal to its :func:`coordinate_keys` row), so
    equal points key equally whatever their integer type; anything else
    is the keyed blake2b of its ``repr``.
    """
    if isinstance(identity, tuple) and all(isinstance(c, Integral) for c in identity):
        return mix(_GAMMA, len(identity), *[int(c) & MASK for c in identity])
    digest = hashlib.blake2b(
        repr(identity).encode("utf-8"), key=_IDENTITY_KEY, digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def coordinate_keys(coords: np.ndarray) -> np.ndarray:
    """:func:`identity_key` of every row of an ``(n, dim)`` int array."""
    coords = np.asarray(coords)
    state = np.full(len(coords), mix(_GAMMA, coords.shape[1]), dtype=np.uint64)
    return mix(state, *coords.astype(np.uint64).T)


class IdentityKeys(dict):
    """``identity -> identity_key(identity)``, computed on first lookup."""

    def __missing__(self, identity: Hashable) -> int:
        key = self[identity] = identity_key(identity)
        return key
