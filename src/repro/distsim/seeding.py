"""numpy's ``default_rng(seed).random()``, vectorized over many seeds.

The edge-keyed loss stream (:func:`repro.distsim.transport._edge_stream_rng`)
derives one generator per message from a 128-bit keyed digest and draws
one uniform from it.  Building a ``numpy`` generator costs ~20 µs, almost
all of it SeedSequence and PCG64 set-up in object form.  This module
reproduces that exact computation as array arithmetic over a whole batch
of seeds, so a heartbeat round's lossy sends are resolved in one call:

1. ``SeedSequence(seed)`` with the default pool of four 32-bit words:
   ``hashmix``/``mix`` over the seed's little-endian uint32 words.  A
   seed below ``2**128`` has at most four words; SeedSequence mixes a
   missing word exactly as a zero word, so zero-padding to four is exact.
2. ``generate_state(4, uint64)``: eight more ``hashmix`` outputs.
3. PCG64's ``setseq`` seeding (two steps of the 128-bit LCG), then one
   more step and the XSL-RR output (``pcg64_random_r``).
4. ``random()``: the top 53 bits of that output times ``2**-53``.

128-bit products are computed in 32-bit limbs held in uint64 lanes, so
every partial product and carry fits.  All uint32 arithmetic wraps
modulo ``2**32`` exactly as numpy's C code does.  The result is bit-exact:
``first_uniforms`` of a seed's four words equals
``np.random.default_rng(seed).random()`` for every ``0 <= seed < 2**128``
(the property suite checks it).

The vector form has a fixed cost of ~0.2 ms per call, so below about ten
seeds the scalar ``default_rng`` path is faster; callers choose.
"""

from __future__ import annotations

import numpy as np

__all__ = ["first_uniforms"]

_U32 = np.uint32
_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_SHIFT16 = _U32(16)  # SeedSequence's XSHIFT for 32-bit words
_SHIFT32 = _U64(32)


def _mul32(a: int, b: int) -> int:
    return (a * b) & 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int):
    """``(xor, multiplier)`` of each of ``count`` successive hashmix calls."""
    chain = [init]
    for _ in range(count):
        chain.append(_mul32(chain[-1], mult))
    return np.array(chain[:count], dtype=_U32), np.array(chain[1:], dtype=_U32)


#: mix_entropy: 4 initial hashmixes, then 3 per source word (16 in all).
_MIX_XOR, _MIX_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
#: generate_state(4, uint64): 8 output words cycling the pool.
_OUT_XOR, _OUT_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_OUT_XOR, _OUT_MUL = _OUT_XOR[:, None], _OUT_MUL[:, None]
_MIX_L = _U32(0xCA01F9DD)
_MIX_R = _U32(0x4973F715)

#: The cross-mixing of mix_entropy: for each source word, the three other
#: words in order, with the hash constants of those three hashmix calls.
#: For one source the destinations never read each other, so the three
#: steps are one array operation.
_CROSS = []
for _source in range(4):
    _calls = slice(4 + 3 * _source, 7 + 3 * _source)
    _CROSS.append(
        (
            _source,
            [d for d in range(4) if d != _source],
            _MIX_XOR[_calls][:, None],
            _MIX_MUL[_calls][:, None],
        )
    )
del _source, _calls

#: PCG64's default 128-bit multiplier in four 32-bit limbs, low first.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_LIMBS = np.array(
    [(_PCG_MULT >> (32 * k)) & 0xFFFFFFFF for k in range(4)], dtype=_U64
)[:, None]

#: generate_state yields uint64 words ``v[k] = w[2k] | w[2k+1] << 32``;
#: PCG64 seeds with ``initstate = v0 << 64 | v1`` and ``initseq = v2 << 64
#: | v3``.  As 32-bit limbs, low first:
_INITSTATE = [2, 3, 0, 1]
_INITSEQ = [6, 7, 4, 5]


def _carry(limbs: np.ndarray) -> np.ndarray:
    """Normalize ``(4, n)`` uint64 limb sums to 32 bits each, mod 2**128."""
    for k in range(3):
        limbs[k + 1] += limbs[k] >> _SHIFT32
    limbs &= _MASK32
    return limbs


def _lcg_step(state: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """``state * PCG_MULT + inc`` mod 2**128, on ``(4, n)`` limbs."""
    acc = inc.copy()
    for i in range(4):
        product = state[i] * _PCG_LIMBS[: 4 - i]  # each < 2**64
        acc[i:] += product & _MASK32
        acc[i + 1 :] += product[: 3 - i] >> _SHIFT32
    return _carry(acc)


def first_uniforms(words: np.ndarray) -> np.ndarray:
    """``np.random.default_rng(seed).random()`` for each row of ``words``.

    ``words`` is ``(n, 4)`` uint32: each row a 128-bit seed's four
    little-endian 32-bit words (the bytes of a 16-byte digest read as
    ``<u4``).  Returns ``n`` float64 values, bit-identical to the scalar
    calls.
    """
    words = np.asarray(words, dtype=_U32)
    # SeedSequence.mix_entropy over the pool of four words.
    pool = words.T ^ _MIX_XOR[:4, None]
    pool *= _MIX_MUL[:4, None]
    pool ^= pool >> _SHIFT16
    for source, targets, xor, mul in _CROSS:
        hashed = pool[source] ^ xor
        hashed *= mul
        hashed ^= hashed >> _SHIFT16
        mixed = _MIX_L * pool[targets] - _MIX_R * hashed
        mixed ^= mixed >> _SHIFT16
        pool[targets] = mixed
    # generate_state(4, uint64): eight words cycling the pool.
    out = pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _OUT_XOR
    out *= _OUT_MUL
    out ^= out >> _SHIFT16
    out = out.astype(_U64)
    initseq = out[_INITSEQ]
    # PCG64 setseq seeding: inc = initseq << 1 | 1; state = 0, step, add
    # initstate, step.  One more step, then the XSL-RR output.
    inc = initseq << _U64(1)
    inc[1:] |= initseq[:3] >> _U64(31)
    inc &= _MASK32
    inc[0] |= _U64(1)
    state = _carry(inc + out[_INITSTATE])
    state = _lcg_step(state, inc)
    state = _lcg_step(state, inc)
    high = state[2] | (state[3] << _SHIFT32)
    mixed = high ^ (state[0] | (state[1] << _SHIFT32))
    rotation = state[3] >> _U64(26)  # state >> 122
    output = (mixed >> rotation) | (mixed << ((_U64(64) - rotation) & _U64(63)))
    return (output >> _U64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
