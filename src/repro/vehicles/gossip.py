"""Deterministic peer selection and digest helpers for gossip monitoring.

The gossip failure detector (``FleetConfig.monitoring = "gossip"``)
replaces the single-watcher timer of the Section 3.2.5 monitoring ring
with three layers, following the tunable-fanout gossiping family of
De Florio & Blondia and pod-style quorum attestation:

1. **Epidemic freshness.** Every round each vehicle piggybacks a digest
   of its most recently heard ``(pair_key, round)`` entries to ``fanout``
   peers drawn from its own cube, so liveness information spreads through
   a cube of ``k`` vehicles in O(log k) rounds and survives the
   lossy/corrupting transports (which only mutate protocol messages,
   never digests).  Digests never leave the cube: every reporter, watcher
   and attester of a pair lives in the pair's cube (Section 3.2.5), and
   quorum intersection is per cube, so fleet-wide relaying would add no
   detection power -- only O(fleet) state per vehicle.
2. **Multi-reporter suspicion.** A pair is suspected only once
   ``suspicion_threshold`` *distinct* vehicles have reported it silent --
   reports travel inside the digests, deduplicated by reporter identity.
3. **Quorum attestation.** The ring watcher collects ``quorum``
   co-signatures (``SuspectMessage``/``AttestMessage``) before starting
   the replacement search, masking up to ``quorum - 1`` Byzantine
   watchers.

Peer selection must be byte-identical at any worker, process, or shard
count, so it never consults a shared RNG: each draw is keyed blake2b
over ``(identity, per-vehicle counter, slot)``, a pure function of state
that checkpoints and restores exactly.  The candidates are the cube's
shared sorted member list (:meth:`~repro.vehicles.fleet.Fleet.cube_members`),
and shards own whole cubes, so gossip runs shard like ring runs.

Both helpers run once per vehicle per round, so neither pays more than
O(cube) in Python: :func:`select_peers` maps each draw onto the shared
sorted candidate list by index arithmetic (O(fanout²) per call, no pool
copy), and :func:`freshest_entries` finds its round cut-off with a C sort
of the round values and ranks only the entries at or above it.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right, insort
from functools import lru_cache
from typing import Any, Dict, Hashable, List, Sequence, Tuple

from repro.grid.lattice import Point

__all__ = ["GOSSIP_KEY", "GOSSIP_ENTRY_CAP", "select_peers", "freshest_entries"]

#: Domain-separation key for the peer-selection hash.  Fixed forever:
#: changing it would silently re-route every gossip run.
GOSSIP_KEY = b"repro-gossip"

#: Maximum number of ``(pair_key, round)`` freshness entries per digest.
#: Caps digest size at O(1) per message regardless of fleet size; the
#: freshest entries are the ones worth spreading.
GOSSIP_ENTRY_CAP = 8


# Bounded: a hasher state is ~0.5 KiB, so 2**14 identities stay under
# ~8 MiB; a larger fleet only re-derives evicted prefixes.
@lru_cache(maxsize=1 << 14)
def _keyed_prefix(identity_repr: str) -> Any:
    """Keyed blake2b state that has absorbed ``"(<identity repr>, "``.

    Keyed on the repr, not the identity, so two equal identities with
    different reprs (``(1, 2)`` and ``(1.0, 2.0)``) never share a prefix.
    The memoized state is shared: callers ``copy()`` it, never update it.
    """
    hasher = hashlib.blake2b(key=GOSSIP_KEY, digest_size=8)
    hasher.update(f"({identity_repr}, ".encode("utf-8"))
    return hasher


def _draw(prefix: Any, counter: int, slot: int, modulus: int) -> int:
    """One deterministic draw in ``[0, modulus)``: the keyed blake2b of
    ``repr((identity, counter, slot))``, resumed from the identity's
    memoized :func:`_keyed_prefix`."""
    hasher = prefix.copy()
    hasher.update(f"{counter!r}, {slot!r})".encode("utf-8"))
    return int.from_bytes(hasher.digest(), "big") % modulus


def select_peers(
    identity: Hashable,
    counter: int,
    candidates: Sequence[Hashable],
    fanout: int,
) -> List[Hashable]:
    """Pick ``fanout`` gossip peers without replacement, deterministically.

    ``candidates`` must be in a canonical (sorted) order shared by every
    worker; the sender itself is excluded.  Slot ``s`` draws an index
    ``i`` into the pool of candidates not yet taken (the sender counts as
    taken), and the ``i``-th untaken candidate is found by walking the
    sorted taken indices -- the same peers a copied pool with ``pop(i)``
    would yield, without copying the candidate list: O(log n) to locate
    the sender plus O(fanout²) per call.  The per-vehicle ``counter``
    advances the stream between rounds -- two vehicles (or two rounds)
    never share a draw sequence.
    """
    low = bisect_left(candidates, identity)
    high = bisect_right(candidates, identity, low)
    taken = list(range(low, high))
    remaining = len(candidates) - len(taken)
    prefix = _keyed_prefix(repr(identity))
    chosen: List[Hashable] = []
    for slot in range(min(fanout, remaining)):
        index = _draw(prefix, counter, slot, remaining - slot)
        for position in taken:
            if position > index:
                break
            index += 1
        insort(taken, index)
        chosen.append(candidates[index])
    return chosen


def freshest_entries(
    last_heard: Dict[Point, int], cap: int = GOSSIP_ENTRY_CAP
) -> Tuple[Tuple[Point, int], ...]:
    """The ``cap`` freshest ``(pair_key, round)`` entries, canonically ordered.

    Most recent round first, ties broken by pair key so the digest is a
    pure function of the ``last_heard`` mapping (byte-identical across
    dict insertion orders).  When the map holds more than ``cap`` entries,
    the cap-th largest round is read off a C sort of the round values and
    only the entries at or above it are ranked in Python.
    """
    cut = sorted(last_heard.values())[-cap] if len(last_heard) > cap > 0 else None
    ranked = sorted(
        [
            (-heard, pair_key)
            for pair_key, heard in last_heard.items()
            if cut is None or heard >= cut
        ]
    )
    return tuple([(pair_key, -heard) for heard, pair_key in ranked[:cap]])
