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
count, so it never consults a shared RNG: each draw is the counter-based
keyed mix (:mod:`repro.distsim.keyed`) of ``(identity, per-vehicle
counter, slot)``, a pure function of state that checkpoints and restores
exactly.  :func:`peer_draws` computes a whole round's draws -- every
ticking vehicle, every slot -- as one array expression.  The candidates
are the cube's shared sorted member list
(:meth:`~repro.vehicles.fleet.Fleet.cube_members`), and shards own whole
cubes, so gossip runs shard like ring runs.

The per-vehicle helpers run once per vehicle per round, so neither pays
more than O(cube) in Python: :func:`select_peers` maps each draw onto the
shared sorted candidate list by index arithmetic (O(fanout²) per call, no
pool copy), and :func:`freshest_entries` finds its round cut-off with a C
sort of the round values and ranks only the entries at or above it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.distsim.keyed import mix, stream_root, unit
from repro.grid.lattice import Point

__all__ = ["GOSSIP_ENTRY_CAP", "peer_draws", "select_peers", "freshest_entries"]

#: The chain state of every peer draw.  Fixed forever: changing it would
#: silently re-route every gossip run.
_PEER_ROOT = stream_root(0, 0x60551B)

#: Maximum number of ``(pair_key, round)`` freshness entries per digest.
#: Caps digest size at O(1) per message regardless of fleet size; the
#: freshest entries are the ones worth spreading.
GOSSIP_ENTRY_CAP = 8


def peer_draws(keys: np.ndarray, counters: Sequence[int], fanout: int) -> np.ndarray:
    """The ``(n, fanout)`` peer draws in ``[0, 1)`` of ``n`` vehicles.

    Row ``v``, column ``s`` is the keyed mix of ``(keys[v], counters[v],
    s)``: vehicle ``v``'s identity key
    (:func:`~repro.distsim.keyed.identity_key`), its gossip counter this
    round, and the slot.
    """
    state = mix(
        _PEER_ROOT,
        np.asarray(keys, dtype=np.uint64)[:, None],
        np.array(counters, dtype=np.uint64)[:, None],
        np.arange(fanout, dtype=np.uint64)[None, :],
    )
    return unit(state)


def select_peers(
    identity: Hashable,
    draws: Sequence[float],
    candidates: Sequence[Hashable],
) -> List[Hashable]:
    """Pick up to ``len(draws)`` gossip peers without replacement.

    ``candidates`` must be in a canonical (sorted) order shared by every
    worker; the sender itself is excluded.  Slot ``s`` turns its draw
    ``u`` into an index ``floor(u * r)`` into the ``r`` candidates not yet
    taken (the sender counts as taken), and the index-th untaken candidate
    is found by walking the sorted taken indices -- the same peers a
    copied pool with ``pop(index)`` would yield, without copying the
    candidate list: O(log n) to locate the sender plus O(fanout²) per
    call.
    """
    low = bisect_left(candidates, identity)
    high = bisect_right(candidates, identity, low)
    taken = list(range(low, high))
    remaining = len(candidates) - len(taken)
    chosen: List[Hashable] = []
    for slot, draw in enumerate(draws[:remaining]):
        index = int(draw * (remaining - slot))
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
