"""The monitoring-pointer scheme of Section 3.2.5.

To survive scenario 2 (a done vehicle that fails to start its diffusing
computation) and scenario 3 (a constant number of active vehicles dying),
the thesis adds a "monitoring" pointer to every active vehicle: the
pointers form a loop over the cube's active vehicles, every vehicle
periodically announces that it still exists, and a watcher that stops
hearing from the vehicle it monitors starts a diffusing computation on its
behalf.

Because exactly one active vehicle is responsible for each black/white
*pair* at any time, the loop is most naturally expressed over pairs: the
vehicle responsible for pair ``i`` watches pair ``i + 1`` (cyclically, in
the cube's deterministic pair order).  This keeps the pointer loop intact
across replacements without any hand-off message: whoever takes over a pair
also takes over that pair's watch duty, and can recompute the watched pair
locally from the cube's coloring.

The module also holds the detector's *rules*: every decision the ring
heartbeat and the gossip detector take about silence, as plain functions
of plain values (the vehicle process does the sends and state writes).
:func:`is_stale` is the one staleness rule -- a pair last heard at round
``last`` is silent at ``round_id`` once ``round_id - last >= miss``, a
never-heard pair counting as heard at :data:`HEARD_AT_START` -- so an
adaptive timeout changes that function alone.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.grid.coloring import Coloring
from repro.grid.lattice import Point

__all__ = [
    "HEARD_AT_START",
    "watched_pair_key",
    "hierarchical_watch_ring",
    "watch_ring_inverse",
    "is_stale",
    "is_silent",
    "enough_reporters",
    "grant_attestation",
    "quorum_reached",
]

#: The round a pair never heard from counts as last heard at.
HEARD_AT_START = 0


def watched_pair_key(coloring: Coloring, pair_key: Point) -> Optional[Point]:
    """The pair watched by whoever is responsible for ``pair_key``.

    Returns ``None`` when the cube has a single pair (nothing to watch --
    a lone pair's vehicle has no peer to monitor it, which matches the
    thesis's constant-size caveat).
    """
    keys = [pair.black for pair in coloring.pairs]
    if len(keys) <= 1:
        return None
    index = keys.index(pair_key)
    return keys[(index + 1) % len(keys)]


def hierarchical_watch_ring(
    pairs_by_cube: Mapping[Tuple[int, ...], Sequence[Point]]
) -> Dict[Point, Point]:
    """One watch ring over *all* pairs of *all* cubes (escalation mode).

    The cube-local loop above has a blind spot the cross-cube escalation
    must close: a cube with a single pair has no peer to monitor it, so a
    dead vehicle there goes unnoticed forever -- precisely the
    ``omega_c < 1`` regime where every cube is a singleton.  In escalation
    mode the monitoring pointers therefore form a single fleet-wide loop:
    pairs are ordered by (cube multi-index, pair key), both lexicographic,
    and the vehicle responsible for each pair watches the next one.  The
    order is derivable from static fleet structure alone, so -- exactly as
    with the cube-local loop -- a replacement that takes a pair over also
    inherits its watch duty with no hand-off message, and the ring stays
    intact across any sequence of replacements.

    A fleet with a single pair maps it to itself (nothing to watch).
    """
    keys = [
        pair_key
        for index in sorted(pairs_by_cube)
        for pair_key in sorted(pairs_by_cube[index])
    ]
    return {
        pair_key: keys[(rank + 1) % len(keys)] for rank, pair_key in enumerate(keys)
    }


def watch_ring_inverse(ring: Mapping[Point, Point]) -> Dict[Point, Point]:
    """Watched pair -> watcher pair (the ring walked backwards).

    Heartbeats must *reach* the watcher: an active vehicle uses this map to
    learn which pair's cube its existence announcements additionally go to
    when its watcher lives across a cube boundary.
    """
    return {watched: watcher for watcher, watched in ring.items()}


def is_stale(round_id, last, miss: int):
    """The staleness rule: whether a pair last heard at round ``last`` is
    silent at ``round_id``.  Plain arithmetic, so it also applies
    element-wise to numpy arrays of last-heard rounds."""
    return round_id - last >= miss


def is_silent(
    last_heard: Mapping[Point, int], pair_key: Point, round_id: int, miss: int
) -> bool:
    """:func:`is_stale` for ``pair_key`` under a ``last_heard`` map."""
    return is_stale(round_id, last_heard.get(pair_key, HEARD_AT_START), miss)


def enough_reporters(reporters: Collection[Point], watcher: Point, threshold: int) -> bool:
    """Whether a pair's distinct silence ``reporters``, counting the
    ``watcher`` itself, reach the suspicion ``threshold``."""
    return len(reporters) + (watcher not in reporters) >= threshold


def grant_attestation(
    last: int,
    round_id: int,
    miss: int,
    *,
    own_pair: bool,
    byzantine: bool,
) -> bool:
    """Whether an attester co-signs a suspicion raised at ``round_id`` of a
    pair it last heard at round ``last``: only when that is stale and the
    pair is not its own.  A Byzantine attester inverts the answer --
    forging grants for healthy pairs, withholding them for dead ones."""
    grant = not own_pair and is_stale(round_id, last, miss)
    return not grant if byzantine else grant


def quorum_reached(signers: Iterable[Point], quorum: int) -> bool:
    """Whether at least ``quorum`` *distinct* co-signers granted."""
    return len(set(signers)) >= quorum
