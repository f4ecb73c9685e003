"""Cube-partitioned shard plans for multi-process simulation runs.

The protocol is cube-local by construction: Phase I/II replacement traffic
and ring heartbeats never leave a cube, so the cube partition is a natural
shard key.  :class:`ShardPlan` assigns every occupied cube to one of ``N``
shards by grouping cubes under a common
:class:`~repro.grid.cubes.CubeHierarchy` ancestor (a dyadic level box) and
distributing the lex-ordered groups contiguously, balanced by cube count.

The plan is consumed by the one multi-process engine,
:mod:`repro.distsim.parallel_lockstep`: each worker owns the cubes of one
shard, runs them as a closed sub-simulation, and the coordinator merges
the per-cube state in global lex order so the result is byte-identical to
the single-process run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ShardPlan"]

CubeIndex = Tuple[int, ...]


class ShardPlan:
    """Assignment of cubes to shards via hierarchy-level ancestor groups.

    Parameters
    ----------
    hierarchy:
        The run's :class:`~repro.grid.cubes.CubeHierarchy` (duck-typed:
        ``levels`` and ``ancestor`` are required, the bulk
        ``ancestors_array`` is used when present, so the distsim layer
        stays import-independent of the grid package).
    shards:
        Number of shards (``>= 1``).  Shards may end up empty when the
        occupied-cube count is smaller.
    cubes:
        The cube multi-indices to assign -- typically the cubes with
        demand, in any order.  Defaults to every cube of the grid.
    """

    def __init__(
        self,
        hierarchy,
        shards: int,
        cubes: Optional[Sequence[CubeIndex]] = None,
    ) -> None:
        shards = int(shards)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.hierarchy = hierarchy
        self.shards = shards
        if cubes is None:
            cubes = [index for index, _box in hierarchy.grid.cubes()]
        normalized = sorted({tuple(int(c) for c in index) for index in cubes})
        if not normalized:
            raise ValueError("cannot build a shard plan over zero cubes")
        self.cubes: Tuple[CubeIndex, ...] = tuple(normalized)

        self.level = self._choose_level(hierarchy, normalized, shards)
        grouped = self._group_members(hierarchy, normalized, self.level)

        # Contiguous balanced partition of the lex-ordered group list: walk
        # groups in ancestor order, closing the current shard once adding
        # more than half the next group would overshoot its fair share of
        # what remains.  Deterministic, and shard regions stay unions of
        # whole level boxes.
        assignment: List[List[CubeIndex]] = [[] for _ in range(shards)]
        shard = 0
        count = 0
        remaining = len(normalized)
        for members in grouped:
            if shard < shards - 1 and count > 0:
                fair = (count + remaining) / (shards - shard)
                if count + 0.5 * len(members) > fair:
                    shard += 1
                    count = 0
            assignment[shard].extend(members)
            count += len(members)
            remaining -= len(members)
        self._assignment: Tuple[Tuple[CubeIndex, ...], ...] = tuple(
            tuple(members) for members in assignment
        )
        self._shard_of: Dict[CubeIndex, int] = {
            index: shard
            for shard, members in enumerate(self._assignment)
            for index in members
        }

    @staticmethod
    def _choose_level(hierarchy, cubes: List[CubeIndex], shards: int) -> int:
        """The coarsest level that still leaves room to balance.

        Prefer the largest level whose ancestor-group count is at least
        ``4 * shards`` (slack for the greedy balancer), falling back to at
        least ``shards`` groups, then to level 0 (every cube its own
        group).  Coarser groups mean fewer boundary cubes; finer groups
        mean better load balance -- the 4x slack is the compromise.
        """
        bulk = getattr(hierarchy, "ancestors_array", None)
        fallback = 0
        for level in range(hierarchy.levels, -1, -1):
            if bulk is not None:
                import numpy as np

                count = len(np.unique(bulk(cubes, level), axis=0))
            else:
                count = len({hierarchy.ancestor(index, level) for index in cubes})
            if count >= 4 * shards:
                return level
            if count >= shards and fallback == 0:
                fallback = level
        return fallback

    @staticmethod
    def _group_members(
        hierarchy, normalized: List[CubeIndex], level: int
    ) -> List[List[CubeIndex]]:
        """Member lists per ancestor group, in lexicographic ancestor order.

        Members keep their (lex) order inside each group.  When the
        hierarchy offers the bulk ``ancestors_array`` hook the grouping is
        a vectorized unique + stable sort instead of one Python
        ``ancestor()`` call per cube -- at ``10^5`` cubes that is the
        difference between milliseconds and seconds on the shard-planning
        critical path, which every multi-process run pays before the first
        worker starts.  Both paths produce identical group lists.
        """
        bulk = getattr(hierarchy, "ancestors_array", None)
        if bulk is not None:
            import numpy as np

            uniq, inverse = np.unique(
                bulk(normalized, level), axis=0, return_inverse=True
            )
            inverse = inverse.reshape(-1)
            counts = np.bincount(inverse, minlength=len(uniq))
            order = np.argsort(inverse, kind="stable")
            grouped: List[List[CubeIndex]] = []
            start = 0
            for size in counts:
                grouped.append([normalized[i] for i in order[start : start + size]])
                start += size
            return grouped
        groups: Dict[CubeIndex, List[CubeIndex]] = {}
        for index in normalized:
            groups.setdefault(hierarchy.ancestor(index, level), []).append(index)
        return [groups[ancestor] for ancestor in sorted(groups)]

    def shard_of(self, index: CubeIndex) -> int:
        """The shard owning cube ``index`` (raises on unassigned cubes)."""
        return self._shard_of[tuple(index)]

    def cubes_of(self, shard: int) -> Tuple[CubeIndex, ...]:
        """The cubes assigned to ``shard``, group by group.

        Ancestor groups come in lexicographic ancestor order, and the
        members of each group in lexicographic order.
        """
        return self._assignment[shard]

    def counts(self) -> Tuple[int, ...]:
        """Cube count per shard (empty shards report 0)."""
        return tuple(len(members) for members in self._assignment)
