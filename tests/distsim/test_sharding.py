"""Unit suite for the cube-sharding layer (:mod:`repro.distsim.sharding`).

``ShardPlan`` is what the determinism property tests build on: every
occupied cube is assigned to exactly one shard, shard regions are whole
ancestor groups in lex order, the balance stays within one group of fair,
and the plan is independent of input order.
"""

from __future__ import annotations

import pytest

from repro.distsim.sharding import ShardPlan
from repro.grid.cubes import CubeGrid, CubeHierarchy
from repro.grid.lattice import Box


def make_hierarchy(extent: int = 24, side: int = 3, dim: int = 2) -> CubeHierarchy:
    window = Box((0,) * dim, (extent - 1,) * dim)
    return CubeHierarchy(CubeGrid(window, side))


class TestShardPlan:
    def test_every_cube_assigned_exactly_once(self):
        hierarchy = make_hierarchy()
        plan = ShardPlan(hierarchy, 4)
        seen = [index for shard in range(plan.shards) for index in plan.cubes_of(shard)]
        assert sorted(seen) == list(plan.cubes)
        assert len(seen) == len(set(seen)), "a cube landed in two shards"
        for index in plan.cubes:
            assert 0 <= plan.shard_of(index) < plan.shards

    def test_counts_sum_and_rough_balance(self):
        hierarchy = make_hierarchy()
        plan = ShardPlan(hierarchy, 4)
        counts = plan.counts()
        assert sum(counts) == len(plan.cubes)
        assert all(count > 0 for count in counts)
        # The greedy walk over ancestor groups stays within one group of fair.
        fair = len(plan.cubes) / plan.shards
        assert max(counts) <= 2 * fair

    def test_shard_regions_are_whole_ancestor_groups_in_order(self):
        hierarchy = make_hierarchy()
        plan = ShardPlan(hierarchy, 3)
        groups = {}
        for index in plan.cubes:
            groups.setdefault(hierarchy.ancestor(index, plan.level), []).append(index)
        # Groups are atomic (never split across shards) and the walk hands
        # them out in lex ancestor order, so group owners are nondecreasing.
        owners = []
        for ancestor in sorted(groups):
            member_owners = {plan.shard_of(index) for index in groups[ancestor]}
            assert len(member_owners) == 1, f"group {ancestor} split across shards"
            owners.append(member_owners.pop())
        assert owners == sorted(owners)

    def test_sparse_occupancy_only_assigns_given_cubes(self):
        hierarchy = make_hierarchy()
        occupied = [(0, 0), (0, 1), (5, 5), (7, 0), (7, 7)]
        plan = ShardPlan(hierarchy, 2, cubes=occupied)
        assert plan.cubes == tuple(sorted(occupied))
        with pytest.raises(KeyError):
            plan.shard_of((3, 3))

    def test_more_shards_than_cubes_leaves_empties(self):
        hierarchy = make_hierarchy()
        plan = ShardPlan(hierarchy, 3, cubes=[(0, 0), (1, 1)])
        assert sum(plan.counts()) == 2
        assert len([c for c in plan.counts() if c == 0]) == 1

    def test_validation(self):
        hierarchy = make_hierarchy()
        with pytest.raises(ValueError):
            ShardPlan(hierarchy, 0)
        with pytest.raises(ValueError):
            ShardPlan(hierarchy, 2, cubes=[])

    def test_deterministic_across_input_order(self):
        hierarchy = make_hierarchy()
        cubes = [(0, 0), (3, 2), (1, 7), (5, 5), (2, 2)]
        a = ShardPlan(hierarchy, 2, cubes=cubes)
        b = ShardPlan(hierarchy, 2, cubes=list(reversed(cubes)))
        assert a.cubes == b.cubes
        assert [a.cubes_of(s) for s in range(2)] == [b.cubes_of(s) for s in range(2)]

    def test_default_cubes_cover_the_whole_grid(self):
        hierarchy = make_hierarchy()
        plan = ShardPlan(hierarchy, 4)
        every = sorted(index for index, _box in hierarchy.grid.cubes())
        assert list(plan.cubes) == every
        assert len(every) == 8 * 8

    def test_single_shard_takes_every_cube(self):
        plan = ShardPlan(make_hierarchy(), 1)
        assert plan.counts() == (len(plan.cubes),)
        assert sorted(plan.cubes_of(0)) == list(plan.cubes)

    def test_cubes_of_walks_groups_in_ancestor_order(self):
        hierarchy = make_hierarchy()
        plan = ShardPlan(hierarchy, 3)
        for shard in range(plan.shards):
            members = plan.cubes_of(shard)
            keys = [(hierarchy.ancestor(index, plan.level), index) for index in members]
            assert keys == sorted(keys)

    def test_scalar_grouping_matches_the_bulk_path(self):
        hierarchy = make_hierarchy(extent=30)

        class ScalarOnly:
            """The duck-typed minimum: no ``ancestors_array`` bulk hook."""

            levels = hierarchy.levels
            grid = hierarchy.grid

            def ancestor(self, index, level):
                return hierarchy.ancestor(index, level)

        assert not hasattr(ScalarOnly(), "ancestors_array")
        occupied = [(x, y) for x in range(10) for y in range(10) if (x * y) % 3 != 1]
        for shards in (1, 2, 5):
            bulk = ShardPlan(hierarchy, shards, cubes=occupied)
            scalar = ShardPlan(ScalarOnly(), shards, cubes=occupied)
            assert bulk.level == scalar.level
            assert [bulk.cubes_of(s) for s in range(shards)] == [
                scalar.cubes_of(s) for s in range(shards)
            ]
