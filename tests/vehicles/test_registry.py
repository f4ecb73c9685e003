"""Unit tests for the flat-array fleet core (templates + indexed registry).

The templates must reproduce the reference per-cube computations exactly
-- same snake pairing, same neighbor graphs, same initial activity -- and
the registry's contiguous live arrays must mirror the vehicle objects
through every mutation the protocol performs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.demand import DemandMap, JobSequence
from repro.core.online import run_online
from repro.grid.coloring import Coloring, pair_vertices
from repro.grid.lattice import Box, manhattan
from repro.vehicles.fleet import Fleet, FleetConfig
from repro.vehicles.registry import (
    STATE_ACTIVE,
    STATE_DONE,
    STATE_IDLE,
    adjacency_template,
    coloring_for_box,
    pairing_template,
)
from repro.vehicles.state import WorkingState

BOXES = [
    Box((0,), (4,)),
    Box((1,), (1,)),
    Box((0, 0), (2, 2)),
    Box((1, 0), (3, 2)),
    Box((3, 5), (5, 7)),
    Box((-3, -3), (-1, -1)),
    Box((0, 0), (3, 1)),
    Box((2, 3, 5), (4, 5, 7)),
    Box((1, 1, 1), (2, 2, 2)),
]


class TestPairingTemplate:
    @pytest.mark.parametrize("box", BOXES, ids=str)
    def test_pairs_match_reference_pairing(self, box):
        template = pairing_template(box.side_lengths, sum(box.lo) % 2)
        verts = list(box.points())
        got = template.pairs_for(verts)
        expected = pair_vertices(box)
        assert [(p.black, p.white) for p in got] == [
            (p.black, p.white) for p in expected
        ]

    @pytest.mark.parametrize("box", BOXES, ids=str)
    def test_initially_active_and_pair_of_vertex(self, box):
        template = pairing_template(box.side_lengths, sum(box.lo) % 2)
        coloring = Coloring(box)
        verts = list(box.points())
        for i, vertex in enumerate(verts):
            assert bool(template.active_list[i]) == coloring.initially_active(vertex)
            pair = coloring.pair_of(vertex)
            assert verts[template.pair_black_list[template.vertex_pair_list[i]]] == pair.black

    @pytest.mark.parametrize("box", BOXES, ids=str)
    def test_monitored_vertex_matches_watched_pair_key(self, box):
        from repro.vehicles.monitoring import watched_pair_key

        template = pairing_template(box.side_lengths, sum(box.lo) % 2)
        coloring = Coloring(box)
        verts = list(box.points())
        for i, vertex in enumerate(verts):
            if not template.active_list[i]:
                continue
            expected = watched_pair_key(coloring, coloring.pair_of(vertex).black)
            lex = template.monitored_list[i]
            assert (verts[lex] if lex >= 0 else None) == expected

    def test_parity_swaps_black_and_white(self):
        even = pairing_template((2, 2), 0)
        odd = pairing_template((2, 2), 1)
        assert even.pair_black_list != odd.pair_black_list


class TestAdjacencyTemplate:
    @pytest.mark.parametrize("box", BOXES, ids=str)
    @pytest.mark.parametrize("radius", [1, 3])
    def test_matches_reference_neighbor_scan(self, box, radius):
        lists = adjacency_template(box.side_lengths, radius)
        verts = list(box.points())
        for i, vertex in enumerate(verts):
            expected = [
                j
                for j, other in enumerate(verts)
                if other != vertex and manhattan(other, vertex) <= radius
            ]
            assert list(lists[i]) == expected


class TestColoringCache:
    def test_equivalent_to_direct_coloring(self):
        for box in BOXES:
            cached = coloring_for_box(box)
            direct = Coloring(box)
            assert [(p.black, p.white) for p in cached.pairs] == [
                (p.black, p.white) for p in direct.pairs
            ]
            for vertex in box.points():
                assert cached.pair_of(vertex).black == direct.pair_of(vertex).black

    def test_same_box_shares_one_instance(self):
        box = Box((10, 10), (12, 12))
        assert coloring_for_box(box) is coloring_for_box(box)


def _fleet(demand_points, *, capacity=None, monitoring=False):
    demand = DemandMap({p: 1.0 for p in demand_points})
    return Fleet(
        demand,
        omega=3.0,
        config=FleetConfig(capacity=capacity, monitoring=monitoring),
    )


class TestFleetRegistry:
    def test_static_topology_views(self):
        fleet = _fleet([(0, 0), (5, 5), (2, 7)])
        flat = fleet.flat
        assert flat.count == len(fleet.vehicles)
        # dense index <-> identity round trip, in creation order
        assert list(fleet.vehicles) == flat.identities
        for identity, index in flat.index_of.items():
            assert flat.identities[index] == identity
            assert tuple(flat.homes[index].tolist()) == identity
            assert fleet.vehicles[identity].index == index
        # pair arrays agree with the dict registries
        for key, pid in flat.pair_id_of.items():
            assert flat.pair_keys[pid] == key
            assert fleet.is_pair_key(key)
        # cube slices cover the construction-time membership
        for cube_index, cube_id in flat.cube_id_of.items():
            start, stop = flat.cube_slices[cube_id]
            assert tuple(flat.identities[start:stop]) == fleet._cube_members[cube_index]

    def test_position_lookup_matches_pair_key_of(self):
        fleet = _fleet([(0, 0), (5, 5), (2, 7)])
        flat = fleet.flat
        for identity in flat.identities:
            expected = fleet.pair_key_of(identity)
            assert flat.pair_keys[flat.pair_id_at(identity)] == expected
        # vectorized form agrees, and unbuilt positions map to -1
        homes = np.asarray(flat.identities, dtype=np.int64)
        ids = flat.pair_ids_of(homes)
        assert all(
            flat.pair_keys[int(pid)] == fleet.pair_key_of(identity)
            for pid, identity in zip(ids, flat.identities)
        )
        outside = np.asarray([[999, 999]], dtype=np.int64)
        assert flat.pair_ids_of(outside).tolist() == [-1]

    def test_huge_sparse_window_uses_dict_fallback(self):
        # Two far corners make the bounding window enormous; the dense
        # position->pair array must not be allocated, and lookups must
        # still agree with the routing dict.
        fleet = _fleet([(0, 0), (3000, 3000)])
        flat = fleet.flat
        assert flat._pos_pair is None
        for identity in flat.identities:
            assert flat.pair_keys[flat.pair_id_at(identity)] == fleet.pair_key_of(
                identity
            )
        assert flat.pair_id_at((999, 999)) == -1
        homes = np.asarray(flat.identities, dtype=np.int64)
        assert all(
            flat.pair_keys[int(pid)] == fleet.pair_key_of(identity)
            for pid, identity in zip(flat.pair_ids_of(homes), flat.identities)
        )

    def test_live_arrays_mirror_energy_and_position(self):
        fleet = _fleet([(0, 0)])
        flat = fleet.flat
        vehicle = fleet.responsible_vehicle((0, 0))
        fleet.deliver_job((0, 1), energy=2.0)
        index = vehicle.index
        assert flat.travel[index] == vehicle.travel_energy
        assert flat.service[index] == vehicle.service_energy == 2.0
        assert flat.positions[index] == vehicle.position == (0, 1)
        # vectorized measurement views agree with the per-object gather
        assert fleet.total_travel() == sum(
            v.travel_energy for v in fleet.vehicles.values()
        )
        assert fleet.vehicle_energies() == {
            home: v.energy_used for home, v in fleet.vehicles.items()
        }
        assert fleet.max_energy_used() == max(
            v.energy_used for v in fleet.vehicles.values()
        )

    def test_state_array_tracks_transitions_and_breakage(self):
        fleet = _fleet([(0, 0)], capacity=3.0)
        flat = fleet.flat
        states = flat.state_view()
        active = int((states == STATE_ACTIVE).sum())
        assert active == fleet.active_vehicle_count() > 0
        # exhaust one active vehicle -> DONE in the array, replacement ACTIVE
        vehicle = fleet.responsible_vehicle((0, 0))
        fleet.deliver_job((0, 0), energy=2.5)
        assert vehicle.status.working == WorkingState.DONE
        assert flat.state_view()[vehicle.index] == STATE_DONE
        assert fleet.active_vehicle_count() == int(
            (flat.state_view() == STATE_ACTIVE).sum()
        )
        # breakage mirrors into the broken array
        other = next(iter(fleet.vehicles))
        fleet.crash_vehicle(other)
        assert flat.broken[fleet.vehicles[other].index] == 1
        fleet.revive_vehicle(other)
        assert flat.broken[fleet.vehicles[other].index] == 0

    def test_watch_array_tracks_monitored_pair(self):
        fleet = _fleet([(0, 0)], monitoring=True)
        flat = fleet.flat
        for vehicle in fleet.vehicles.values():
            expected = (
                -1
                if vehicle.monitored_pair is None
                else flat.pair_id_of[vehicle.monitored_pair]
            )
            assert flat.watch[vehicle.index] == expected

    def test_arrays_consistent_after_full_run(self):
        jobs = JobSequence.from_positions(
            [(0, 0), (0, 1), (5, 5), (2, 7), (0, 0), (5, 6)] * 3
        )
        result = run_online(jobs, capacity="theorem", config=FleetConfig(monitoring=True))
        assert result.feasible

    def test_idle_state_code_round_trip(self):
        fleet = _fleet([(0, 0)])
        flat = fleet.flat
        idle = [
            v
            for v in fleet.vehicles.values()
            if v.status.working == WorkingState.IDLE
        ]
        assert idle
        assert all(flat.state[v.index] == STATE_IDLE for v in idle)
