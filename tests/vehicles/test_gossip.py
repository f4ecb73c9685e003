"""Gossip failure detection with quorum-attested replacement.

The epidemic detector (``FleetConfig(monitoring="gossip")``) replaces the
Section 3.2.5 heartbeat ring's single-watcher initiation with a three-step
accountable pipeline: digests carry recently-heard ``(pair, round)``
entries to ``gossip_fanout`` deterministically-seeded peers; a watcher
opens a suspicion only after ``suspicion_threshold`` independent silent
reports; replacement starts only after ``quorum`` co-signatures.  The
quorum masks up to ``quorum - 1`` Byzantine watchers: liars can flood
suspicions, but honest peers refuse to co-sign for pairs they still hear.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ConfigError, ExperimentEngine, FailureSpec, RunConfig, ScenarioSpec
from repro.core.demand import DemandMap, JobSequence
from repro.core.online import provision_fleet, run_online
from repro.core.stream import StreamDriver
from repro.distsim.failures import FailurePlan
from repro.distsim.keyed import identity_key
from repro.distsim.transport import TransportSpec, build_transport
from repro.vehicles.fleet import Fleet, FleetConfig
from repro.vehicles.gossip import GOSSIP_ENTRY_CAP, peer_draws, peer_indices
from repro.vehicles.messages import ExistingMessage, GossipDigest
from repro.vehicles.monitoring import HEARD_AT_START, is_stale
from repro.vehicles.vehicle import VehicleProcess
from repro.workloads.arrivals import random_arrivals
from repro.workloads.library import build_family_demand

#: One 4-cube under omega=4: eight pairs, so every cube has enough honest
#: watchers for any reasonable suspicion threshold and quorum.
DEMAND = DemandMap({(x, y): 2.0 for x in range(4) for y in range(4)})
JOBS = JobSequence.from_positions(sorted(DEMAND.support()) * 2)
LOSSY = TransportSpec("lossy", {"loss": 0.1, "seed": 3})


def _gossip_fleet(dead=((0, 0),), *, transport=None, **knobs):
    plan = FailurePlan()
    config = FleetConfig(monitoring="gossip", **knobs)
    fleet, fleet_config, _, _ = provision_fleet(
        DEMAND,
        omega=4.0,
        capacity=64.0,
        config=config,
        dead_vehicles=list(dead),
        failure_plan=plan,
        transport=build_transport(transport) if transport is not None else None,
    )
    return fleet, fleet_config


def _run(fleet, fleet_config, recovery_rounds=12):
    return StreamDriver(
        fleet, fleet_config, fleet.failure_plan, JOBS, recovery_rounds=recovery_rounds
    ).run()


def _cube(cx, cy):
    """The vertices of cube ``(cx, cy)`` of a grid cut into 3x3 cubes."""
    xs, ys = range(3 * cx, 3 * cx + 3), range(3 * cy, 3 * cy + 3)
    return [(x, y) for x in xs for y in ys]


def _pair_holders(fleet):
    pairs = sorted(
        {v.pair_key for v in fleet.vehicles.values() if v.pair_key is not None}
    )
    return {p: fleet.registry.get(p) for p in pairs}


def _live_watchers(fleet, *, excluding=()):
    return sorted(
        v.identity
        for v in fleet.vehicles.values()
        if v.monitored_pair is not None
        and not v.broken
        and v.monitored_pair not in excluding
    )


def _pick_peers(identity, draws, candidates):
    """One row of :func:`peer_indices`: up to ``len(draws)`` peers from the
    sorted ``candidates``, the sender excluded."""
    low = bisect_left(candidates, identity)
    member = low < len(candidates) and candidates[low] == identity
    chosen = peer_indices(
        np.asarray(draws, dtype=np.float64).reshape(1, -1), [low], [member], [len(candidates)]
    )
    return [candidates[index] for index in chosen[0].tolist() if index >= 0]


def _peers(identity, counter, candidates, fanout):
    """The peers ``identity`` gossips to at ``counter``: its row of a
    one-vehicle :func:`peer_draws` call, mapped by :func:`_pick_peers`."""
    draws = peer_draws([identity_key(identity)], [counter], fanout)[0].tolist()
    return _pick_peers(identity, draws, candidates)


class TestPeerSelection:
    CANDIDATES = [(x, y) for x in range(5) for y in range(5)]

    def test_deterministic(self):
        a = _peers((1, 2), 7, self.CANDIDATES, 3)
        b = _peers((1, 2), 7, self.CANDIDATES, 3)
        assert a == b

    def test_never_selects_self_and_never_repeats(self):
        for counter in range(40):
            peers = _peers((2, 2), counter, self.CANDIDATES, 4)
            assert (2, 2) not in peers
            assert len(peers) == len(set(peers)) == 4

    def test_counter_varies_the_selection(self):
        draws = {
            tuple(_peers((0, 0), c, self.CANDIDATES, 2)) for c in range(20)
        }
        assert len(draws) > 1

    def test_fanout_larger_than_pool_takes_everyone_else(self):
        pool = [(0, 0), (0, 1), (1, 0)]
        peers = _peers((0, 0), 0, pool, 10)
        assert sorted(peers) == [(0, 1), (1, 0)]

    def test_identity_varies_the_selection(self):
        draws = {
            tuple(_peers(identity, 0, self.CANDIDATES, 2))
            for identity in self.CANDIDATES[:10]
        }
        assert len(draws) > 1

    def test_a_round_of_draws_is_the_rows_of_one_vehicle_calls(self):
        identities = self.CANDIDATES[:7]
        counters = [0, 3, 3, 9, 1, 2**40, 5]
        keys = np.array([identity_key(i) for i in identities], dtype=np.uint64)
        round_draws = peer_draws(keys, counters, 3)
        assert round_draws.shape == (7, 3)
        assert ((0.0 <= round_draws) & (round_draws < 1.0)).all()
        for row, identity, counter in zip(round_draws, identities, counters):
            assert (row == peer_draws([identity_key(identity)], [counter], 3)[0]).all()


# Reference definitions: the straightforward pool-copy peer pick, and the
# per-vehicle dict helpers a gossip round ran on before the detector state
# moved into per-cube blocks.  The block round must reproduce them exactly.


def _reference_select_peers(identity, draws, candidates):
    pool = [peer for peer in candidates if peer != identity]
    chosen = []
    for draw in draws[: len(pool)]:
        chosen.append(pool.pop(int(draw * len(pool))))
    return chosen


def _dict_silent_pairs(pair_keys, own, last_heard, round_id, miss, byzantine):
    last_of = last_heard.get
    return [
        pair_key
        for pair_key in pair_keys
        if pair_key != own
        and (byzantine or is_stale(round_id, last_of(pair_key, HEARD_AT_START), miss))
    ]


def _dict_freshest_entries(last_heard, cap=GOSSIP_ENTRY_CAP):
    cut = sorted(last_heard.values())[-cap] if len(last_heard) > cap > 0 else None
    ranked = sorted(
        [
            (-heard, pair_key)
            for pair_key, heard in last_heard.items()
            if cut is None or heard >= cut
        ]
    )
    return tuple([(pair_key, -heard) for heard, pair_key in ranked[:cap]])


def _dict_digest_silent(gossip_reports):
    return tuple(
        sorted(
            [
                (pair_key, reporter, reported)
                for pair_key, reporters in gossip_reports.items()
                for reporter, reported in reporters.items()
            ]
        )
    )


_points = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


class TestBlockRoundMatchesDictReference:
    """A gossip round read off the blocks equals the dict helpers.

    Random heard and report states (never-heard cells, round ties, more
    entries than the digest cap), Byzantine rows and broken vehicles all go
    through one :meth:`~repro.vehicles.gossip.DetectorBlocks.run_round`;
    every ticking vehicle's silent pairs, freshest entries, digest reports
    and peers must equal the reference computed from its dicts.
    """

    #: Two 5x5 cubes under omega=5: 13 pairs each, more than the cap.
    DEMAND = DemandMap({(x, y): 1.0 for x in range(10) for y in range(5)})

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), round_id=st.integers(1, 7), miss=st.integers(2, 4))
    def test_round(self, data, round_id, miss):
        fleet, _, _, _ = provision_fleet(
            self.DEMAND, omega=5.0, config=FleetConfig(monitoring="gossip")
        )
        vehicles = [fleet.vehicles[identity] for identity in fleet.flat.identities]
        # A dozen rows with random state; every other row never heard.
        stateful = data.draw(st.lists(st.sampled_from(vehicles), unique=True, max_size=12))
        for vehicle in stateful:
            pairs = [pair.black for pair in vehicle.coloring.pairs]
            members = fleet.cube_members(vehicle.cube_index)
            heard = data.draw(
                st.lists(
                    st.tuples(st.sampled_from(pairs), st.integers(0, round_id)),
                    unique_by=lambda entry: entry[0],
                )
            )
            for pair_key, heard_round in heard:  # the order sets first-heard
                fleet.detector_blocks().store(vehicle, pair_key, heard_round)
            reports = data.draw(
                st.dictionaries(
                    st.sampled_from(pairs),
                    st.dictionaries(
                        st.sampled_from(members), st.integers(1, round_id), min_size=1
                    ),
                    max_size=4,
                )
            )
            if reports:
                vehicle.gossip_reports = reports
            vehicle._gossip_counter = data.draw(st.integers(0, 50))
            assert list(vehicle.last_heard.items()) == heard
            assert vehicle.gossip_reports == reports
        # Liars among any rows, and among the rows with state (where a
        # fresh pair tells a liar's report from an honest one).
        liars = data.draw(st.lists(st.sampled_from(vehicles), max_size=6))
        if stateful:
            liars += data.draw(st.lists(st.sampled_from(stateful), max_size=3))
        for vehicle in liars:
            fleet.failure_plan.mark_byzantine_watcher(vehicle.identity)
        for vehicle in data.draw(st.sets(st.sampled_from(vehicles), max_size=6)):
            fleet.crash_vehicle(vehicle.identity)

        ticking = [v for v in vehicles if not v.broken]
        expected = {}
        for vehicle in ticking:
            heard = vehicle.last_heard
            reports = vehicle.gossip_reports
            byzantine = fleet.failure_plan.is_byzantine_watcher(vehicle.identity)
            pairs = [pair.black for pair in vehicle.coloring.pairs]
            for pair_key in _dict_silent_pairs(
                pairs, vehicle.pair_key, heard, round_id, miss, byzantine
            ):
                reports.setdefault(pair_key, {})[vehicle.identity] = round_id
            draws = peer_draws(
                [identity_key(vehicle.identity)],
                [vehicle._gossip_counter],
                fleet.config.gossip_fanout,
            )[0].tolist()
            peers = _reference_select_peers(
                vehicle.identity, draws, fleet.cube_members(vehicle.cube_index)
            )
            expected[vehicle.identity] = (
                peers,
                _dict_freshest_entries(heard),
                _dict_digest_silent(reports),
                reports,
            )

        sent = _record_digests(ticking)
        rows = np.array([v.index for v in ticking], dtype=np.intp)
        fleet.detector_blocks().run_round(round_id, miss, rows)
        assert sent.keys() == expected.keys()
        for vehicle in ticking:
            peers, heard, silent, reports = expected[vehicle.identity]
            assert sent[vehicle.identity] == (peers, heard, silent)
            assert vehicle.gossip_reports == reports


def _record_digests(vehicles):
    """Record the digest each of ``vehicles`` sends, by identity, as
    ``(peers, heard, silent)``."""
    sent = {}
    for vehicle in vehicles:
        def record(destinations, message, identity=vehicle.identity):
            if isinstance(message, GossipDigest):
                sent[identity] = (list(destinations), message.heard, message.silent)

        vehicle.send_many = record
    return sent


def _tick_once(fleet, vehicle, round_id, miss=3):
    """Run one block round for ``vehicle`` alone; returns its digest as
    ``(peers, heard, silent)``."""
    sent = _record_digests([vehicle])
    fleet.detector_blocks().run_round(round_id, miss, np.array([vehicle.index]))
    return sent[vehicle.identity]


class TestBlockRound:
    """The round's rules on hand-made states of one 5x5 cube (13 pairs)."""

    DEMAND = DemandMap({(x, y): 1.0 for x in range(5) for y in range(5)})

    def _fleet(self):
        fleet, _, _, _ = provision_fleet(
            self.DEMAND, omega=5.0, config=FleetConfig(monitoring="gossip")
        )
        pairs = sorted(pair.black for pair in fleet.colorings[(0, 0)].pairs)
        return fleet, pairs

    def test_silent_reports_skip_the_own_pair_and_fresh_ones(self):
        fleet, pairs = self._fleet()
        vehicle = next(v for v in fleet.vehicles.values() if v.pair_key is not None)
        others = [p for p in pairs if p != vehicle.pair_key]
        fresh, stale = others[0], others[1]
        for pair_key, heard in ((vehicle.pair_key, 1), (fresh, 6), (stale, 2)):
            fleet.detector_blocks().store(vehicle, pair_key, heard)
        _tick_once(fleet, vehicle, 5)
        # Never heard counts as heard at round 0: silent from round 3 on.
        silent = {p for p in others if p != fresh}
        assert vehicle.gossip_reports == {p: {vehicle.identity: 5} for p in silent}

    def test_byzantine_reporter_reports_every_other_pair(self):
        fleet, pairs = self._fleet()
        vehicle = next(v for v in fleet.vehicles.values() if v.pair_key is not None)
        for pair_key in pairs:
            fleet.detector_blocks().store(vehicle, pair_key, 5)
        fleet.failure_plan.mark_byzantine_watcher(vehicle.identity)
        _tick_once(fleet, vehicle, 5)
        assert set(vehicle.gossip_reports) == set(pairs) - {vehicle.pair_key}

    def test_freshest_entries_order_by_round_then_pair_and_cap(self):
        fleet, pairs = self._fleet()
        vehicle = fleet.vehicles[pairs[0]]
        rounds = [1, 9, 4, 9, 2, 7, 7, 7, 3, 8, 5, 9]
        for pair_key, heard in zip(reversed(pairs), rounds):
            fleet.detector_blocks().store(vehicle, pair_key, heard)
        _, heard, _ = _tick_once(fleet, vehicle, 9)
        assert len(heard) == GOSSIP_ENTRY_CAP
        assert heard == _dict_freshest_entries(vehicle.last_heard)
        assert [r for _, r in heard] == sorted(rounds, reverse=True)[:GOSSIP_ENTRY_CAP]
        ties = [p for p, r in heard if r == 9]
        assert ties == sorted(ties) and len(ties) == 3

    def test_digest_reports_are_pair_major_reporter_minor(self):
        fleet, pairs = self._fleet()
        vehicle = fleet.vehicles[pairs[0]]
        members = fleet.cube_members((0, 0))
        reports = {
            pairs[5]: {members[9]: 2, members[1]: 3},
            pairs[2]: {members[4]: 1},
        }
        for pair_key in pairs:
            fleet.detector_blocks().store(vehicle, pair_key, 1)
        vehicle.gossip_reports = reports
        _, _, silent = _tick_once(fleet, vehicle, 2)
        assert silent == (
            (pairs[2], members[4], 1),
            (pairs[5], members[1], 3),
            (pairs[5], members[9], 2),
        )


class TestBlockGrowth:
    """A ring fleet under escalation hears pairs of other cubes: a write
    for a pair its row's cube has no column for appends one (widening the
    arrays), and a rehomed row is laid out again under its new cube."""

    #: Nine singleton cubes on the fleet-wide watch ring.
    SPREAD = DemandMap({(3 * x, 3 * y): 2.0 for x in range(3) for y in range(3)})

    def test_foreign_pairs_append_columns_and_keep_first_heard_order(self):
        fleet = Fleet(self.SPREAD, 1.0, FleetConfig(monitoring="ring", escalation=True))
        vehicle, other = fleet.vehicles[(0, 0)], fleet.vehicles[(6, 6)]
        blocks = fleet.detector_blocks()
        # Each cube's one pair plus its foreign watch target.
        assert blocks.heard.shape[1] == 2
        assert blocks.watch_col[vehicle.index] == 1
        blocks.store(other, other.monitored_pair, 4)
        entries = [((6, 6), 3), ((0, 0), 1), ((3, 0), 2), ((0, 6), 5), ((6, 3), 0)]
        for pair_key, round_id in entries:
            blocks.store(vehicle, pair_key, round_id)
        assert blocks.heard.shape[1] >= 5
        assert list(vehicle.last_heard.items()) == entries
        # The widening kept every other row's cells and rebound its views:
        # a heartbeat after it lands in the new arrays.
        assert other.last_heard == {other.monitored_pair: 4}
        other.on_message((3, 3), ExistingMessage((3, 3), (3, 3), 6))
        assert list(other.last_heard.items()) == [(other.monitored_pair, 4), ((3, 3), 6)]
        flagged = blocks.watch_stale(np.array([vehicle.index, other.index]), 6, 3)
        assert flagged.tolist() == [True, False]  # never heard, heard at 4

    def test_a_rehomed_row_moves_to_its_new_cube_in_first_heard_order(self):
        demand = DemandMap({(0, 0): 4.0, (4, 0): 1.0})
        fleet = Fleet(demand, 2.0, FleetConfig(monitoring="ring", escalation=True))
        blocks = fleet.detector_blocks()
        target = fleet.cube_grid.cube_index((0, 0))
        idle = next(
            v for v in fleet.vehicles.values() if v.pair_key is None and v.cube_index != target
        )
        own = next(p.black for p in fleet.colorings[idle.cube_index].pairs)
        far = sorted(p.black for p in fleet.colorings[target].pairs)
        entries = [(far[1], 2), (own, 3), (far[0], 1)]
        for pair_key, round_id in entries:
            blocks.store(idle, pair_key, round_id)
        idle.pair_key = far[0]
        fleet.rehome_vehicle(idle, far[0])
        assert blocks.cube_of[idle.index] == sorted(fleet.colorings).index(target)
        assert idle._heard_cols is blocks._cols[blocks.cube_of[idle.index]]
        assert list(idle.last_heard.items()) == entries
        idle.on_message(far[1], ExistingMessage(far[1], far[1], 4))
        assert idle.last_heard == {far[1]: 4, own: 3, far[0]: 1}


class TestHelpersMatchReferences:
    @settings(max_examples=300, deadline=None)
    @given(
        candidates=st.lists(_points, max_size=40, unique=True).map(sorted),
        identity=_points,
        use_member=st.booleans(),
        counter=st.integers(0, 10_000),
        data=st.data(),
    )
    def test_select_peers(self, candidates, identity, use_member, counter, data):
        if use_member and candidates:
            identity = data.draw(st.sampled_from(candidates))
        fanout = data.draw(st.integers(0, len(candidates) + 2))
        draws = peer_draws([identity_key(identity)], [counter], fanout)[0].tolist()
        # The extremes of [0, 1) too: the first and the last candidate.
        draws = data.draw(st.permutations(draws + [0.0, 1.0 - 2.0**-53]))[:fanout]
        assert _pick_peers(identity, draws, candidates) == (
            _reference_select_peers(identity, draws, candidates)
        )


class TestDigestStreamPin:
    """Every digest a lossy gossip run sends, and the detector state it
    ends in, hashed and pinned: a change that reorders or alters the
    digest stream fails here even when the run's end results hold."""

    SIDE = 9
    DIGEST_STREAM = "8e690bb20812771e3522f9b2eb2dcfa7b44def377178803f4c058060a2e5df08"
    FINAL_STATE = "922ec3ba64ddea5113105ea5c2c327b8139e00fdba1d3d47ff6eac562675b67a"

    def test_digest_stream_and_final_state(self, monkeypatch):
        side = range(self.SIDE)
        demand = DemandMap({(x, y): 1.0 for x in side for y in side})
        jobs = JobSequence.from_positions(sorted(demand.support()) * 2)
        # Six dead in the first cube (it keeps a pair with no spare), two
        # in the middle cube and two in the last; one lying watcher.
        dead = _cube(0, 0)[:6] + _cube(1, 1)[:2] + _cube(2, 2)[:2]
        plan = FailurePlan()
        plan.mark_byzantine_watcher(_cube(1, 1)[-1])
        lossy = TransportSpec("lossy", {"loss": 0.05, "delay": 0.02, "seed": 3})
        fleet, fleet_config, _, _ = provision_fleet(
            demand,
            omega=3.0,
            config=FleetConfig(monitoring="gossip"),
            dead_vehicles=dead,
            failure_plan=plan,
            transport=build_transport(lossy),
        )

        stream = hashlib.sha256()
        sent = []
        send_many = VehicleProcess.send_many

        def recording_send_many(vehicle, destinations, message):
            if isinstance(message, GossipDigest):
                record = (
                    message.sender,
                    message.round_id,
                    message.heard,
                    message.silent,
                    list(destinations),
                )
                stream.update(repr(record).encode("utf-8"))
                sent.append(message)
            send_many(vehicle, destinations, message)

        monkeypatch.setattr(VehicleProcess, "send_many", recording_send_many)
        StreamDriver(fleet, fleet_config, plan, jobs, recovery_rounds=2).run()

        state = hashlib.sha256()
        for identity in sorted(fleet.vehicles):
            vehicle = fleet.vehicles[identity]
            record = (
                identity,
                sorted(vehicle.last_heard.items()),
                sorted(
                    (pair_key, sorted(reporters.items()))
                    for pair_key, reporters in vehicle.gossip_reports.items()
                ),
                sorted(
                    (pair_key, pending["round"], sorted(pending["granted"]))
                    for pair_key, pending in vehicle.pending_suspicions.items()
                ),
            )
            state.update(repr(record).encode("utf-8"))

        assert len(sent) == 12922
        assert fleet.stats.suspicions > 0 and fleet.network.messages_dropped > 0
        assert stream.hexdigest() == self.DIGEST_STREAM
        assert state.hexdigest() == self.FINAL_STATE


class TestCubeScope:
    """Digests never leave the sender's cube, so a vehicle's detector state
    covers its own cube's pairs and nothing else."""

    @staticmethod
    def _grid(side):
        return DemandMap({(x, y): 1.0 for x in range(side) for y in range(side)})

    def test_digests_stay_in_the_sender_cube_including_after_a_rehome(
        self, monkeypatch
    ):
        fleet, _, _, _ = provision_fleet(
            self._grid(9), omega=3.0, config=FleetConfig(monitoring="gossip")
        )
        migrant = next(
            v for v in fleet.vehicles.values()
            if v.pair_key is None and v.cube_index != (2, 2)
        )
        home = migrant.cube_index
        fleet.rehome_vehicle(migrant, fleet.colorings[(2, 2)].pairs[0].black)
        assert migrant.cube_index == (2, 2)
        assert migrant.identity in fleet.cube_members((2, 2))
        assert migrant.identity not in fleet.cube_members(home)

        digests = []
        send_many = VehicleProcess.send_many

        def recording_send_many(vehicle, destinations, message):
            if isinstance(message, GossipDigest):
                digests.append((vehicle, list(destinations)))
            send_many(vehicle, destinations, message)

        monkeypatch.setattr(VehicleProcess, "send_many", recording_send_many)
        for _ in range(4):
            fleet.run_heartbeat_round()
        assert len(digests) == 4 * len(fleet.vehicles)
        for sender, destinations in digests:
            assert destinations and sender.identity not in destinations
            assert all(
                fleet.vehicles[d].cube_index == sender.cube_index for d in destinations
            )
        migrant_sent = [d for sender, d in digests if sender is migrant]
        assert len(migrant_sent) == 4
        assert all(set(d) <= set(_cube(2, 2)) for d in migrant_sent)

    def test_a_vehicle_alone_in_its_cube_sends_no_digest(self):
        # Under omega=1 every cube is one vertex: nobody to gossip with.
        fleet, _, _, _ = provision_fleet(
            DemandMap({(x, 0): 1.0 for x in range(3)}),
            omega=1.0,
            config=FleetConfig(monitoring="gossip"),
        )
        assert all(not v.cube_peers for v in fleet.vehicles.values())
        for _ in range(3):
            fleet.run_heartbeat_round()
        assert fleet.network.messages_sent == 0

    def test_detector_state_covers_only_the_cube_pairs(self):
        # The perfbench crash shape at side 12: ten dead, one lying watcher,
        # 5% loss.
        plan = FailurePlan()
        plan.mark_byzantine_watcher(_cube(2, 2)[-1])
        demand = self._grid(12)
        fleet, fleet_config, _, _ = provision_fleet(
            demand,
            omega=3.0,
            config=FleetConfig(monitoring="gossip"),
            dead_vehicles=_cube(0, 0)[:6] + _cube(2, 2)[:2] + _cube(3, 3)[:2],
            failure_plan=plan,
            transport=build_transport(
                TransportSpec("lossy", {"loss": 0.05, "delay": 0.02, "seed": 3})
            ),
        )
        jobs = JobSequence.from_positions(sorted(demand.support()))
        StreamDriver(fleet, fleet_config, plan, jobs, recovery_rounds=2).run()
        assert fleet.stats.suspicions > 0 and fleet.network.messages_dropped > 0
        for vehicle in fleet.vehicles.values():
            pairs = {pair.black for pair in vehicle.coloring.pairs}
            assert vehicle.last_heard.keys() <= pairs
            assert vehicle.gossip_reports.keys() <= pairs
        assert any(len(v.last_heard) > 1 for v in fleet.vehicles.values())

    def test_crash_free_side16_lossy_run_makes_no_replacement(self):
        demand = build_family_demand("scale-up", {"side": 16, "per_point": 1.0})
        result = run_online(
            random_arrivals(demand, np.random.default_rng(0)),
            omega=3.0,
            capacity="theorem",
            config=FleetConfig(monitoring="gossip"),
            transport=TransportSpec("lossy", {"loss": 0.05, "delay": 0.02, "seed": 3}),
        )
        assert result.messages_dropped > 0
        assert result.replacements == 0 and result.searches == 0
        assert result.jobs_served == result.jobs_total


class TestFleetConfigValidation:
    def test_rejects_unknown_monitoring_mode(self):
        with pytest.raises(ValueError, match="monitoring"):
            FleetConfig(monitoring="broadcast")

    def test_rejects_quorum_above_suspicion_threshold(self):
        with pytest.raises(ValueError, match="quorum"):
            FleetConfig(monitoring="gossip", suspicion_threshold=2, quorum=3)

    def test_rejects_gossip_with_escalation(self):
        with pytest.raises(ValueError, match="escalation"):
            FleetConfig(monitoring="gossip", escalation=True)

    def test_rejects_non_positive_knobs(self):
        for knob in ("gossip_fanout", "suspicion_threshold", "quorum"):
            with pytest.raises(ValueError, match=knob):
                FleetConfig(monitoring="gossip", **{knob: 0})

    def test_ring_spelling_keeps_truthiness(self):
        assert bool(FleetConfig(monitoring="ring").monitoring)
        assert bool(FleetConfig(monitoring="gossip").monitoring)
        assert not bool(FleetConfig().monitoring)


class TestCrashDetection:
    def test_crashed_pair_is_replaced(self):
        fleet, fleet_config = _gossip_fleet()
        served = _run(fleet, fleet_config)
        assert served == len(JOBS)
        assert fleet.registry.get((0, 0)) not in (None, (0, 0))
        assert fleet.stats.suspicions >= 1
        assert fleet.stats.attestations >= fleet.config.quorum

    def test_detection_latency_is_recorded(self):
        fleet, fleet_config = _gossip_fleet()
        _run(fleet, fleet_config)
        assert fleet.detection_digest.count == 1
        assert fleet.detection_digest.quantile(0.5) >= 1.0

    def test_no_failures_means_no_suspicions(self):
        fleet, fleet_config = _gossip_fleet(dead=())
        served = _run(fleet, fleet_config, recovery_rounds=0)
        assert served == len(JOBS)
        assert fleet.stats.suspicions == 0
        assert fleet.stats.false_suspicions == 0
        assert fleet.detection_digest.count == 0

    def test_lossy_channel_still_replaces_and_serves(self):
        fleet, fleet_config = _gossip_fleet(transport=LOSSY)
        served = _run(fleet, fleet_config)
        assert served == len(JOBS)
        assert fleet.registry.get((0, 0)) not in (None, (0, 0))


class TestQuorumMasking:
    """``quorum - 1`` Byzantine watchers cannot trigger a spurious takeover."""

    def _masked_run(self, *, transport=None, quorum=2, suspicion_threshold=2):
        fleet, fleet_config = _gossip_fleet(
            transport=transport,
            quorum=quorum,
            suspicion_threshold=suspicion_threshold,
        )
        liars = _live_watchers(fleet, excluding=((0, 0),))[: quorum - 1]
        assert len(liars) == quorum - 1
        for liar in liars:
            fleet.failure_plan.mark_byzantine_watcher(liar)
        healthy_before = {
            pair: holder
            for pair, holder in _pair_holders(fleet).items()
            if pair != (0, 0)
        }
        served = _run(fleet, fleet_config)
        healthy_after = {pair: fleet.registry.get(pair) for pair in healthy_before}
        return fleet, served, healthy_before, healthy_after

    def test_zero_spurious_takeovers_on_reliable_channel(self):
        fleet, served, before, after = self._masked_run()
        assert after == before  # nobody stole a living vehicle's pair
        assert served == len(JOBS)
        assert fleet.registry.get((0, 0)) not in (None, (0, 0))  # real crash handled
        assert fleet.stats.false_suspicions > 0  # the liar really did lie
        assert fleet.stats.refused_attestations > 0  # honest peers refused to co-sign

    def test_zero_spurious_takeovers_under_loss(self):
        fleet, served, before, after = self._masked_run(transport=LOSSY)
        assert after == before
        assert served == len(JOBS)
        assert fleet.registry.get((0, 0)) not in (None, (0, 0))

    def test_zero_spurious_takeovers_under_corruption(self):
        fleet, served, before, after = self._masked_run(
            transport=TransportSpec("corrupting", {"rate": 0.1, "seed": 3})
        )
        assert after == before
        assert fleet.registry.get((0, 0)) not in (None, (0, 0))

    def test_wider_quorum_masks_two_liars(self):
        fleet, served, before, after = self._masked_run(
            quorum=3, suspicion_threshold=3
        )
        assert after == before
        assert served == len(JOBS)
        assert fleet.registry.get((0, 0)) not in (None, (0, 0))


class TestRingDetectionLatency:
    def test_ring_records_detections_too(self):
        result = run_online(
            JOBS,
            omega=4.0,
            capacity=64.0,
            config=FleetConfig(monitoring=True),
            dead_vehicles=[(0, 0)],
            recovery_rounds=8,
        )
        assert result.monitoring_mode == "ring"
        assert result.detections == 1
        assert result.detection_p50 >= 1.0

    def test_gossip_result_carries_the_accountability_counters(self):
        result = run_online(
            JOBS,
            omega=4.0,
            capacity=64.0,
            config=FleetConfig(monitoring="gossip"),
            dead_vehicles=[(0, 0)],
            recovery_rounds=12,
        )
        assert result.monitoring_mode == "gossip"
        assert result.feasible
        assert result.detections == 1
        assert result.suspicions >= 1
        assert result.attestations >= 2


class TestSolverValidation:
    def _config(self, solver="online-broken", **params):
        return RunConfig(
            solver=solver,
            scenario=ScenarioSpec.from_demand(DEMAND, name="gossip-grid"),
            capacity=64.0,
            omega=4.0,
            failures=FailureSpec(crashed=((0, 0),)) if solver == "online-broken" else None,
            recovery_rounds=12 if solver == "online-broken" else 0,
            params=params,
        )

    def test_unknown_monitoring_param_is_a_config_error(self):
        with pytest.raises(ConfigError, match="monitoring"):
            ExperimentEngine().run(self._config(monitoring="broadcast"))

    def test_quorum_above_suspicion_threshold_is_a_config_error(self):
        with pytest.raises(ConfigError, match="quorum"):
            ExperimentEngine().run(
                self._config(monitoring="gossip", suspicion_threshold=2, quorum=3)
            )

    def test_gossip_param_runs_and_fills_extras(self):
        result = ExperimentEngine().run(self._config(monitoring="gossip"))
        assert result.feasible
        assert result.extra("monitoring_mode") == "gossip"
        assert int(result.extra("detections", 0)) == 1
        assert float(result.extra("detection_p50", 0.0)) >= 1.0

    def test_byzantine_watcher_count_lands_in_extras(self):
        config = RunConfig(
            solver="online-broken",
            scenario=ScenarioSpec.from_demand(DEMAND, name="gossip-grid"),
            capacity=64.0,
            omega=4.0,
            failures=FailureSpec(
                crashed=((0, 0),), byzantine_watchers=((1, 1),)
            ),
            recovery_rounds=12,
            params={"monitoring": "gossip"},
        )
        result = ExperimentEngine().run(config)
        assert result.feasible
        assert int(result.extra("byzantine_watchers", 0)) == 1


class TestCliValidation:
    """PR 3 convention: flag misuse is a clean exit 2, never a traceback."""

    @pytest.fixture
    def demand_path(self, tmp_path):
        from repro.io.serialize import demand_to_json, save_json

        path = tmp_path / "demand.json"
        save_json(demand_to_json(DEMAND), path)
        return str(path)

    def _main(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_monitoring_rejected_on_non_transport_solver(self, demand_path, capsys):
        code = self._main(
            "run", "--demand-json", demand_path, "--solver", "greedy",
            "--monitoring", "gossip",
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_gossip_knobs_rejected_on_non_transport_solver(self, demand_path, capsys):
        code = self._main(
            "run", "--demand-json", demand_path, "--solver", "offline",
            "--quorum", "2",
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_gossip_knobs_need_gossip_monitoring(self, demand_path, capsys):
        code = self._main(
            "run", "--demand-json", demand_path, "--solver", "online",
            "--gossip-fanout", "3",
        )
        assert code == 2
        assert "--monitoring gossip" in capsys.readouterr().err

    def test_quorum_above_suspicion_threshold_is_exit_2(self, demand_path, capsys):
        code = self._main(
            "run", "--demand-json", demand_path, "--solver", "online-broken",
            "--crash", "0,0", "--recovery-rounds", "12", "--omega", "4",
            "--capacity", "64", "--monitoring", "gossip",
            "--suspicion-threshold", "2", "--quorum", "3",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "quorum" in err

    def test_gossip_run_succeeds_on_transport_solver(self, demand_path, capsys):
        code = self._main(
            "run", "--demand-json", demand_path, "--solver", "online-broken",
            "--crash", "0,0", "--recovery-rounds", "12", "--omega", "4",
            "--capacity", "64", "--monitoring", "gossip",
            "--byzantine-watcher", "1,1",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "monitoring_mode" in out
        assert "byzantine_watchers" in out

    def test_serve_gossip_knobs_need_gossip_monitoring(self, demand_path, capsys):
        code = self._main(
            "serve", "--demand-json", demand_path, "--jobs", "8",
            "--monitoring", "ring", "--quorum", "2",
        )
        assert code == 2
        assert "--monitoring gossip" in capsys.readouterr().err

    def test_serve_runs_with_gossip_monitoring(self, demand_path, capsys):
        code = self._main(
            "serve", "--demand-json", demand_path, "--jobs", "32",
            "--omega", "4", "--capacity", "64", "--crash", "0,0",
            "--recovery-rounds", "12", "--monitoring", "gossip",
            "--gossip-fanout", "3",
        )
        assert code == 0
        assert "Service run" in capsys.readouterr().out
