"""Tests for the monitoring-pointer assignment (Section 3.2.5)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.service import ServiceConfig
from repro.core.demand import DemandMap, JobSequence
from repro.core.online import provision_fleet, run_online
from repro.core.stream import StreamDriver
from repro.distsim.failures import ChurnSpec
from repro.distsim.transport import TransportSpec, build_transport
from repro.grid.coloring import Coloring
from repro.grid.lattice import Box
from repro.service import checkpoint, resume_service, run_service
from repro.vehicles.fleet import Fleet, FleetConfig
from repro.vehicles.messages import ActivationNotice, ExistingMessage
from repro.vehicles.monitoring import (
    HEARD_AT_START,
    enough_reporters,
    grant_attestation,
    is_silent,
    is_stale,
    quorum_reached,
    watched_pair_key,
)
from repro.vehicles.registry import STATE_ACTIVE
from repro.vehicles.vehicle import VehicleProcess
from repro.workloads.arrivals import random_arrivals
from repro.workloads.library import build_family_demand


def _assignment(coloring):
    """The full pair -> watched-pair map of one cube."""
    return {pair.black: watched_pair_key(coloring, pair.black) for pair in coloring.pairs}


class TestWatchedPairKey:
    def test_single_pair_cube_has_nothing_to_watch(self):
        coloring = Coloring(Box.cube((0, 0), 1))
        only_pair = coloring.pairs[0].black
        assert watched_pair_key(coloring, only_pair) is None

    def test_two_pair_cube_watches_each_other(self):
        coloring = Coloring(Box.cube((0, 0), 2))
        keys = [pair.black for pair in coloring.pairs]
        assert watched_pair_key(coloring, keys[0]) == keys[1]
        assert watched_pair_key(coloring, keys[1]) == keys[0]

    def test_watch_relation_is_a_cycle(self):
        coloring = Coloring(Box.cube((0, 0), 4))
        keys = [pair.black for pair in coloring.pairs]
        assignment = _assignment(coloring)
        # Following the pointers visits every pair exactly once before
        # returning to the start (a single cycle over all pairs).
        start = keys[0]
        seen = [start]
        current = assignment[start]
        while current != start:
            assert current is not None
            seen.append(current)
            current = assignment[current]
        assert sorted(seen) == sorted(keys)

    def test_every_pair_watched_exactly_once(self):
        coloring = Coloring(Box.cube((0, 0), 3))
        assignment = _assignment(coloring)
        watched = [target for target in assignment.values() if target is not None]
        assert len(watched) == len(set(watched))
        assert len(watched) == len(coloring.pairs)

    def test_no_pair_watches_itself(self):
        coloring = Coloring(Box.cube((0, 0), 5))
        for pair_key, watched in _assignment(coloring).items():
            assert watched != pair_key


A, B, C = (0, 0), (0, 2), (2, 0)


class TestStalenessRule:
    @pytest.mark.parametrize("miss", [1, 3, 7])
    def test_stale_exactly_at_the_miss_threshold(self, miss):
        assert is_stale(10 + miss, 10, miss)
        assert not is_stale(10 + miss - 1, 10, miss)

    def test_never_heard_pair_counts_as_heard_at_round_zero(self):
        assert HEARD_AT_START == 0
        assert is_silent({}, A, 3, 3)
        assert not is_silent({}, A, 2, 3)
        assert not is_silent({A: 5}, A, 7, 3)
        assert is_silent({A: 5}, A, 8, 3)

    def test_rule_is_elementwise_on_arrays(self):
        last = np.array([0, 4, 5, 9])
        assert is_stale(8, last, 4).tolist() == [True, True, False, False]


class TestMissThresholdValidation:
    """Below 2 every healthy pair reads stale every round: a round's
    heartbeats are checked before they are delivered."""

    @pytest.mark.parametrize("miss", [1, 0, -1])
    def test_rejects_thresholds_below_two(self, miss):
        with pytest.raises(ValueError, match="heartbeat_miss_threshold"):
            FleetConfig(monitoring=True, heartbeat_miss_threshold=miss)

    @pytest.mark.parametrize("miss", [2.0, 3.5, "3", None])
    def test_rejects_non_integers(self, miss):
        with pytest.raises(ValueError, match="heartbeat_miss_threshold"):
            FleetConfig(heartbeat_miss_threshold=miss)

    def test_two_is_accepted_and_searches_only_for_the_dead_pair(self):
        demand = DemandMap({(x, y): 2.0 for x in range(4) for y in range(4)})
        result = run_online(
            JobSequence.from_positions(sorted(demand.support()) * 2),
            omega=2.0,
            capacity=64.0,
            config=FleetConfig(monitoring=True, heartbeat_miss_threshold=2),
            dead_vehicles=[(0, 0)],
            recovery_rounds=2,
        )
        assert result.searches == 1 and result.replacements == 1
        assert result.failed_replacements == 0


class TestGossipRules:
    def test_enough_reporters_counts_the_watcher_once(self):
        assert enough_reporters({B: 4}, A, 2)
        assert not enough_reporters({B: 4}, A, 3)
        assert not enough_reporters({A: 4}, A, 2)  # the watcher's own report
        assert enough_reporters((), A, 1)
        assert not enough_reporters((), A, 2)

    def test_grant_needs_a_silent_view_of_another_pair(self):
        assert grant_attestation(2, 5, 3, own_pair=False, byzantine=False)
        assert not grant_attestation(2, 4, 3, own_pair=False, byzantine=False)
        assert grant_attestation(HEARD_AT_START, 3, 3, own_pair=False, byzantine=False)
        assert not grant_attestation(2, 5, 3, own_pair=True, byzantine=False)

    def test_byzantine_attester_inverts_its_grant(self):
        assert not grant_attestation(2, 5, 3, own_pair=False, byzantine=True)
        assert grant_attestation(2, 4, 3, own_pair=False, byzantine=True)
        assert grant_attestation(2, 5, 3, own_pair=True, byzantine=True)

    def test_quorum_counts_distinct_signers(self):
        assert not quorum_reached([B, B], 2)
        assert quorum_reached([B, C], 2)
        assert quorum_reached({B, C, A}, 3)
        assert not quorum_reached(set(), 1)


class TestVectorizedStaleFlag:
    """``Fleet._plain_heartbeats`` flags watchers with one gather of the
    watched cells of the detector blocks; it must flag exactly the
    vehicles the scalar rule calls silent."""

    @settings(max_examples=40, deadline=None)
    @given(miss=st.integers(1, 6), lag=st.integers(-1, 3), data=st.data())
    def test_flag_matches_the_scalar_rule(self, miss, lag, data):
        # Rounds near the threshold, where a never-heard pair's reading
        # as "heard at round 0" decides the flag.
        round_id = max(1, miss + lag)
        demand = DemandMap({(x, y): 1.0 for x in range(6) for y in range(6)})
        fleet = Fleet(demand, 3.0, FleetConfig(monitoring="ring"))
        # Per watcher: never heard, heard at a round around the threshold,
        # or watching nothing.
        heard = st.one_of(
            st.none(),
            st.just("never"),
            st.integers(max(0, round_id - miss - 1), round_id),
        )
        for vehicle in fleet.vehicles.values():
            if vehicle.monitored_pair is None:
                continue
            value = data.draw(heard)
            if value is None:
                vehicle.monitored_pair = None
                continue
            last_heard = vehicle.last_heard
            if value == "never":
                last_heard.pop(vehicle.monitored_pair, None)
            else:
                last_heard[vehicle.monitored_pair] = value
            vehicle.last_heard = last_heard

        flagged = []
        for vehicle in fleet.vehicles.values():
            vehicle.heartbeat = lambda r, m, vehicle=vehicle: flagged.append(vehicle.identity)
        senders = np.nonzero(fleet.flat.state_view() == STATE_ACTIVE)[0]
        fleet._plain_heartbeats(senders, round_id, miss, fleet._vehicles_by_index())

        expected = [
            vehicle.identity
            for vehicle in sorted(fleet.vehicles.values(), key=lambda v: v.index)
            if vehicle.monitored_pair is not None
            and is_silent(vehicle.last_heard, vehicle.monitored_pair, round_id, miss)
        ]
        assert flagged == expected


#: The sentinels of the registry's former watch-heard column, which the
#: pinned state hashes cover: watching nothing, and watching a pair never
#: heard from.
_WATCH_NONE = 2**62
_WATCH_NEVER = -(2**62)


class TestRingDetectorPin:
    """Every ring watch initiation a run makes, and the freshness state it
    ends in, hashed and pinned: a change to the ring heartbeat that moves
    a takeover by one round, or leaves a different ``last_heard`` or
    watched-pair round behind, fails here even when the run's end results
    hold."""

    @staticmethod
    def _run(
        demand, jobs, *, omega, capacity, config, dead, transport, recovery_rounds, monkeypatch
    ):
        fleet, fleet_config, _, _ = provision_fleet(
            demand,
            omega=omega,
            capacity=capacity,
            config=config,
            dead_vehicles=dead,
            transport=build_transport(transport),
        )
        initiations = []
        record = Fleet.record_watch_initiation

        def recording(fleet, identity, pair_key):
            initiations.append((fleet.heartbeat_round, identity, pair_key))
            record(fleet, identity, pair_key)

        monkeypatch.setattr(Fleet, "record_watch_initiation", recording)
        StreamDriver(
            fleet, fleet_config, fleet.failure_plan, jobs, recovery_rounds=recovery_rounds
        ).run()
        monkeypatch.undo()

        state = hashlib.sha256()
        for identity in sorted(fleet.vehicles):
            vehicle = fleet.vehicles[identity]
            watched = vehicle.monitored_pair
            heard = (
                _WATCH_NONE if watched is None else vehicle.last_heard.get(watched, _WATCH_NEVER)
            )
            state.update(repr((identity, sorted(vehicle.last_heard.items()), heard)).encode())
        return fleet, initiations, state.hexdigest()

    @staticmethod
    def _digest(initiations):
        return hashlib.sha256(repr(initiations).encode()).hexdigest()

    def test_lossy_crash_run(self, monkeypatch):
        # The ``lossy_crash_jobs_per_sec`` gate's shape: side-12 scale-up,
        # ten dead vehicles, 5% edge-keyed loss, two recovery rounds.
        side = 12

        def cube(cx, cy):
            return [(x, y) for x in range(3 * cx, 3 * cx + 3) for y in range(3 * cy, 3 * cy + 3)]

        demand = build_family_demand("scale-up", {"side": side, "per_point": 1.0})
        jobs = random_arrivals(demand, np.random.default_rng(0))
        fleet, initiations, state = self._run(
            demand,
            jobs,
            omega=3.0,
            capacity="theorem",
            config=FleetConfig(monitoring="ring"),
            dead=cube(0, 0)[:6] + cube(2, 2)[:2] + cube(3, 3)[:2],
            transport=TransportSpec("lossy", {"loss": 0.05, "delay": 0.02, "seed": 3}),
            recovery_rounds=2,
            monkeypatch=monkeypatch,
        )
        assert len(initiations) == 63
        assert fleet.stats.replacements == 29
        assert self._digest(initiations) == (
            "70cc9bb1b67d0e3c30e40ee0556713b66fc50facfc6fb60cdd1d08c7f452e26f"
        )
        assert state == "201a0006dd033c07b1b0dcfe05cc8b2864c1a9a8beb58eafb6921d5e8abee10b"

    def test_lossy_escalation_run_with_adoptions(self, monkeypatch):
        # Sixteen singleton cubes on the fleet-wide watch ring.  (0, 0)
        # and (0, 3) are consecutive on the ring, so the adopter of (0, 0)
        # watches the dead (0, 3) for its adopted pair -- a watch duty only
        # an adopter's heartbeat carries.
        demand = DemandMap({(3 * x, 3 * y): 2.0 for x in range(4) for y in range(4)})
        jobs = JobSequence.from_positions(sorted(demand.support()) * 2)
        fleet, initiations, state = self._run(
            demand,
            jobs,
            omega=1.0,
            capacity=24.0,
            config=FleetConfig(monitoring="ring", escalation=True),
            dead=[(0, 0), (0, 3), (6, 6)],
            transport=TransportSpec("lossy", {"loss": 0.1, "delay": 0.02, "seed": 11}),
            recovery_rounds=6,
            monkeypatch=monkeypatch,
        )
        assert fleet.stats.adoptions == 3
        assert (7, (3, 0), (0, 3)) in initiations  # an adopted pair's watch fired
        assert len(initiations) == 11
        assert self._digest(initiations) == (
            "93aa201fb13e9dca94da0074175d79496a92e472e51a271f17235fec763be561"
        )
        assert state == "963c70e1e30fcdba30b34db95a6d22a7e25f5e665c67a5e4e4385554e21e9abb"


class _DictDetector:
    """The ring detector's last-heard state as one dict per vehicle,
    written by copies of the dict handlers the detector blocks replaced: a
    heartbeat keeps the fresher round, and an activation notice, a
    takeover and a grace overwrite the entry."""

    def __init__(self):
        self.heard = {}

    def of(self, vehicle):
        return self.heard.setdefault(vehicle, {})

    def existing(self, vehicle, message):
        heard = self.of(vehicle)
        if message.round_id > heard.get(message.pair_key, -1):
            heard[message.pair_key] = message.round_id

    def grace(self, vehicle, watched, current):
        if watched is not None and self.of(vehicle).get(watched, -1) < current:
            self.of(vehicle)[watched] = current

    def seed(self, fleet, payload):
        """Start a restored fleet's dicts from its snapshot entries."""
        for index, entry in payload["vehicles"].items():
            vehicle = fleet.vehicles[fleet.flat.identities[int(index)]]
            self.heard[vehicle] = {
                tuple(pair): round_id for pair, round_id in entry.get("last_heard", ())
            }


def _replay_dict_detector(monkeypatch):
    """Run the dict reference next to every fleet built from here on, and
    check the two against each other before and after every heartbeat
    round; returns the reference and the list of checked fleets."""
    reference = _DictDetector()
    fleets = []
    on_message = VehicleProcess.on_message
    take_over = VehicleProcess._take_over
    grace = VehicleProcess._grace_new_watch
    run_round = Fleet.run_heartbeat_round
    restore = checkpoint.restore_fleet_state

    def delivering(vehicle, sender, message):
        if type(message) is ExistingMessage:
            reference.existing(vehicle, message)
        elif type(message) is ActivationNotice:
            reference.of(vehicle)[message.pair_key] = vehicle.fleet.heartbeat_round
        on_message(vehicle, sender, message)

    def taking_over(vehicle, pair_key, round_id):
        reference.of(vehicle)[pair_key] = round_id
        take_over(vehicle, pair_key, round_id)

    def gracing(vehicle, watched):
        reference.grace(vehicle, watched, vehicle.fleet.heartbeat_round)
        grace(vehicle, watched)

    def checking(fleet, **kwargs):
        _assert_matches_reference(fleet, reference)
        run_round(fleet, **kwargs)
        _assert_matches_reference(fleet, reference)
        fleets.append(fleet)

    def restoring(fleet, payload):
        restore(fleet, payload)
        reference.seed(fleet, payload)

    monkeypatch.setattr(VehicleProcess, "on_message", delivering)
    monkeypatch.setattr(VehicleProcess, "_take_over", taking_over)
    monkeypatch.setattr(VehicleProcess, "_grace_new_watch", gracing)
    monkeypatch.setattr(Fleet, "run_heartbeat_round", checking)
    monkeypatch.setattr(checkpoint, "restore_fleet_state", restoring)
    return reference, fleets


def _assert_matches_reference(fleet, reference):
    """Every vehicle's ``last_heard`` equals its reference dict, order
    included; the blocks' vectorized watch flag equals ``is_silent`` on the
    reference over the next rounds; and every broadcast audience is a
    tuple."""
    vehicles = fleet._vehicles_by_index()
    for vehicle in vehicles:
        assert type(vehicle.cube_peers) is tuple
        assert list(vehicle.last_heard.items()) == list(reference.of(vehicle).items())
    assert all(type(members) is tuple for members in fleet._cube_members.values())
    blocks = fleet.detector
    if blocks is None:
        return
    rows = np.arange(len(vehicles))
    miss = fleet.config.heartbeat_miss_threshold
    for round_id in range(fleet.heartbeat_round + 1, fleet.heartbeat_round + miss + 2):
        expected = [
            vehicle.monitored_pair is not None
            and is_silent(reference.of(vehicle), vehicle.monitored_pair, round_id, miss)
            for vehicle in vehicles
        ]
        assert blocks.watch_stale(rows, round_id, miss).tolist() == expected


class TestDetectorBlocksMatchTheDictReference:
    """The detector blocks hold what the per-vehicle dicts they replaced
    held: before and after every heartbeat round, through takeovers,
    adoptions, hand-backs, rehomings and a checkpoint restore, each
    vehicle's ``last_heard`` (order included) and the vectorized watch
    flag equal a replay of the dict handlers."""

    @staticmethod
    def _rehomings(monkeypatch):
        rehomed = []
        original = Fleet.rehome_vehicle

        def recording(fleet, vehicle, pair_key):
            original(fleet, vehicle, pair_key)
            assert type(vehicle.cube_peers) is tuple
            rehomed.append(vehicle.identity)

        monkeypatch.setattr(Fleet, "rehome_vehicle", recording)
        return rehomed

    @pytest.mark.parametrize(
        "transport",
        [
            TransportSpec("reliable", {"delay": 0.02}),
            TransportSpec("lossy", {"loss": 0.05, "delay": 0.02, "seed": 3}),
        ],
        ids=["reliable", "lossy"],
    )
    def test_ring_run_with_takeovers(self, transport, monkeypatch):
        # perfbench's crash pattern at side 9: six of the first cube's nine
        # vehicles, two of the middle cube's and two of the last cube's die.
        def cube(cx, cy):
            return [(x, y) for x in range(3 * cx, 3 * cx + 3) for y in range(3 * cy, 3 * cy + 3)]

        _, fleets = _replay_dict_detector(monkeypatch)
        demand = build_family_demand("scale-up", {"side": 9, "per_point": 1.0})
        result = run_online(
            random_arrivals(demand, np.random.default_rng(0)),
            omega=3.0,
            capacity="theorem",
            config=FleetConfig(monitoring="ring"),
            dead_vehicles=cube(0, 0)[:6] + cube(1, 1)[:2] + cube(2, 2)[:2],
            recovery_rounds=2,
            transport=build_transport(transport),
        )
        assert result.replacements > 0
        assert len(fleets) == result.heartbeat_rounds

    def test_hand_back_churn_run(self, monkeypatch):
        _, fleets = _replay_dict_detector(monkeypatch)
        demand = DemandMap({(3 * x, 3 * y): 2.0 for x in range(3) for y in range(3)})
        jobs = JobSequence.from_positions(sorted(demand.support()) * 2)
        fleet, fleet_config, _, _ = provision_fleet(
            demand,
            omega=1.0,
            capacity=24.0,
            config=FleetConfig(monitoring="ring", escalation=True, hand_back=True),
            dead_vehicles=[(0, 0)],
        )
        StreamDriver(
            fleet,
            fleet_config,
            fleet.failure_plan,
            jobs,
            recovery_rounds=6,
            churn=(ChurnSpec(time=12.5, vertex=(0, 0), action="join"),),
        ).run()
        assert fleet.stats.adoptions == 1 and fleet.stats.hand_backs == 1
        assert fleets and all(checked is fleet for checked in fleets)

    def test_lossy_escalation_run_with_adoptions(self, monkeypatch):
        # TestRingDetectorPin's escalation run: an adopter hears and
        # watches pairs of other cubes.
        _, fleets = _replay_dict_detector(monkeypatch)
        demand = DemandMap({(3 * x, 3 * y): 2.0 for x in range(4) for y in range(4)})
        fleet, fleet_config, _, _ = provision_fleet(
            demand,
            omega=1.0,
            capacity=24.0,
            config=FleetConfig(monitoring="ring", escalation=True),
            dead_vehicles=[(0, 0), (0, 3), (6, 6)],
            transport=build_transport(
                TransportSpec("lossy", {"loss": 0.1, "delay": 0.02, "seed": 11})
            ),
        )
        jobs = JobSequence.from_positions(sorted(demand.support()) * 2)
        StreamDriver(fleet, fleet_config, fleet.failure_plan, jobs, recovery_rounds=6).run()
        assert fleet.stats.adoptions == 3
        assert any(
            fleet._pair_cube[pair_key] != vehicle.cube_index
            for vehicle in fleet.vehicles.values()
            for pair_key in vehicle.last_heard
        )
        assert fleets and all(checked is fleet for checked in fleets)

    def test_rehoming_run_and_checkpoint_restore(self, tmp_path, monkeypatch):
        # Idle vehicles of the second cube migrate into the first (an
        # escalated takeover rehomes them) before the fourth checkpoint.
        rehomed = self._rehomings(monkeypatch)
        _, fleets = _replay_dict_detector(monkeypatch)
        demand = DemandMap({(0, 0): 4.0, (4, 0): 1.0})
        jobs = list(JobSequence.from_positions([(0, 0)] * 4 + [(4, 0)] * 4).jobs)
        config = ServiceConfig.from_demand(
            demand,
            omega=2.0,
            capacity=5.0,
            fleet=FleetConfig(monitoring="ring", escalation=True),
            dead_vehicles=((0, 1), (1, 0), (1, 1)),
            recovery_rounds=6,
            window_jobs=1,
            checkpoint_every=1,
        )
        full = run_service(config, jobs)
        assert len(rehomed) == 2
        snapshot = tmp_path / "snap.json"
        run_service(config, jobs, checkpoint_path=str(snapshot), stop_after_checkpoints=4)
        assert len(rehomed) == 4  # both rehomings precede the snapshot
        saved = json.loads(snapshot.read_text())["fleet"]["vehicles"]
        assert any(len(entry.get("last_heard", ())) > 1 for entry in saved.values())
        resumed_from = len(fleets)
        resumed = resume_service(str(snapshot), jobs)
        restored = fleets[resumed_from]
        assert {restored.vehicles[identity].cube_index for identity in rehomed[2:]} == {
            restored.cube_grid.cube_index((0, 0))
        }
        assert resumed.fleet_digest == full.fleet_digest


class TestBlocksStayLazy:
    """The detector blocks are allocated by the first heartbeat round or
    detector write, never by construction, a message-free run or a
    checkpoint of one."""

    def test_a_message_free_service_run_allocates_no_blocks(self):
        demand = build_family_demand("scale-up", {"side": 12, "per_point": 2.0})
        config = ServiceConfig.from_demand(
            demand, omega=None, capacity=None, window_jobs=100, checkpoint_every=2
        )
        fleets = []
        original = checkpoint._fleet_state

        def capturing(fleet):
            fleets.append(fleet)
            return original(fleet)

        jobs = list(random_arrivals(demand, np.random.default_rng(0)))[:400]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(checkpoint, "_fleet_state", capturing)
            result = run_service(config, jobs)
        assert result.messages == 0 and fleets
        assert all(fleet.detector is None for fleet in fleets)

    def test_the_first_heartbeat_round_allocates_them(self):
        demand = DemandMap({(x, y): 1.0 for x in range(6) for y in range(6)})
        fleet = Fleet(demand, 3.0, FleetConfig(monitoring="ring"))
        assert fleet.detector is None
        assert all(vehicle.last_heard == {} for vehicle in fleet.vehicles.values())
        fleet.run_heartbeat_round()
        assert fleet.detector is not None
        assert fleet.messages_sent() > 0
