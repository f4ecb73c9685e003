"""A run keeps its provisioned heap out of the cyclic collector's passes.

``frozen_heap`` freezes what exists at the end of provisioning for the
length of a run and unfreezes it afterwards, also when the run raises.  A
caller that froze objects itself, or switched the collector off, keeps
its setting.  ``run_online`` runs its single-process fleet and every
parallel-lockstep worker inside that scope.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

import repro.core.online as online
from repro.core.demand import DemandMap, JobSequence
from repro.core.online import run_online
from repro.core.stream import StreamDriver, frozen_heap
from repro.distsim import parallel_lockstep
from repro.vehicles.fleet import FleetConfig

DEMAND = DemandMap({(x, y): 2.0 for x in range(6) for y in range(6)})
JOBS = JobSequence.from_positions(sorted(DEMAND.support()))


class _Cycle:
    def __init__(self) -> None:
        self.me = self


@pytest.fixture
def seen(monkeypatch):
    """``(freeze count, collector enabled)`` as each driver run starts."""
    states = []
    original = StreamDriver.run

    def run(self):
        states.append((gc.get_freeze_count(), gc.isenabled()))
        return original(self)

    monkeypatch.setattr(StreamDriver, "run", run)
    return states


@pytest.fixture
def inline_workers(monkeypatch):
    """Run parallel-lockstep workers in this process, where a test sees them."""
    monkeypatch.setattr(
        online,
        "run_parallel_lockstep",
        lambda payloads, workers=None: [
            parallel_lockstep._parallel_lockstep_worker(payload) for payload in payloads
        ],
    )


def _single():
    return run_online(JOBS, omega=3.0, config=FleetConfig(monitoring=True))


def _sharded():
    result = run_online(JOBS, omega=3.0, config=FleetConfig(monitoring=True), shards=2)
    assert result.shard_mode == "parallel-lockstep"
    return result


RUNS = {"single-process": _single, "sharded": _sharded}


@pytest.fixture(params=sorted(RUNS))
def run(request, seen, inline_workers):
    return RUNS[request.param]


class TestFrozenHeap:
    def test_freezes_inside_and_unfreezes_after(self):
        assert gc.get_freeze_count() == 0
        with frozen_heap():
            assert gc.get_freeze_count() > 0
        assert gc.get_freeze_count() == 0

    def test_unfreezes_when_the_body_raises(self):
        with pytest.raises(RuntimeError):
            with frozen_heap():
                raise RuntimeError("stop")
        assert gc.get_freeze_count() == 0

    def test_cycles_made_inside_are_still_collected(self):
        with frozen_heap():
            cycle = _Cycle()
            alive = weakref.ref(cycle)
            del cycle
            gc.collect()
            assert alive() is None

    def test_leaves_a_callers_freeze_and_disable_alone(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            with frozen_heap():
                assert gc.get_freeze_count() == frozen
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()
        gc.disable()
        try:
            with frozen_heap():
                assert gc.get_freeze_count() == 0
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestRunOnlineScope:
    def test_every_fleet_runs_frozen_and_nothing_stays_frozen(self, run, seen):
        assert run().feasible
        assert seen and all(count > 0 and enabled for count, enabled in seen)
        assert gc.get_freeze_count() == 0

    def test_a_run_that_raises_unfreezes(self, run, seen, monkeypatch):
        def fail(self):
            seen.append((gc.get_freeze_count(), gc.isenabled()))
            raise RuntimeError("driver failed")

        monkeypatch.setattr(StreamDriver, "run", fail)
        with pytest.raises(RuntimeError, match="driver failed"):
            run()
        assert seen and seen[0][0] > 0
        assert gc.get_freeze_count() == 0

    def test_a_callers_freeze_is_left_as_it_was(self, run, seen):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            run()
            assert seen and all(count == frozen for count, _ in seen)
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_a_disabled_collector_stays_disabled(self, run, seen):
        gc.disable()
        try:
            run()
            assert seen and all(count == 0 and not enabled for count, enabled in seen)
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert gc.get_freeze_count() == 0

    def test_results_do_not_depend_on_the_scope(self, run):
        frozen = run()
        gc.disable()
        try:
            unfrozen = run()
        finally:
            gc.enable()
        # Worker wall times are the one field that may differ.
        assert dataclasses.replace(frozen, shard_timings={}) == dataclasses.replace(
            unfrozen, shard_timings={}
        )
