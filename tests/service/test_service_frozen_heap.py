"""``run_service`` keeps its provisioned heap out of the collector's passes.

The scope runs from the end of provisioning (and of a resume's restore)
to the built :class:`~repro.api.service.ServiceResult`, its final
``fleet_digest`` included; nothing stays frozen after the run, a run that
raises unfreezes, and a caller's own freeze or disabled collector is left
as it was.
"""

from __future__ import annotations

import gc

import pytest

import repro.service.harness as harness
from repro.api.service import ServiceConfig
from repro.core.stream import StreamDriver
from repro.service import resume_service, run_service
from repro.vehicles.fleet import FleetConfig
from repro.workloads.arrivals import alternating_arrivals
from tests.service.test_shared_builders import GRID

CONFIG = ServiceConfig.from_demand(
    GRID,
    omega=4.0,
    capacity=64.0,
    fleet=FleetConfig(monitoring=True),
    dead_vehicles=((0, 0),),
    recovery_rounds=12,
    window_jobs=4,
    checkpoint_every=1,
)
JOBS = list(alternating_arrivals(GRID).jobs)


@pytest.fixture
def seen(monkeypatch):
    """``(where, freeze count, collector enabled)`` at the driver run, every
    checkpoint capture and the final digest."""
    states = []

    def watch(owner, name):
        original = getattr(owner, name)

        def observed(*args, **kwargs):
            states.append((name, gc.get_freeze_count(), gc.isenabled()))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, observed)

    watch(StreamDriver, "run")
    watch(harness, "capture_checkpoint")
    watch(harness, "fleet_digest")
    return states


def _run(tmp_path, **kwargs):
    return run_service(CONFIG, JOBS, checkpoint_path=tmp_path / "snap.json", **kwargs)


def test_the_run_and_its_digest_are_frozen_and_nothing_stays_frozen(tmp_path, seen):
    result = _run(tmp_path)
    assert result.feasible and result.checkpoints_written >= 1
    assert {name for name, _, _ in seen} == {"run", "capture_checkpoint", "fleet_digest"}
    assert all(count > 0 and enabled for _, count, enabled in seen)
    assert gc.get_freeze_count() == 0


def test_a_resumed_run_is_frozen_too(tmp_path, seen):
    _run(tmp_path, stop_after_checkpoints=1)
    assert gc.get_freeze_count() == 0
    seen.clear()
    resumed = resume_service(tmp_path / "snap.json", JOBS)
    assert resumed.resumed and resumed.feasible
    assert seen and all(count > 0 for _, count, _ in seen)
    assert gc.get_freeze_count() == 0


def test_a_run_that_raises_unfreezes(tmp_path, seen, monkeypatch):
    def fail(*args, **kwargs):
        seen.append(("capture_checkpoint", gc.get_freeze_count(), gc.isenabled()))
        raise RuntimeError("capture failed")

    monkeypatch.setattr(harness, "capture_checkpoint", fail)
    with pytest.raises(RuntimeError, match="capture failed"):
        _run(tmp_path)
    assert seen[-1][1] > 0
    assert gc.get_freeze_count() == 0


def test_a_callers_freeze_is_left_as_it_was(tmp_path, seen):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        _run(tmp_path)
        assert seen and all(count == frozen for _, count, _ in seen)
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def test_a_disabled_collector_stays_disabled(tmp_path, seen):
    gc.disable()
    try:
        result = _run(tmp_path)
        assert seen and all(count == 0 and not enabled for _, count, enabled in seen)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert gc.get_freeze_count() == 0
    assert result.result_hash() == _run(tmp_path).result_hash()
