"""Checkpoint/resume exactness and snapshot round-tripping.

A service interrupted at a checkpoint and resumed from the snapshot must
reproduce the uninterrupted run *exactly* -- same ``result_hash`` and the
same ``fleet_digest`` (which covers the full physical and protocol state
of every vehicle), even under lossy transport, churn, and escalation.
"""

from __future__ import annotations

import json

import pytest

from repro.api.service import ServiceConfig
from repro.core.demand import DemandMap
from repro.distsim.failures import ChurnSpec
from repro.distsim.transport import TransportSpec
from repro.io.serialize import load_json, save_json
from repro.service import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    load_checkpoint,
    resume_service,
    run_service,
)
from repro.vehicles.fleet import FleetConfig
from repro.workloads.arrivals import alternating_arrivals

QUIET_DEMAND = DemandMap({(0, 0): 4.0, (2, 1): 3.0, (5, 4): 2.0, (1, 6): 5.0})

#: The hardest resume configuration: loss + churn + monitoring + escalation.
HARD_DEMAND = DemandMap(
    {(0, 0): 6.0, (2, 1): 5.0, (5, 4): 4.0, (1, 6): 6.0, (3, 3): 4.0}
)
HARD_KWARGS = dict(
    fleet=FleetConfig(monitoring=True, escalation=True),
    recovery_rounds=2,
    churn=(
        ChurnSpec(time=6.5, vertex=(0, 0), action="leave"),
        ChurnSpec(time=15.5, vertex=(0, 0), action="join"),
    ),
    transport=TransportSpec(kind="lossy", params=(("loss", 0.15), ("seed", 3))),
)


def _interrupt_and_resume(demand, config, tmp_path, stop_after=2):
    jobs = alternating_arrivals(demand)
    full = run_service(config, list(jobs.jobs))
    snapshot = tmp_path / "snap.json"
    partial = run_service(
        config,
        list(jobs.jobs),
        checkpoint_path=str(snapshot),
        stop_after_checkpoints=stop_after,
    )
    resumed = resume_service(str(snapshot), list(jobs.jobs))
    return full, partial, resumed


class TestResumeExactness:
    def test_quiet_run(self, tmp_path):
        config = ServiceConfig.from_demand(
            QUIET_DEMAND, window_jobs=4, checkpoint_every=1
        )
        full, partial, resumed = _interrupt_and_resume(QUIET_DEMAND, config, tmp_path)
        assert partial.interrupted and partial.checkpoints_written == 2
        assert partial.jobs_total < full.jobs_total
        assert resumed.resumed and not resumed.interrupted
        assert resumed.result_hash() == full.result_hash()
        assert resumed.fleet_digest == full.fleet_digest

    def test_lossy_churn_escalation_run(self, tmp_path):
        config = ServiceConfig.from_demand(
            HARD_DEMAND, window_jobs=5, checkpoint_every=1, **HARD_KWARGS
        )
        full, partial, resumed = _interrupt_and_resume(HARD_DEMAND, config, tmp_path)
        assert partial.interrupted
        assert resumed.result_hash() == full.result_hash()
        assert resumed.fleet_digest == full.fleet_digest
        assert full.messages_dropped > 0  # losses actually happened across the cut

    def test_resumed_leg_writes_the_uninterrupted_snapshots(self, tmp_path):
        """A small look-ahead refills mid-run; a resumed leg refills at the
        same arrivals, so its later snapshots (consumed count, pending
        window, event statistics) equal the uninterrupted run's."""
        config = ServiceConfig.from_demand(
            HARD_DEMAND, lookahead=5, window_jobs=4, checkpoint_every=1, **HARD_KWARGS
        )
        jobs = list(alternating_arrivals(HARD_DEMAND).jobs)
        full_dir, leg_dir = tmp_path / "full", tmp_path / "leg"
        full_dir.mkdir()
        leg_dir.mkdir()
        run_service(
            config, jobs, checkpoint_path=str(full_dir / "s.json"), keep_checkpoints=99
        )
        run_service(
            config, jobs, checkpoint_path=str(leg_dir / "s.json"), stop_after_checkpoints=2
        )
        resume_service(
            str(leg_dir / "s.json"),
            jobs,
            checkpoint_path=str(leg_dir / "s.json"),
            keep_checkpoints=99,
        )
        resumed_slots = sorted(leg_dir.glob("s.w*.json"))
        assert len(resumed_slots) >= 2
        for slot in resumed_slots:
            assert load_json(slot) == load_json(full_dir / slot.name)

    def test_resume_continues_metrics_rollup(self, tmp_path):
        config = ServiceConfig.from_demand(
            QUIET_DEMAND, window_jobs=4, checkpoint_every=1
        )
        full, _, resumed = _interrupt_and_resume(QUIET_DEMAND, config, tmp_path)
        assert resumed.rollup["jobs_served"] == full.rollup["jobs_served"]
        assert resumed.rollup["messages"] == full.rollup["messages"]


class TestRotatingCheckpoints:
    def _run_with_rotation(self, tmp_path, *, keep, stop_after=3):
        config = ServiceConfig.from_demand(
            QUIET_DEMAND, window_jobs=4, checkpoint_every=1
        )
        jobs = alternating_arrivals(QUIET_DEMAND)
        snapshot = tmp_path / "snap.json"
        partial = run_service(
            config,
            list(jobs.jobs),
            checkpoint_path=str(snapshot),
            keep_checkpoints=keep,
            stop_after_checkpoints=stop_after,
        )
        return config, jobs, snapshot, partial

    def test_retains_exactly_the_last_k_slots(self, tmp_path):
        _, _, snapshot, partial = self._run_with_rotation(tmp_path, keep=2)
        assert partial.interrupted and partial.checkpoints_written == 3
        slots = sorted(tmp_path.glob("snap.w*.json"))
        assert len(slots) == 2
        # the plain path tracks the latest slot exactly
        assert json.loads(snapshot.read_text()) == json.loads(slots[-1].read_text())

    def test_pruning_is_deterministic_and_ordered(self, tmp_path):
        _, _, _, _ = self._run_with_rotation(tmp_path, keep=1)
        slots = sorted(tmp_path.glob("snap.w*.json"))
        assert len(slots) == 1  # older slots were pruned as they rotated out

    def test_resume_from_an_older_snapshot_is_exact(self, tmp_path):
        config, jobs, _, partial = self._run_with_rotation(tmp_path, keep=3)
        assert partial.checkpoints_written == 3
        full = run_service(config, list(jobs.jobs))
        slots = sorted(tmp_path.glob("snap.w*.json"))
        assert len(slots) == 3
        # every retained slot -- not just the latest -- replays to the
        # uninterrupted run's exact result
        for slot in slots:
            resumed = resume_service(str(slot), list(jobs.jobs))
            assert resumed.resumed and not resumed.interrupted
            assert resumed.result_hash() == full.result_hash()
            assert resumed.fleet_digest == full.fleet_digest

    def test_rejects_degenerate_keep(self, tmp_path):
        config = ServiceConfig.from_demand(
            QUIET_DEMAND, window_jobs=4, checkpoint_every=1
        )
        jobs = alternating_arrivals(QUIET_DEMAND)
        with pytest.raises(ValueError, match="keep_checkpoints"):
            run_service(
                config,
                list(jobs.jobs),
                checkpoint_path=str(tmp_path / "snap.json"),
                keep_checkpoints=0,
            )


class TestSnapshotFormat:
    def _write_snapshot(self, tmp_path):
        config = ServiceConfig.from_demand(
            QUIET_DEMAND, window_jobs=4, checkpoint_every=1
        )
        jobs = alternating_arrivals(QUIET_DEMAND)
        run_service(
            config,
            list(jobs.jobs),
            checkpoint_path=str(tmp_path / "snap.json"),
            stop_after_checkpoints=1,
        )
        return tmp_path / "snap.json", config, jobs

    def test_round_trips_through_repro_io_serialize(self, tmp_path):
        snapshot, _, _ = self._write_snapshot(tmp_path)
        payload = load_json(snapshot)
        assert payload["schema"] == CHECKPOINT_SCHEMA
        assert payload["version"] == CHECKPOINT_VERSION
        copy = tmp_path / "copy.json"
        save_json(payload, copy)
        assert load_json(copy) == payload
        # and a snapshot loaded from the copied file still resumes
        jobs = alternating_arrivals(QUIET_DEMAND)
        resumed = resume_service(str(copy), list(jobs.jobs))
        assert resumed.resumed and resumed.feasible

    def test_snapshot_is_plain_json(self, tmp_path):
        snapshot, _, _ = self._write_snapshot(tmp_path)
        payload = json.loads(snapshot.read_text())
        for key in ("schema", "version", "config", "clock", "fleet", "jobs", "rng"):
            assert key in payload

    def test_load_rejects_wrong_schema(self, tmp_path):
        snapshot, _, _ = self._write_snapshot(tmp_path)
        payload = load_json(snapshot)
        payload["schema"] = "something/else"
        with pytest.raises(ValueError, match="schema"):
            load_checkpoint(payload)

    def test_load_rejects_future_version(self, tmp_path):
        snapshot, _, _ = self._write_snapshot(tmp_path)
        payload = load_json(snapshot)
        payload["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(payload)

    def test_resume_rejects_a_different_config(self, tmp_path):
        snapshot, config, jobs = self._write_snapshot(tmp_path)
        other = config.replace(window_jobs=7)
        with pytest.raises(ValueError, match="config"):
            run_service(
                other, list(jobs.jobs), snapshot=load_checkpoint(snapshot)
            )

    def test_config_json_carries_no_shards_key(self):
        config = ServiceConfig.from_demand(QUIET_DEMAND, window_jobs=4)
        assert "shards" not in config.to_json()

    def test_retired_shards_key_loads_to_the_same_config(self):
        # Service configs once serialized an observe-only ``shards`` count;
        # such payloads must load to the same config and content hash.
        config = ServiceConfig.from_demand(QUIET_DEMAND, window_jobs=4)
        payload = config.to_json()
        payload["shards"] = 3
        loaded = ServiceConfig.from_json(payload)
        assert loaded == config
        assert loaded.config_hash() == config.config_hash()


class TestLiveStateStore:
    def test_state_file_and_event_log(self, tmp_path):
        config = ServiceConfig.from_demand(
            QUIET_DEMAND, window_jobs=4, checkpoint_every=1
        )
        jobs = alternating_arrivals(QUIET_DEMAND)
        state_path = tmp_path / "state.json"
        log_path = tmp_path / "events.jsonl"
        result = run_service(
            config,
            list(jobs.jobs),
            state_path=str(state_path),
            log_path=str(log_path),
            checkpoint_path=str(tmp_path / "snap.json"),
        )
        state = json.loads(state_path.read_text())
        assert state["finished"] is True
        assert state["jobs"]["served"] == result.jobs_served
        assert state["checkpoints_written"] == result.checkpoints_written
        assert state["fleet"]["messages"] == result.messages
        # active_pairs is bounded by the fleet, not the stream
        assert len(state["active_pairs"]) <= result.jobs_total
        events = [json.loads(line) for line in log_path.read_text().splitlines()]
        kinds = [entry["event"] for entry in events]
        assert kinds.count("window_closed") == result.windows
        assert kinds[-1] == "service_finished"
