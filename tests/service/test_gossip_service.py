"""Gossip monitoring through the streaming service harness.

Checkpoints must capture the whole epidemic-detector state -- per-vehicle
gossip counters, accumulated silence reports, pending suspicions, the
crash-round ledger, and the detection-latency digest -- so a service
interrupted mid-suspicion and resumed reproduces the uninterrupted run
exactly (same ``result_hash``, same ``fleet_digest``), Byzantine watchers
and lossy channels included.
"""

from __future__ import annotations

import pytest

from repro.api.service import ServiceConfig
from repro.core.demand import DemandMap
from repro.distsim.transport import TransportSpec
from repro.service import load_checkpoint, resume_service, run_service
from repro.vehicles.fleet import FleetConfig
from repro.workloads.arrivals import alternating_arrivals

GRID = DemandMap({(x, y): 2.0 for x in range(4) for y in range(4)})

GOSSIP_KWARGS = dict(
    omega=4.0,
    capacity=64.0,
    fleet=FleetConfig(monitoring="gossip"),
    dead_vehicles=((0, 0),),
    recovery_rounds=12,
    window_jobs=6,
    checkpoint_every=1,
)


def _interrupt_and_resume(config, tmp_path, stop_after=2):
    jobs = alternating_arrivals(GRID)
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


class TestServiceConfigRoundTrip:
    def test_gossip_fleet_and_byzantine_watchers_survive_json(self):
        config = ServiceConfig.from_demand(
            GRID,
            fleet=FleetConfig(
                monitoring="gossip", gossip_fanout=3, suspicion_threshold=3, quorum=2
            ),
            byzantine_watchers=((1, 1), (2, 2)),
        )
        restored = ServiceConfig.from_json(config.to_json())
        assert restored == config
        assert restored.byzantine_watchers == ((1, 1), (2, 2))
        fleet = restored.fleet_config()
        assert fleet.monitoring == "gossip"
        assert fleet.gossip_fanout == 3
        assert fleet.quorum == 2

    def test_default_config_json_is_untouched(self):
        # No gossip, no byzantine watchers: the serialized form (and with
        # it every pre-gossip config hash) must not mention the new keys.
        config = ServiceConfig.from_demand(GRID)
        payload = config.to_json()
        assert "byzantine_watchers" not in payload
        assert "gossip" not in str(payload)

    def test_failure_plan_marks_the_watchers(self):
        config = ServiceConfig.from_demand(GRID, byzantine_watchers=((1, 1),))
        plan = config.failure_plan()
        assert plan.is_byzantine_watcher((1, 1))
        assert not plan.is_byzantine_watcher((2, 2))


class TestGossipResumeExactness:
    def test_gossip_run(self, tmp_path):
        config = ServiceConfig.from_demand(GRID, **GOSSIP_KWARGS)
        full, partial, resumed = _interrupt_and_resume(config, tmp_path)
        assert partial.interrupted
        assert resumed.resumed and not resumed.interrupted
        assert resumed.result_hash() == full.result_hash()
        assert resumed.fleet_digest == full.fleet_digest

    def test_gossip_run_with_loss_and_byzantine_watcher(self, tmp_path):
        config = ServiceConfig.from_demand(
            GRID,
            transport=TransportSpec(kind="lossy", params=(("loss", 0.1), ("seed", 3))),
            byzantine_watchers=((1, 1),),
            **GOSSIP_KWARGS,
        )
        full, partial, resumed = _interrupt_and_resume(config, tmp_path)
        assert partial.interrupted
        assert resumed.result_hash() == full.result_hash()
        assert resumed.fleet_digest == full.fleet_digest
        # The detector really ran across the cut.
        assert full.suspicions >= 1
        assert full.refused_attestations >= 1

    def test_resume_at_a_cut_with_open_reports_and_suspicions(self, tmp_path):
        # The detector state lives in per-cube blocks; a snapshot taken
        # while reports and a quorum collection are open must rebuild them.
        config = ServiceConfig.from_demand(
            GRID,
            transport=TransportSpec(kind="lossy", params=(("loss", 0.1), ("seed", 3))),
            byzantine_watchers=((1, 1),),
            **GOSSIP_KWARGS,
        )
        jobs = list(alternating_arrivals(GRID).jobs)
        full = run_service(config, jobs)
        for cut in range(1, full.windows + 1):
            snapshot = tmp_path / f"snap{cut}.json"
            run_service(config, jobs, checkpoint_path=str(snapshot), stop_after_checkpoints=cut)
            entries = load_checkpoint(str(snapshot))["fleet"]["vehicles"].values()
            if any("gossip_reports" in e for e in entries) and any(
                "pending_suspicions" in e for e in entries
            ):
                break
        else:
            pytest.fail("no checkpoint cut had open reports and suspicions")
        resumed = resume_service(str(snapshot), jobs)
        assert resumed.fleet_digest == full.fleet_digest
        assert resumed.result_hash() == full.result_hash()

    def test_gossip_result_carries_detector_fields(self, tmp_path):
        config = ServiceConfig.from_demand(GRID, **GOSSIP_KWARGS)
        jobs = alternating_arrivals(GRID)
        result = run_service(config, list(jobs.jobs))
        assert result.monitoring_mode == "gossip"
        assert result.detections == 1
        assert result.detection_p50 >= 1.0
        assert result.suspicions >= 1
        assert result.attestations >= 2

    def test_ring_result_hash_fields_are_unchanged(self, tmp_path):
        # The new detector fields ride outside _HASHED_FIELDS: a plain ring
        # service run still hashes to what it hashed before this feature.
        config = ServiceConfig.from_demand(
            GRID, omega=4.0, capacity=64.0, fleet=FleetConfig(monitoring=True)
        )
        jobs = alternating_arrivals(GRID)
        result = run_service(config, list(jobs.jobs))
        assert result.monitoring_mode == "ring"
        from repro.api.service import _HASHED_FIELDS

        for name in ("monitoring_mode", "suspicions", "detections", "detection_p50"):
            assert name not in _HASHED_FIELDS
