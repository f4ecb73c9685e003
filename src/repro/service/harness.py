"""``run_service`` / ``resume_service``: the long-lived service harness.

Composes the arrival driver every online run uses
(:class:`~repro.core.stream.StreamDriver`), the windowed metrics recorder,
the checkpoint writer and the live-state store around one fleet:

* Jobs come from any iterable (possibly infinite); only a bounded
  look-ahead is ever scheduled, and per-process message logs are disabled,
  so memory is independent of stream length.  The look-ahead bounds
  memory only: every value gives the same run, and a finite stream gives
  the ``run_online`` result, because both are the same driver.
* The metrics recorder closes a window every ``config.window_jobs``
  arrivals at the driver's inter-arrival control points; each closed
  window optionally appends to a JSONL file, refreshes the atomically
  rewritten live-state file, and -- every ``config.checkpoint_every``
  windows -- arms a checkpoint, written at the next *clean* boundary
  (no transient protocol events pending).
* ``resume_service(snapshot, jobs)`` rebuilds the fleet from the config
  embedded in the snapshot, overlays the captured state, and continues.
  The caller passes the *original* job stream; the harness skips the
  consumed prefix itself (``itertools.islice``).  A resumed run is
  byte-identical to the uninterrupted one -- same final
  ``ServiceResult.result_hash()``, including the full-fleet digest --
  which the differential suite asserts.

None of the plumbing perturbs the simulation: metrics only read counters,
checkpoints happen between events, and the state store writes from the
control callback while the event queue is paused at an exact boundary.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, TextIO, Union

from repro.api.service import ServiceConfig, ServiceResult
from repro.core.online import (
    _detection_counters,
    _fleet_counters,
    monitoring_mode,
    provision_fleet,
    resolve_omega,
)
from repro.core.stream import StreamDriver, frozen_heap
from repro.distsim.transport import build_transport
from repro.service.checkpoint import (
    capture_checkpoint,
    churn_applied_from_json,
    fleet_digest,
    load_checkpoint,
    save_rotated_checkpoint,
    pending_jobs_from_json,
    restore_checkpoint,
    restore_event_stats,
    save_checkpoint,
)
from repro.service.metrics import MetricsRecorder
from repro.service.state_store import LiveStateStore, build_state

__all__ = ["run_service", "resume_service"]


class _Interrupted(Exception):
    """Internal: ``stop_after_checkpoints`` reached; unwind to the harness."""


def _provision(config: ServiceConfig, *, apply_dead: bool):
    demand = config.demand()
    omega, omega_star = resolve_omega(demand, config.omega)
    fleet, fleet_config, provisioned, theorem_capacity = provision_fleet(
        demand,
        omega=omega,
        capacity=config.capacity,
        config=config.fleet_config(),
        failure_plan=config.failure_plan(),
        dead_vehicles=config.dead_vehicles if apply_dead and config.dead_vehicles else None,
        transport=build_transport(config.transport),
    )
    return fleet, fleet_config, float(omega), omega_star, provisioned, theorem_capacity


def run_service(
    config: ServiceConfig,
    jobs: Iterable[Any],
    *,
    duration: Optional[float] = None,
    metrics_path: Optional[Union[str, Path]] = None,
    state_path: Optional[Union[str, Path]] = None,
    log_path: Optional[Union[str, Path]] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    keep_checkpoints: Optional[int] = None,
    stop_after_checkpoints: Optional[int] = None,
    snapshot: Optional[Union[str, Path, Dict[str, Any]]] = None,
) -> ServiceResult:
    """Run (or continue) the fleet as a service over a job stream.

    Parameters
    ----------
    jobs:
        Iterable of :class:`~repro.core.demand.Job` with strictly increasing
        times.  Always the *full* stream, even when resuming -- the harness
        skips the snapshot's consumed prefix itself.
    duration:
        Stop dispatching once the next arrival would fire after this
        simulation time (pairs with infinite streams).
    metrics_path:
        Append each closed metrics window (and a final rollup record) as
        one JSON line.  Opened in append mode so a resumed run continues
        the same file.
    state_path / log_path:
        The live-state file (atomically rewritten every window) and the
        append-only milestone log.
    checkpoint_path:
        Where checkpoints go (atomically replaced each time); requires
        ``config.checkpoint_every`` (``ValueError`` without it, rather
        than a run that silently writes nothing).  ``keep_checkpoints``
        and ``stop_after_checkpoints`` (each at least 1) need it:
        ``ValueError`` otherwise.
    keep_checkpoints:
        Rotate instead of replace: keep the last K snapshots as numbered
        siblings of ``checkpoint_path`` (``snap.w00000004.json`` for the
        window-4 snapshot) with deterministic pruning, while the plain
        path still tracks the latest.  Any retained slot resumes the run.
    stop_after_checkpoints:
        Stop the run right after writing this many checkpoints -- the
        deterministic stand-in for "the process was killed": the returned
        result has ``interrupted=True`` and the snapshot on disk resumes
        the run.
    snapshot:
        A checkpoint payload or path to continue from (usually via
        :func:`resume_service`).  Must have been taken under an identical
        config.
    """
    for name, value in (
        ("keep_checkpoints", keep_checkpoints),
        ("stop_after_checkpoints", stop_after_checkpoints),
    ):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
        if value is not None and checkpoint_path is None:
            raise ValueError(f"{name} needs checkpoint_path")
    if checkpoint_path is not None and config.checkpoint_every is None:
        raise ValueError("checkpoint_path needs config.checkpoint_every")
    resumed = snapshot is not None
    # The config's JSON holds every demand entry, so it is built once per
    # run, for the hash and for every checkpoint.
    config_json = config.to_json()
    config_hash = ServiceConfig.hash_of(config_json)
    if resumed:
        snapshot = load_checkpoint(snapshot)
        snap_hash = ServiceConfig.from_json(snapshot["config"]).config_hash()
        if snap_hash != config_hash:
            raise ValueError(
                "snapshot was taken under a different service config "
                f"({snap_hash[:12]} != {config_hash[:12]})"
            )

    fleet, fleet_config, omega, omega_star, provisioned, theorem_capacity = _provision(
        config, apply_dead=not resumed
    )
    plan = fleet.failure_plan

    metrics_handle: Optional[TextIO] = None
    if metrics_path is not None:
        metrics_handle = open(metrics_path, "a", encoding="utf-8")

    def emit(record: Dict[str, Any]) -> None:
        if metrics_handle is not None:
            metrics_handle.write(json.dumps(record, sort_keys=True) + "\n")

    recorder = MetricsRecorder(
        fleet,
        window_jobs=config.window_jobs,
        omega_star=omega_star,
        keep=config.keep_windows,
        emit=emit,
    )
    store = LiveStateStore(state_path, log_path)

    start_consumed = 0
    pending: Any = ()
    churn_applied = None
    served_before = 0
    if resumed:
        restore_checkpoint(fleet, snapshot)
        if "metrics" in snapshot:
            recorder.restore_state(snapshot["metrics"])
        start_consumed = snapshot["jobs"]["consumed"]
        served_before = snapshot["jobs"]["served"]
        pending = pending_jobs_from_json(snapshot)
        churn_applied = churn_applied_from_json(snapshot)
        jobs = itertools.islice(iter(jobs), start_consumed, None)

    progress = {"checkpoints": 0, "checkpoint_due": False}

    def control(driver: StreamDriver) -> None:
        closed = recorder.maybe_close_window(force=driver.finished)
        if closed is not None:
            store.log_event(
                "window_closed",
                window=closed["window"],
                clock=fleet.simulator.now,
                jobs=closed["jobs"],
                served=closed["served"],
            )
            # A checkpoint path comes with a cadence (checked above).
            if (
                checkpoint_path is not None
                and recorder.window_index % config.checkpoint_every == 0
            ):
                progress["checkpoint_due"] = True
        if (
            progress["checkpoint_due"]
            and not driver.finished
            and driver.at_clean_point()
        ):
            payload = capture_checkpoint(config_json, driver, recorder=recorder)
            if keep_checkpoints is not None:
                save_rotated_checkpoint(
                    payload,
                    checkpoint_path,
                    ordinal=recorder.window_index,
                    keep=keep_checkpoints,
                )
            else:
                save_checkpoint(payload, checkpoint_path)
            progress["checkpoints"] += 1
            progress["checkpoint_due"] = False
            store.log_event(
                "checkpoint_written",
                clock=fleet.simulator.now,
                path=str(checkpoint_path),
                jobs_dispatched=driver.dispatched,
            )
            if (
                stop_after_checkpoints is not None
                and progress["checkpoints"] >= stop_after_checkpoints
            ):
                raise _Interrupted()
        if closed is not None or driver.finished:
            store.write_state(
                build_state(
                    fleet,
                    driver,
                    recorder,
                    checkpoints_written=progress["checkpoints"],
                    config_hash=config_hash,
                )
            )

    def on_primed(driver: StreamDriver) -> None:
        # The snapshot's event statistics already count the re-pushed churn
        # and pending arrivals; overwriting here (before the look-ahead
        # refills) makes every subsequent count accrue exactly as in the
        # uninterrupted run.
        restore_event_stats(fleet.simulator.queue.stats, snapshot)

    # From here to the result, the provisioned (and restored) fleet sits in
    # the collector's permanent generation (see ``frozen_heap``).
    with frozen_heap():
        driver = StreamDriver(
            fleet,
            fleet_config,
            plan,
            jobs,
            recovery_rounds=config.recovery_rounds,
            churn=config.churn,
            lookahead=config.lookahead,
            duration=duration,
            on_arrival=recorder.job_arrived,
            on_served=recorder.job_served,
            control=control,
            on_primed=on_primed if resumed else None,
            start_consumed=start_consumed,
            pending=pending,
            churn_applied=churn_applied,
        )
        driver.served = served_before

        interrupted = False
        try:
            if resumed:
                store.log_event(
                    "service_resumed",
                    clock=fleet.simulator.now,
                    jobs_dispatched=driver.dispatched,
                )
            try:
                driver.run()
            except _Interrupted:
                interrupted = True
            rollup = recorder.rollup()
            if metrics_handle is not None and not interrupted:
                emit({"type": "metrics_rollup", **rollup})
            store.log_event(
                "service_interrupted" if interrupted else "service_finished",
                clock=fleet.simulator.now,
                jobs_dispatched=driver.dispatched,
                jobs_served=driver.served,
            )
            if interrupted:
                store.write_state(
                    build_state(
                        fleet,
                        driver,
                        recorder,
                        checkpoints_written=progress["checkpoints"],
                        config_hash=config_hash,
                    )
                )
        finally:
            if metrics_handle is not None:
                metrics_handle.close()

        return ServiceResult(
            jobs_total=driver.dispatched,
            jobs_served=driver.served,
            feasible=driver.served == driver.dispatched,
            total_travel=fleet.total_travel(),
            total_service=fleet.total_service(),
            omega=omega,
            omega_star=omega_star,
            capacity=provisioned,
            theorem_capacity=theorem_capacity,
            transport=fleet.transport_kind,
            fleet_digest=fleet_digest(fleet),
            windows=recorder.window_index,
            checkpoints_written=progress["checkpoints"],
            resumed=resumed,
            interrupted=interrupted,
            rollup=rollup,
            monitoring_mode=monitoring_mode(fleet_config),
            **_fleet_counters(fleet),
            **_detection_counters(fleet),
        )


def resume_service(
    snapshot: Union[str, Path, Dict[str, Any]],
    jobs: Iterable[Any],
    **kwargs: Any,
) -> ServiceResult:
    """Continue a service run from a checkpoint.

    ``jobs`` is the *original* full stream (the harness skips the consumed
    prefix); everything else -- demand, fleet, transport, cadences -- comes
    from the config embedded in the snapshot.  Keyword arguments are
    forwarded to :func:`run_service` (output paths, ``duration``, ...).
    """
    payload = load_checkpoint(snapshot)
    config = ServiceConfig.from_json(payload["config"])
    return run_service(config, jobs, snapshot=payload, **kwargs)
