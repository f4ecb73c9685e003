"""The long-lived service harness: streaming arrivals over the fleet.

This package turns the batch online harness into a service that can run a
million-job stream in constant memory:

* Arrivals are scheduled by :class:`~repro.core.stream.StreamDriver`,
  the same bounded look-ahead driver ``run_online`` uses, so finite
  streams are byte-identical to the batch run.
* :class:`~repro.service.metrics.MetricsRecorder` -- per-window records
  plus a whole-run rollup equal to the batch totals by construction.
* :mod:`~repro.service.checkpoint` -- versioned snapshots at clean event
  boundaries; resume-at-T equals the uninterrupted run exactly.
* :class:`~repro.service.state_store.LiveStateStore` -- the atomically
  rewritten live-state file and the append-only milestone log.
* :func:`~repro.service.harness.run_service` /
  :func:`~repro.service.harness.resume_service` -- the composition, driven
  by an :class:`~repro.api.service.ServiceConfig`.
"""

from repro.api.service import ServiceConfig, ServiceResult
from repro.service.checkpoint import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    capture_checkpoint,
    fleet_digest,
    load_checkpoint,
    restore_checkpoint,
    rotated_checkpoint_path,
    save_checkpoint,
    save_rotated_checkpoint,
)
from repro.service.harness import resume_service, run_service
from repro.service.metrics import LatencyDigest, MetricsRecorder
from repro.service.state_store import LiveStateStore, build_state

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "LatencyDigest",
    "LiveStateStore",
    "MetricsRecorder",
    "ServiceConfig",
    "ServiceResult",
    "build_state",
    "capture_checkpoint",
    "fleet_digest",
    "load_checkpoint",
    "restore_checkpoint",
    "resume_service",
    "run_service",
    "save_checkpoint",
    "save_rotated_checkpoint",
    "rotated_checkpoint_path",
]
