"""The long-lived service harness: streaming arrivals over the fleet.

This package turns the batch online harness into a service that can run a
million-job stream in constant memory:

* :class:`~repro.service.stream.StreamDriver` -- bounded look-ahead
  scheduling over a lazy job iterator (the batch per-job service logic is
  shared, so finite streams are byte-identical to ``run_online``).
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
from repro.service.stream import StreamDriver

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "LatencyDigest",
    "LiveStateStore",
    "MetricsRecorder",
    "ServiceConfig",
    "ServiceResult",
    "StreamDriver",
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
