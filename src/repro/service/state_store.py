"""The pollable live-state store of a service run.

Two artifacts, both cheap enough to refresh every metrics window:

* **State file** -- a single compact, sorted-key JSON document, atomically
  rewritten (temp-file + rename, :func:`repro.io.atomic.atomic_write_json`)
  so an external poller never observes a torn read: it always sees either
  the previous complete state or the new complete state (``python -m
  json.tool`` pretty-prints it).  Contents: run
  progress, a fleet summary with the count of registered pairs (a count,
  not the registry itself: the document stays small at any fleet size),
  and the last ``keep_windows`` metrics windows.
* **Event log** -- an append-only JSONL file of harness milestones
  (windows closed, checkpoints written, run finished).  Appends are not
  atomic and need not be: a half-written final line is detectable (no
  trailing newline / JSON parse failure) and every earlier line is intact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.io.atomic import atomic_write_json

__all__ = ["LiveStateStore", "build_state", "STATE_SCHEMA", "STATE_VERSION"]

STATE_SCHEMA = "repro.service/state"
STATE_VERSION = 2


def build_state(
    fleet,
    driver,
    recorder,
    *,
    checkpoints_written: int = 0,
    config_hash: str = "",
) -> Dict[str, Any]:
    """The live-state document for the current instant of a service run."""
    return {
        "schema": STATE_SCHEMA,
        "version": STATE_VERSION,
        "config_hash": config_hash,
        "clock": fleet.simulator.now,
        "finished": driver.finished,
        "jobs": {
            "consumed": driver.consumed,
            "dispatched": driver.dispatched,
            "served": driver.served,
        },
        "fleet": {
            "active_vehicles": fleet.active_vehicle_count(),
            "max_vehicle_energy": fleet.max_energy_used(),
            "total_travel": fleet.total_travel(),
            "total_service": fleet.total_service(),
            "messages": fleet.messages_sent(),
            "messages_dropped": fleet.messages_dropped(),
            "replacements": fleet.stats.replacements,
            "failed_replacements": fleet.stats.failed_replacements,
            "escalations": fleet.stats.escalations_started,
            "adoptions": fleet.stats.adoptions,
            "hand_backs": fleet.stats.hand_backs,
            "registered_pairs": len(fleet.registry),
        },
        "windows": list(recorder.recent),
        "checkpoints_written": checkpoints_written,
    }


class LiveStateStore:
    """Owns the state file and the event log of one service run.

    Either path may be ``None``, turning the corresponding output off;
    the harness calls unconditionally and the store no-ops.
    """

    def __init__(
        self,
        state_path: Optional[Union[str, Path]] = None,
        log_path: Optional[Union[str, Path]] = None,
    ) -> None:
        self.state_path = Path(state_path) if state_path is not None else None
        self.log_path = Path(log_path) if log_path is not None else None
        self.states_written = 0
        self.events_logged = 0

    @property
    def enabled(self) -> bool:
        return self.state_path is not None or self.log_path is not None

    def write_state(self, payload: Dict[str, Any]) -> None:
        """Atomically replace the state file with ``payload``."""
        if self.state_path is None:
            return
        atomic_write_json(payload, self.state_path)
        self.states_written += 1

    def log_event(self, kind: str, **fields: Any) -> None:
        """Append one milestone record to the event log."""
        if self.log_path is None:
            return
        record = {"event": kind, **fields}
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        self.events_logged += 1
