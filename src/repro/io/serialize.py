"""JSON round-trips for demand maps, job sequences, and service plans.

Experiments save their inputs and outputs so runs can be archived and
re-audited; keeping the format as plain JSON (points as lists, demands as
pairs) makes the artifacts diff-able and independent of Python pickling.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.core.demand import DemandMap, Job, JobSequence
from repro.core.plan import ServicePlan, VehicleRoute
from repro.io.atomic import atomic_write_text

__all__ = [
    "demand_to_json",
    "demand_from_json",
    "jobs_to_json",
    "jobs_from_json",
    "plan_to_json",
    "plan_from_json",
    "run_config_to_json",
    "run_config_from_json",
    "run_result_to_json",
    "run_result_from_json",
    "save_json",
    "load_json",
]

PathLike = Union[str, Path]


def demand_to_json(demand: DemandMap) -> Dict[str, Any]:
    """Serialize a demand map to a JSON-compatible dictionary."""
    return {
        "type": "demand_map",
        "dim": demand.dim,
        "entries": [[list(point), value] for point, value in demand.items()],
    }


def demand_from_json(payload: Dict[str, Any]) -> DemandMap:
    """Rebuild a demand map from :func:`demand_to_json` output."""
    if payload.get("type") != "demand_map":
        raise ValueError("payload is not a serialized demand map")
    entries = {tuple(point): value for point, value in payload["entries"]}
    return DemandMap(entries, dim=payload["dim"])


def jobs_to_json(jobs: JobSequence) -> Dict[str, Any]:
    """Serialize a job sequence."""
    return {
        "type": "job_sequence",
        "jobs": [
            {"time": job.time, "position": list(job.position), "energy": job.energy}
            for job in jobs
        ],
    }


def jobs_from_json(payload: Dict[str, Any]) -> JobSequence:
    """Rebuild a job sequence from :func:`jobs_to_json` output."""
    if payload.get("type") != "job_sequence":
        raise ValueError("payload is not a serialized job sequence")
    return JobSequence(
        [
            Job(time=entry["time"], position=tuple(entry["position"]), energy=entry["energy"])
            for entry in payload["jobs"]
        ]
    )


def plan_to_json(plan: ServicePlan) -> Dict[str, Any]:
    """Serialize a service plan."""
    return {
        "type": "service_plan",
        "dim": plan.dim,
        "metadata": dict(plan.metadata),
        "routes": [
            {
                "start": list(route.start),
                "stops": [[list(position), energy] for position, energy in route.stops],
            }
            for route in plan.routes
        ],
    }


def plan_from_json(payload: Dict[str, Any]) -> ServicePlan:
    """Rebuild a service plan from :func:`plan_to_json` output."""
    if payload.get("type") != "service_plan":
        raise ValueError("payload is not a serialized service plan")
    plan = ServicePlan(dim=payload["dim"], metadata=dict(payload.get("metadata", {})))
    for route in payload["routes"]:
        plan.add(
            VehicleRoute(
                start=tuple(route["start"]),
                stops=tuple((tuple(position), energy) for position, energy in route["stops"]),
            )
        )
    return plan


def run_config_to_json(config: "Any") -> Dict[str, Any]:
    """Serialize a :class:`repro.api.config.RunConfig` (delegates to the API)."""
    return config.to_json()


def run_config_from_json(payload: Dict[str, Any]) -> "Any":
    """Rebuild a :class:`repro.api.config.RunConfig` from its JSON form.

    The import is deferred to the call so this module never depends on the
    API package's import order (the schema itself is owned by
    :mod:`repro.api.config`; these helpers just round out the io surface).
    """
    from repro.api.config import RunConfig

    return RunConfig.from_json(payload)


def run_result_to_json(result: "Any") -> Dict[str, Any]:
    """Serialize a :class:`repro.api.result.RunResult`."""
    return result.to_json()


def run_result_from_json(payload: Dict[str, Any]) -> "Any":
    """Rebuild a :class:`repro.api.result.RunResult` from its JSON form."""
    from repro.api.result import RunResult

    return RunResult.from_json(payload)


def save_json(payload: Dict[str, Any], path: PathLike) -> None:
    """Write a human-facing JSON payload to disk (pretty-printed, sorted keys).

    For reports such as ``--json-out``.  The write is atomic
    (temp-file-then-rename via :mod:`repro.io.atomic`), so a concurrent
    reader or a crash mid-write never leaves a torn file.  Large
    machine-read artifacts (checkpoints, live state) use the compact
    :func:`repro.io.atomic.atomic_write_json` instead.
    """
    atomic_write_text(json.dumps(payload, indent=2, sort_keys=True), path)


def load_json(path: PathLike) -> Dict[str, Any]:
    """Read a JSON payload from disk."""
    return json.loads(Path(path).read_text())
