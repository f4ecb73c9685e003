"""The benchmark's four workloads: inputs from a seed, one run, output checks.

Every workload uses the ``scale-up`` demand family and a seeded arrival
order; the seed reaches the program only through the jobs
it generates.  A workload has a full size (what the benchmark measures)
and a tiny size (what the benchmark's own tests run in seconds).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.api.service import ServiceConfig
from repro.core.demand import Job
from repro.core.online import run_online
from repro.distsim.failures import FailurePlan
from repro.distsim.transport import TransportSpec
from repro.service import run_service
from repro.vehicles.fleet import FleetConfig
from repro.workloads.arrivals import random_arrivals
from repro.workloads.library import build_family_demand

#: The cube parameter every workload except ``stream-1e4`` runs with.
OMEGA = 3.0
CUBE_SIDE = 3

#: The edge-keyed lossy channel of the crash workloads (shardable: loss
#: draws depend only on per-edge send order).
LOSSY_EDGE = TransportSpec(
    "lossy", {"loss": 0.05, "delay": 0.02, "seed": 3, "stream": "edge"}
)

#: Worker processes the sharded workload requires.
SHARD_WORKERS = 2


@dataclass
class Outcome:
    """One run's result with what the benchmark adds to it."""

    attempted: int
    #: The fleet's own job accounting: (jobs delivered, jobs left unserved).
    accounting: Tuple[int, int]
    result: Any
    fingerprint: str
    #: Exact largest crash-to-detection latency (0 without detections).
    detection_max: float = 0.0


def fingerprint(result: Any) -> str:
    """sha256 over a result's physical fields (exact float reprs)."""
    fields = {
        name: getattr(result, name)
        for name in (
            "jobs_total",
            "jobs_served",
            "max_vehicle_energy",
            "total_travel",
            "total_service",
            "omega",
            "omega_star",
            "replacements",
            "searches",
            "failed_replacements",
            "messages",
            "messages_dropped",
            "messages_corrupted",
            "heartbeat_rounds",
            "events_processed",
            "sim_time",
        )
    }
    energies = getattr(result, "vehicle_energies", None)
    if energies:
        fields["vehicle_energies"] = sorted(
            [list(point), energy] for point, energy in energies.items()
        )
    digest = getattr(result, "fleet_digest", None)
    if digest:
        fields["fleet_digest"] = digest
    blob = json.dumps(fields, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def cube_vertices(side: int, cube: Tuple[int, int]) -> List[Tuple[int, int]]:
    """Sorted lattice vertices of one cube of the side-``side`` grid."""
    return [
        (x, y)
        for x in range(cube[0] * CUBE_SIDE, min(cube[0] * CUBE_SIDE + CUBE_SIDE, side))
        for y in range(cube[1] * CUBE_SIDE, min(cube[1] * CUBE_SIDE + CUBE_SIDE, side))
    ]


def crash_pattern(side: int) -> Tuple[List[Tuple[int, int]], Tuple[int, int]]:
    """Dead vehicles and one Byzantine watcher for a side-``side`` grid.

    Six of the nine vehicles of the first cube die (all but one spare go,
    so the cube keeps a pair that can never be replaced), two in the
    middle cube and two in the last cube.  The Byzantine watcher is the
    middle cube's last vertex.
    """
    cubes = -(-side // CUBE_SIDE)
    middle = cube_vertices(side, (cubes // 2, cubes // 2))
    dead = (
        cube_vertices(side, (0, 0))[:6]
        + middle[:2]
        + cube_vertices(side, (cubes - 1, cubes - 1))[:2]
    )
    return dead, middle[-1]


class Case:
    """One workload at one size and seed: builds inputs, runs, reduces."""

    def __init__(self, params: Dict[str, Any], seed: int):
        self.params = params
        self.seed = seed
        self.demand = build_family_demand(
            "scale-up", {"side": params["side"], "per_point": params["per_point"]}
        )

    def inputs(self) -> Any:
        """The run's jobs, built before the clock starts (a lazy stream is
        consumed, and so generated, inside the run)."""
        raise NotImplementedError

    def attempted_of(self, jobs) -> int:
        raise NotImplementedError

    def execute(self, jobs) -> Any:
        """The measured call into the program."""
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove whatever the run wrote."""


class OnlineCase(Case):
    """A batch ``run_online`` workload."""

    def inputs(self):
        return random_arrivals(self.demand, np.random.default_rng(self.seed))

    def attempted_of(self, jobs) -> int:
        return len(jobs)

    def execute(self, jobs) -> Any:
        p = self.params
        kwargs: Dict[str, Any] = {}
        if p.get("crashes"):
            dead, byzantine = crash_pattern(p["side"])
            plan = FailurePlan()
            if p.get("byzantine"):
                plan.mark_byzantine_watcher(byzantine)
            kwargs.update(
                failure_plan=plan, dead_vehicles=dead, transport=LOSSY_EDGE
            )
        if p.get("shards", 1) > 1:
            kwargs.update(shards=p["shards"], shard_workers=SHARD_WORKERS)
        return run_online(
            jobs,
            omega=OMEGA,
            capacity="theorem",
            config=FleetConfig(monitoring=p["monitoring"]),
            recovery_rounds=p.get("recovery_rounds", 0),
            **kwargs,
        )


class StreamCase(Case):
    """A ``run_service`` workload over a lazily streamed random order."""

    def __init__(self, params, seed):
        super().__init__(params, seed)
        self.config = ServiceConfig.from_demand(
            self.demand,
            omega=None,
            capacity=None,
            window_jobs=params["window_jobs"],
            checkpoint_every=params["checkpoint_every"],
        )
        self.scratch: Optional[str] = None

    def inputs(self) -> Iterator[Job]:
        return streamed_arrivals(self.demand, self.params["jobs"], self.seed)

    def attempted_of(self, jobs) -> int:
        return self.params["jobs"]

    def execute(self, jobs) -> Any:
        self.cleanup()
        self.scratch = tempfile.mkdtemp(prefix="stream-", dir=scratch_root())
        out = Path(self.scratch)
        return run_service(
            self.config,
            jobs,
            state_path=out / "state.json",
            log_path=out / "events.jsonl",
            checkpoint_path=out / "checkpoint.json",
        )

    def cleanup(self) -> None:
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)
            self.scratch = None
            try:
                os.rmdir(scratch_root())
            except OSError:  # another run's files are still there
                pass


def scratch_root() -> str:
    """Where service runs write their files: inside the checkout."""
    root = Path(__file__).resolve().parent.parent / ".perfbench_tmp"
    root.mkdir(exist_ok=True)
    return str(root)


def streamed_arrivals(demand, jobs: int, seed: int) -> Iterator[Job]:
    """``jobs`` unit jobs at times 1, 2, ...: a fresh seeded random
    interleaving of the demand's unit jobs for every pass over it."""
    rng = np.random.default_rng(seed)
    emitted = 0
    while emitted < jobs:
        for job in random_arrivals(demand, rng):
            if emitted == jobs:
                return
            emitted += 1
            yield Job.trusted(float(emitted), job.position, 1.0)


@dataclass(frozen=True)
class Workload:
    """A workload; why each exists is recorded in ``BENCHMARK.json``."""

    name: str
    kind: type
    full: Dict[str, Any]
    #: Overrides of ``full`` for the benchmark's own tests.
    tiny: Dict[str, Any]
    #: What every run must show (checked on each run).
    expect_messages: bool
    shard_mode: str = ""

    def case(self, seed: int, *, tiny: bool = False) -> Case:
        params = {**self.full, **self.tiny} if tiny else self.full
        return self.kind(params, seed)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ring-steady",
            kind=OnlineCase,
            full={"side": 20, "per_point": 1.0, "monitoring": "ring"},
            tiny={"side": 6},
            expect_messages=True,
        ),
        Workload(
            name="gossip-crash-lossy",
            kind=OnlineCase,
            full={
                "side": 12,
                "per_point": 1.0,
                "monitoring": "gossip",
                "crashes": True,
                "byzantine": True,
                "recovery_rounds": 2,
            },
            tiny={"side": 9},
            expect_messages=True,
        ),
        Workload(
            name="stream-1e4",
            kind=StreamCase,
            full={
                "side": 100,
                "per_point": 2.0,
                "jobs": 60_000,
                "window_jobs": 5000,
                "checkpoint_every": 2,
            },
            tiny={"side": 12, "jobs": 3000, "window_jobs": 500},
            expect_messages=False,
        ),
        Workload(
            name="ring-crash-sharded",
            kind=OnlineCase,
            full={
                "side": 14,
                "per_point": 1.0,
                "monitoring": "ring",
                "crashes": True,
                "shards": 2,
            },
            tiny={"side": 9},
            expect_messages=True,
            shard_mode="parallel-lockstep",
        ),
    )
}


def check_environment(workload: Workload) -> None:
    """Refuse to run a workload this machine cannot run as specified."""
    if workload.shard_mode and (os.cpu_count() or 1) < SHARD_WORKERS:
        raise SystemExit(
            f"{workload.name} needs {SHARD_WORKERS} CPUs for its "
            f"{SHARD_WORKERS} parallel-lockstep workers; this machine has "
            f"{os.cpu_count()}"
        )


def reduce(result: Any, attempted: int, accounting: Tuple[int, int], fleets) -> Outcome:
    outcome = Outcome(attempted, accounting, result, fingerprint(result))
    if fleets and result.detections:
        outcome.detection_max = fleets[0].detection_digest.quantile(1.0)
    return outcome


def check(workload: Workload, outcome: Outcome) -> List[str]:
    """Output checks of one run; returns the failures (empty = correct)."""
    failures = []
    result = outcome.result
    delivered, unserved = outcome.accounting
    if result.jobs_total != outcome.attempted:
        failures.append(f"jobs_total {result.jobs_total} != attempted {outcome.attempted}")
    if delivered != outcome.attempted:
        failures.append(f"fleet delivered {delivered} jobs of {outcome.attempted}")
    if result.jobs_served + unserved != outcome.attempted:
        failures.append(
            f"served {result.jobs_served} + unserved {unserved} != attempted {outcome.attempted}"
        )
    if result.capacity is not None and result.max_vehicle_energy > result.capacity:
        failures.append(
            f"max vehicle energy {result.max_vehicle_energy} exceeds capacity {result.capacity}"
        )
    if workload.expect_messages and result.messages <= 0:
        failures.append("workload sent no protocol messages")
    if not workload.expect_messages and result.messages != 0:
        failures.append(f"control workload sent {result.messages} messages")
    mode = getattr(result, "shard_mode", "")
    if mode != workload.shard_mode:
        failures.append(
            f"ran in shard mode {mode!r} ({getattr(result, 'shard_mode_reason', '')}), "
            f"expected {workload.shard_mode!r}"
        )
    return failures
