"""The batch execution engine: fan configs out, cache, and summarize.

:class:`ExperimentEngine` is the one place experiments execute.  It takes a
list of :class:`~repro.api.config.RunConfig` objects and

* resolves each config's solver through the registry,
* runs them serially or, with ``workers > 1``, over a process pool,
* caches results keyed on the config's content hash -- in memory always,
  and as one JSON file per run when a ``cache_dir`` is given, so repeated
  sweeps are free and artifacts can be archived/diffed,
* reports progress through a callback and renders a cross-solver
  comparison table via :mod:`repro.analysis.report`.

Because every run is a pure function of its config (seeds live in the
config, never in ambient state), a sweep's results are byte-identical
regardless of worker count -- the property the CLI's ``sweep`` command and
the engine tests assert.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.report import Table
from repro.api.config import CapacitySpec, RunConfig, ScenarioSpec
from repro.api.registry import get_solver
from repro.api.result import RunResult
from repro.api.service import ServiceConfig, ServiceResult

__all__ = ["EngineStats", "ExperimentEngine", "config_matrix"]

PathLike = Union[str, Path]

#: Generation of the on-disk cache format, stored in every cache file.  An
#: entry of another generation is a miss (the run executes again and
#: overwrites it).  Bumped when results change for configs whose hash did
#: not -- 2: lossy and corrupting transports draw only from the edge-keyed
#: loss stream, so entries written with the removed global stream are stale;
#: 3: a run with no transport takes the reliable channel instead of the
#: removed shared-RNG jitter channel.
CACHE_GENERATION = 3
ProgressCallback = Callable[[int, int, RunResult], None]

SUMMARY_HEADERS = (
    "solver",
    "scenario",
    "feasible",
    "omega*",
    "capacity",
    "max energy",
    "objective",
    "max/omega*",
)


def config_matrix(
    scenarios: Iterable[ScenarioSpec],
    solvers: Iterable[str],
    *,
    seeds: Iterable[int] = (0,),
    capacity: CapacitySpec = "theorem",
) -> List[RunConfig]:
    """The cross product scenario x solver x seed as a list of configs.

    The deterministic enumeration order (scenario-major, then solver, then
    seed) is part of the sweep format: results are reported in this order.
    """
    scenario_list = list(scenarios)
    solver_list = list(solvers)
    seed_list = list(seeds)
    configs = []
    for scenario, solver, seed in itertools.product(scenario_list, solver_list, seed_list):
        configs.append(
            RunConfig(
                solver=solver,
                scenario=replace(scenario, seed=seed),
                capacity=capacity,
            )
        )
    return configs


@dataclass
class EngineStats:
    """Counters the engine accumulates across ``run``/``run_many`` calls."""

    executed: int = 0
    memory_cache_hits: int = 0
    disk_cache_hits: int = 0

    @property
    def cache_hits(self) -> int:
        return self.memory_cache_hits + self.disk_cache_hits


def _solve(config: RunConfig) -> RunResult:
    """Run one config through its registered solver."""
    return replace(get_solver(config.solver)(config), config_hash=config.config_hash())


def _serve(item: Tuple[ServiceConfig, int]) -> ServiceResult:
    """Run one service config over its pinned stream of ``jobs`` arrivals.

    A service config deliberately owns no arrival ordering, so the engine
    pins the stream to the deterministic ``streaming_arrivals`` expansion of
    the config's demand -- making the run, like a ``RunConfig`` run, a pure
    function of ``(config, jobs)``.
    """
    # Imported lazily: the api package must stay importable without the
    # service package (the dependency arrow points service -> api).
    from repro.service import run_service
    from repro.workloads.arrivals import streaming_arrivals

    config, jobs = item
    return run_service(config, streaming_arrivals(config.demand(), jobs=jobs))


def _solve_payload(payload: str) -> str:
    """Process-pool entrypoint: JSON config in, canonical JSON result out.

    Module-level (and string-typed) so it pickles cleanly and so the child
    process repopulates the registry by importing :mod:`repro.api`.
    """
    import repro.api  # noqa: F401 - registers the built-in solvers

    config = RunConfig.from_json(json.loads(payload))
    return _solve(config).canonical_json()


def _solve_service_payload(payload: str) -> str:
    """Process-pool entrypoint for service runs, mirroring :func:`_solve_payload`."""
    import repro.api  # noqa: F401 - registers the built-in solvers

    spec = json.loads(payload)
    item = (ServiceConfig.from_json(spec["config"]), spec["jobs"])
    return _serve(item).canonical_json()


class _JobKind(NamedTuple):
    """How the engine runs, ships and decodes one kind of keyed job."""

    #: ``item -> result`` in this process.
    execute: Callable[[Any], Any]
    #: Process-pool entrypoint: JSON payload in, canonical JSON result out.
    pool_entry: Callable[[str], str]
    #: ``item -> JSON payload`` for :attr:`pool_entry`.
    encode: Callable[[Any], str]
    #: A result's JSON form (cache files, pool output) back to the result.
    decode: Callable[[Any], Any]


_RUNS = _JobKind(
    _solve,
    _solve_payload,
    lambda config: json.dumps(config.to_json(), sort_keys=True),
    RunResult.from_json,
)
_SERVICE_RUNS = _JobKind(
    _serve,
    _solve_service_payload,
    lambda item: json.dumps({"config": item[0].to_json(), "jobs": item[1]}, sort_keys=True),
    ServiceResult.from_json,
)


class ExperimentEngine:
    """Run batches of configs with caching, workers, and progress reporting."""

    def __init__(
        self,
        *,
        workers: int = 1,
        cache_dir: Optional[PathLike] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self.workers = workers
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.progress = progress
        self.stats = EngineStats()
        #: Results of both job kinds; service keys carry a ``service-`` prefix.
        self._memory_cache: Dict[str, Any] = {}
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # caching
    # ------------------------------------------------------------------ #

    def _cache_path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.json"

    def _cached(self, key: str, decode: Callable[[Any], Any]) -> Any:
        hit = self._memory_cache.get(key)
        if hit is not None:
            self.stats.memory_cache_hits += 1
            return hit
        path = self._cache_path(key)
        if path is not None and path.exists():
            payload = json.loads(path.read_text())
            if payload.get("cache_generation") != CACHE_GENERATION:
                return None
            result = decode(payload)
            self._memory_cache[key] = result
            self.stats.disk_cache_hits += 1
            return result
        return None

    def _store(self, key: str, result: Any) -> None:
        self._memory_cache[key] = result
        path = self._cache_path(key)
        if path is not None:
            payload = dict(result.to_json(), cache_generation=CACHE_GENERATION)
            path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))

    def clear_cache(self) -> None:
        """Drop the in-memory cache and delete on-disk cache entries."""
        self._memory_cache.clear()
        if self.cache_dir is not None:
            for path in self.cache_dir.glob("*.json"):
                path.unlink()

    @staticmethod
    def _service_key(config: ServiceConfig, jobs: int) -> str:
        """Cache key of a service run: the config hash plus the job count.

        The stream itself is pinned by the engine (``streaming_arrivals`` of
        the config's demand), so the pair fully determines the result.  The
        ``service-`` prefix keeps disk entries disjoint from RunConfig ones.
        """
        text = json.dumps(
            {"config_hash": config.config_hash(), "jobs": jobs}, sort_keys=True
        )
        return "service-" + hashlib.sha256(text.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(self, config: RunConfig) -> RunResult:
        """Execute one config (cache-aware)."""
        config.validate()
        return self._fan_out([(config.config_hash(), config)], _RUNS, inline=True)[0]

    def run_many(self, configs: Sequence[RunConfig]) -> List[RunResult]:
        """Execute a batch, preserving input order in the returned list.

        With ``workers == 1`` runs are strictly sequential; otherwise
        uncached configs are fanned out over the pool.  Either way the
        results (and their serialized form) are identical.
        """
        configs = list(configs)
        for config in configs:
            config.validate()
        keyed = [(config.config_hash(), config) for config in configs]
        return self._fan_out(keyed, _RUNS, progress=self.progress)

    def run_service(self, config: ServiceConfig, jobs: int) -> ServiceResult:
        """Execute one service config over ``jobs`` streamed arrivals (cache-aware).

        The stream is the deterministic ``streaming_arrivals`` expansion of
        the config's demand, so -- exactly like :meth:`run` -- the result is
        a pure function of ``(config, jobs)`` and caches under their key.
        """
        keyed = [(self._service_key(config, jobs), (config, jobs))]
        return self._fan_out(keyed, _SERVICE_RUNS, inline=True)[0]

    def run_service_many(
        self, items: Sequence[Tuple[ServiceConfig, int]]
    ) -> List[ServiceResult]:
        """Fan ``(config, jobs)`` service runs out exactly like :meth:`run_many`.

        Duplicates are solved once, results preserve input order, and the
        batch is byte-identical regardless of worker count --
        the same determinism contract ``RunConfig`` sweeps have.
        """
        keyed = [
            (self._service_key(config, jobs), (config, jobs)) for config, jobs in items
        ]
        return self._fan_out(keyed, _SERVICE_RUNS)

    @staticmethod
    def service_results_payload(results: Iterable[ServiceResult]) -> str:
        """The deterministic artifact for a service batch (one JSON document)."""
        return json.dumps(
            {"type": "service_results", "results": [r.to_json() for r in results]},
            sort_keys=True,
            indent=2,
        )

    def _fan_out(
        self,
        keyed: Sequence[Tuple[str, Any]],
        kind: _JobKind,
        *,
        progress: Optional[Callable[[int, int, Any], None]] = None,
        inline: bool = False,
    ) -> List[Any]:
        """Results of ``(key, item)`` jobs in input order, each key run once.

        Cached keys are served from the memory or disk cache.  Duplicate
        keys in one batch are solved once: pending indices are grouped by
        key, and every index of a group receives the single result (the
        within-batch face of the caching promise).  Pending jobs run in this
        process when ``inline`` is set (single runs) or ``workers == 1``, and
        otherwise in a pool of ``workers`` processes, shipped as JSON (threads
        would share the GIL and this process's ``hash()`` salt).
        """
        total = len(keyed)
        results: List[Any] = [None] * total
        done = 0

        def report(result: Any) -> None:
            nonlocal done
            done += 1
            if progress is not None:
                progress(done, total, result)

        pending: Dict[str, List[int]] = {}
        for index, (key, _) in enumerate(keyed):
            cached = self._cached(key, kind.decode)
            if cached is not None:
                results[index] = cached
                report(cached)
            else:
                pending.setdefault(key, []).append(index)

        def deliver(key: str, result: Any) -> None:
            self._store(key, result)
            for index in pending[key]:
                results[index] = result
                report(result)

        unique = [(key, keyed[indices[0]][1]) for key, indices in pending.items()]
        if inline or self.workers == 1:
            for key, item in unique:
                result = kind.execute(item)
                self.stats.executed += 1
                deliver(key, result)
        else:
            payloads = [kind.encode(item) for _, item in unique]
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                for (key, _), text in zip(unique, pool.map(kind.pool_entry, payloads)):
                    self.stats.executed += 1
                    deliver(key, kind.decode(json.loads(text)))
        return results

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    @staticmethod
    def summary(results: Iterable[RunResult], *, title: str = "Experiment results") -> Table:
        """A cross-solver comparison table (one row per result)."""
        table = Table(title, list(SUMMARY_HEADERS))
        for result in results:
            table.add_row(*result.comparison_row())
        return table

    @staticmethod
    def results_payload(results: Iterable[RunResult]) -> str:
        """The deterministic sweep artifact: one JSON document for a batch."""
        return json.dumps(
            {"type": "run_results", "results": [r.to_json() for r in results]},
            sort_keys=True,
            indent=2,
        )
