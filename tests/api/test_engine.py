"""Tests for the ExperimentEngine: determinism, caching, summaries."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ExperimentEngine,
    RunConfig,
    ScenarioSpec,
    config_matrix,
)
from repro.api.engine import CACHE_GENERATION
from repro.core.demand import DemandMap


@pytest.fixture
def tiny_scenario() -> ScenarioSpec:
    demand = DemandMap({(0, 0): 4.0, (2, 0): 3.0, (0, 2): 2.0})
    return ScenarioSpec.from_demand(demand, name="tiny", seed=0)


@pytest.fixture
def matrix(tiny_scenario: ScenarioSpec) -> list:
    return config_matrix(
        [tiny_scenario],
        ["offline", "greedy", "tsp", "online"],
        seeds=[0, 1],
    )


class TestDeterminism:
    def test_serial_and_parallel_results_identical(self, matrix):
        serial = ExperimentEngine(workers=1).run_many(matrix)
        parallel = ExperimentEngine(workers=4).run_many(matrix)
        assert serial == parallel

    def test_serial_and_parallel_artifacts_byte_identical(self, matrix):
        serial = ExperimentEngine(workers=1).run_many(matrix)
        parallel = ExperimentEngine(workers=4).run_many(matrix)
        assert ExperimentEngine.results_payload(serial) == ExperimentEngine.results_payload(
            parallel
        )

    def test_results_preserve_config_order(self, matrix):
        results = ExperimentEngine(workers=3).run_many(matrix)
        assert [r.solver for r in results] == [c.solver for c in matrix]
        assert [r.config_hash for r in results] == [c.config_hash() for c in matrix]


class TestCaching:
    def test_memory_cache_hits_on_repeat(self, tiny_scenario):
        engine = ExperimentEngine()
        config = RunConfig(solver="offline", scenario=tiny_scenario)
        first = engine.run(config)
        second = engine.run(config)
        assert first == second
        assert engine.stats.executed == 1
        assert engine.stats.memory_cache_hits == 1

    def test_disk_cache_shared_between_engines(self, tiny_scenario, tmp_path):
        config = RunConfig(solver="greedy", scenario=tiny_scenario)
        first_engine = ExperimentEngine(cache_dir=tmp_path)
        first = first_engine.run(config)
        second_engine = ExperimentEngine(cache_dir=tmp_path)
        second = second_engine.run(config)
        assert first == second
        assert second_engine.stats.executed == 0
        assert second_engine.stats.disk_cache_hits == 1

    def test_cache_artifacts_are_config_hashed_json(self, tiny_scenario, tmp_path):
        config = RunConfig(solver="offline", scenario=tiny_scenario)
        ExperimentEngine(cache_dir=tmp_path).run(config)
        path = tmp_path / f"{config.config_hash()}.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["type"] == "run_result"
        assert payload["config_hash"] == config.config_hash()

    def test_entry_of_another_cache_generation_is_a_miss(self, tiny_scenario, tmp_path):
        config = RunConfig(solver="offline", scenario=tiny_scenario)
        expected = ExperimentEngine(cache_dir=tmp_path).run(config)
        path = tmp_path / f"{config.config_hash()}.json"
        stale = json.loads(path.read_text())
        del stale["cache_generation"]
        stale["max_vehicle_energy"] = -1.0
        path.write_text(json.dumps(stale))
        engine = ExperimentEngine(cache_dir=tmp_path)
        assert engine.run(config) == expected
        assert engine.stats.executed == 1
        assert engine.stats.disk_cache_hits == 0
        assert json.loads(path.read_text())["cache_generation"] == CACHE_GENERATION

    def test_duplicate_configs_in_one_batch_solved_once(self, tiny_scenario):
        engine = ExperimentEngine()
        config = RunConfig(solver="offline", scenario=tiny_scenario)
        results = engine.run_many([config, config, config])
        assert len(results) == 3
        assert results[0] == results[1] == results[2]
        assert engine.stats.executed == 1

    def test_duplicate_configs_deduped_under_workers(self, tiny_scenario):
        engine = ExperimentEngine(workers=4)
        config = RunConfig(solver="greedy", scenario=tiny_scenario)
        other = RunConfig(solver="tsp", scenario=tiny_scenario)
        results = engine.run_many([config, other, config, other])
        assert [r.solver for r in results] == ["greedy", "tsp", "greedy", "tsp"]
        assert engine.stats.executed == 2

    def test_executed_counter_accurate_under_workers(self, matrix):
        engine = ExperimentEngine(workers=4)
        engine.run_many(matrix)
        unique = len({c.config_hash() for c in matrix})
        assert engine.stats.executed == unique

    def test_clear_cache(self, tiny_scenario, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        engine.run(RunConfig(solver="offline", scenario=tiny_scenario))
        assert list(tmp_path.glob("*.json"))
        engine.clear_cache()
        assert not list(tmp_path.glob("*.json"))
        engine.run(RunConfig(solver="offline", scenario=tiny_scenario))
        assert engine.stats.executed == 2


class TestProgressAndSummary:
    def test_progress_callback_sees_every_run(self, matrix):
        seen = []
        engine = ExperimentEngine(progress=lambda done, total, result: seen.append((done, total)))
        engine.run_many(matrix)
        assert len(seen) == len(matrix)
        assert seen[-1] == (len(matrix), len(matrix))

    def test_summary_table_has_one_row_per_result(self, matrix):
        results = ExperimentEngine().run_many(matrix)
        table = ExperimentEngine.summary(results)
        rendered = table.render()
        assert len(table.rows) == len(results)
        assert "offline" in rendered and "greedy" in rendered

    def test_engine_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ExperimentEngine(workers=0)


class TestMatrix:
    def test_config_matrix_orders_scenario_major(self, tiny_scenario):
        other = ScenarioSpec.from_demand(DemandMap({(5, 5): 1.0}), name="other")
        configs = config_matrix([tiny_scenario, other], ["offline", "tsp"], seeds=[0, 1])
        labels = [(c.scenario.name, c.solver, c.scenario.seed) for c in configs]
        assert labels == [
            ("tiny", "offline", 0),
            ("tiny", "offline", 1),
            ("tiny", "tsp", 0),
            ("tiny", "tsp", 1),
            ("other", "offline", 0),
            ("other", "offline", 1),
            ("other", "tsp", 0),
            ("other", "tsp", 1),
        ]
