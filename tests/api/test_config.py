"""Tests for ScenarioSpec / RunConfig validation, hashing, and JSON round-trips."""

from __future__ import annotations

import json

import pytest

from repro.api import ConfigError, FailureSpec, RunConfig, RunResult, ScenarioSpec
from repro.core.demand import DemandMap
from repro.io.serialize import (
    run_config_from_json,
    run_config_to_json,
    run_result_from_json,
    run_result_to_json,
)


@pytest.fixture
def inline_scenario() -> ScenarioSpec:
    demand = DemandMap({(0, 0): 3.0, (2, 1): 5.0})
    return ScenarioSpec.from_demand(demand, name="tiny", order="sequential", seed=4)


@pytest.fixture
def full_config(inline_scenario: ScenarioSpec) -> RunConfig:
    return RunConfig(
        solver="online-broken",
        scenario=inline_scenario,
        capacity=12.5,
        omega=2.0,
        failures=FailureSpec(crashed=((0, 0),), suppressed=((1, 1),)),
        recovery_rounds=2,
        params={"b": 1, "a": [1, 2]},
    )


class TestScenarioSpec:
    def test_named_lookup_materializes_demand(self):
        spec = ScenarioSpec.named("point")
        assert not spec.demand().is_empty()

    def test_named_unknown_scenario_raises(self):
        with pytest.raises(ConfigError, match="unknown paper scenario"):
            ScenarioSpec.named("nonsense")

    def test_inline_entries_round_trip_demand(self, inline_scenario: ScenarioSpec):
        demand = inline_scenario.demand()
        assert demand[(0, 0)] == 3.0
        assert demand[(2, 1)] == 5.0

    def test_entries_are_normalized_sorted(self):
        spec = ScenarioSpec(name="x", entries=(((2, 1), 5.0), ((0, 0), 3)))
        assert spec.entries == (((0, 0), 3.0), ((2, 1), 5.0))

    def test_invalid_order_rejected(self):
        with pytest.raises(ConfigError, match="arrival order"):
            ScenarioSpec(name="x", order="shuffled")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            ScenarioSpec(name="x", seed=-1)

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigError, match="demand"):
            ScenarioSpec(name="x", entries=(((0, 0), -1.0),))

    def test_string_point_rejected(self):
        # A string would otherwise iterate char-by-char into a bogus point.
        with pytest.raises(ConfigError, match="lattice point"):
            FailureSpec(crashed=("33",))

    def test_string_coordinate_rejected_as_config_error(self):
        with pytest.raises(ConfigError, match="coordinate"):
            ScenarioSpec(name="x", entries=((("a", 0), 1.0),))

    def test_fractional_coordinate_rejected(self):
        with pytest.raises(ConfigError, match="non-integer"):
            FailureSpec(crashed=((3.7, 2.2),))

    def test_integral_float_coordinate_accepted(self):
        assert FailureSpec(crashed=((3.0, 2.0),)).crashed == ((3, 2),)

    def test_named_demand_is_cached_instance(self):
        first = ScenarioSpec(name="point").demand()
        second = ScenarioSpec(name="point", seed=5).demand()
        assert first is second

    def test_jobs_deterministic_per_seed(self):
        demand = DemandMap({(0, 0): 4.0, (1, 0): 2.0})
        spec_a = ScenarioSpec.from_demand(demand, seed=7)
        spec_b = ScenarioSpec.from_demand(demand, seed=7)
        assert spec_a.jobs().positions() == spec_b.jobs().positions()

    def test_json_round_trip(self, inline_scenario: ScenarioSpec):
        payload = json.loads(json.dumps(inline_scenario.to_json()))
        assert ScenarioSpec.from_json(payload) == inline_scenario


class TestRunConfigValidation:
    def test_bad_capacity_string_rejected(self):
        with pytest.raises(ConfigError, match="capacity"):
            RunConfig(solver="online", scenario=ScenarioSpec(name="point"), capacity="lots")

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ConfigError, match="capacity"):
            RunConfig(solver="online", scenario=ScenarioSpec(name="point"), capacity=0.0)

    def test_non_positive_omega_rejected(self):
        with pytest.raises(ConfigError, match="omega"):
            RunConfig(solver="online", scenario=ScenarioSpec(name="point"), omega=-2.0)

    def test_negative_recovery_rounds_rejected(self):
        with pytest.raises(ConfigError, match="recovery_rounds"):
            RunConfig(
                solver="online", scenario=ScenarioSpec(name="point"), recovery_rounds=-1
            )

    def test_non_json_param_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            RunConfig(
                solver="online",
                scenario=ScenarioSpec(name="point"),
                params={"bad": object()},
            )

    def test_explicit_transport_drops_the_bundled_one(self):
        bundled = FailureSpec(crashed=((0, 0),), transport="latency")
        config = RunConfig(
            solver="online-broken",
            scenario=ScenarioSpec(name="point"),
            failures=bundled,
            transport="lossy",
        )
        assert config.failures == FailureSpec(crashed=((0, 0),))
        assert config.effective_transport().kind == "lossy"
        # Same config, hence same hash, as stripping the bundled one by hand.
        stripped = config.replace(failures=bundled.without_transport())
        assert config.config_hash() == stripped.config_hash()
        # Without an explicit transport the bundled one is kept.
        assert config.replace(transport=None, failures=bundled).failures == bundled

    def test_validate_rejects_unknown_scenario(self):
        config = RunConfig(solver="offline", scenario=ScenarioSpec(name="nonsense"))
        with pytest.raises(ConfigError, match="unknown paper scenario"):
            config.validate()


class TestRunConfigRoundTrip:
    def test_json_round_trip_equality(self, full_config: RunConfig):
        payload = json.loads(json.dumps(full_config.to_json()))
        assert RunConfig.from_json(payload) == full_config

    def test_io_serialize_round_trip(self, full_config: RunConfig):
        payload = json.loads(json.dumps(run_config_to_json(full_config)))
        assert run_config_from_json(payload) == full_config

    def test_round_trip_preserves_hash(self, full_config: RunConfig):
        restored = RunConfig.from_json(full_config.to_json())
        assert restored.config_hash() == full_config.config_hash()

    def test_hash_differs_when_config_differs(self, full_config: RunConfig):
        other = full_config.replace(recovery_rounds=3)
        assert other.config_hash() != full_config.config_hash()

    def test_params_normalized_sorted(self, full_config: RunConfig):
        assert [key for key, _ in full_config.params] == ["a", "b"]
        assert full_config.param("b") == 1

    def test_bad_payload_type_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_json({"type": "something_else"})


class TestRunResultRoundTrip:
    def test_json_round_trip_equality(self):
        result = RunResult(
            solver="offline",
            scenario="tiny",
            omega_star=3.0,
            capacity=9.0,
            feasible=True,
            max_vehicle_energy=9.0,
            total_energy=12.0,
            objective=9.0,
            jobs_total=8,
            jobs_served=8,
            extras={"messages": 4, "ratio": 1.5},
            config_hash="abc",
        )
        payload = json.loads(json.dumps(run_result_to_json(result)))
        assert run_result_from_json(payload) == result

    def test_unbounded_capacity_survives(self):
        result = RunResult(
            solver="transportation",
            scenario="tiny",
            omega_star=0.0,
            capacity=None,
            feasible=True,
            max_vehicle_energy=0.0,
            total_energy=0.0,
            objective=0.0,
            jobs_total=0,
            jobs_served=0,
        )
        restored = RunResult.from_json(json.loads(json.dumps(result.to_json())))
        assert restored.capacity is None
        assert restored == result
