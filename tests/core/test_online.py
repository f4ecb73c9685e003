"""Tests for the online harness (run_online, Theorem 1.4.2 machinery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.demand import DemandMap, JobSequence
from repro.core.offline import online_upper_bound_factor
from repro.core.omega import omega_star_cubes
from repro.core.online import run_online
from repro.distsim.failures import FailurePlan
from repro.vehicles.fleet import FleetConfig
from repro.workloads.arrivals import random_arrivals, sequential_arrivals
from repro.workloads.generators import line_demand, point_demand, square_demand


class TestEmptyAndTrivialRuns:
    def test_empty_sequence(self):
        result = run_online(JobSequence([]))
        assert result.feasible
        assert result.jobs_total == 0
        assert result.max_vehicle_energy == 0.0

    def test_empty_sequence_reports_the_callers_config(self):
        result = run_online(
            JobSequence.from_positions([]), config=FleetConfig(monitoring="gossip")
        )
        assert result.monitoring_mode == "gossip"
        assert result.escalation is False
        assert result.jobs_total == 0 and result.feasible

    def test_empty_sequence_reports_the_configs_escalation(self):
        result = run_online(
            JobSequence.from_positions([]),
            config=FleetConfig(monitoring=True, escalation=True),
        )
        assert result.monitoring_mode == "ring"
        assert result.escalation is True

    def test_single_job(self):
        result = run_online(JobSequence.from_positions([(0, 0)]))
        assert result.feasible
        assert result.jobs_served == 1
        assert result.max_vehicle_energy == pytest.approx(1.0)


class TestTheoremCapacityRuns:
    @pytest.mark.parametrize(
        "demand",
        [square_demand(4, 6.0), line_demand(8, 5.0), point_demand(40.0)],
        ids=["square", "line", "point"],
    )
    def test_all_jobs_served_with_theorem_capacity(self, demand, rng):
        jobs = random_arrivals(demand, rng)
        result = run_online(jobs)
        assert result.feasible
        assert result.jobs_served == result.jobs_total

    @pytest.mark.parametrize(
        "demand",
        [square_demand(4, 6.0), point_demand(40.0)],
        ids=["square", "point"],
    )
    def test_no_vehicle_exceeds_theorem_capacity(self, demand, rng):
        jobs = random_arrivals(demand, rng)
        result = run_online(jobs)
        assert result.capacity == pytest.approx(result.theorem_capacity)
        assert result.max_vehicle_energy <= result.capacity + 1e-9

    def test_theorem_capacity_formula(self):
        demand = square_demand(4, 6.0)
        jobs = sequential_arrivals(demand)
        result = run_online(jobs, omega=2.0)
        assert result.theorem_capacity == pytest.approx(
            online_upper_bound_factor(2) * 2.0
        )

    def test_online_energy_within_constant_of_offline_lower_bound(self, rng):
        # Theorem 1.4.2: the online requirement is O(omega*); the realized
        # constant must stay below the analytic (4 * 3^l + l) factor.
        demand = square_demand(5, 8.0)
        jobs = random_arrivals(demand, rng)
        result = run_online(jobs)
        assert result.omega_star == pytest.approx(omega_star_cubes(demand).omega)
        assert result.max_vehicle_energy >= 1.0
        limit = online_upper_bound_factor(2) * max(result.omega, result.omega_star)
        assert result.max_vehicle_energy <= limit + 1e-9

    def test_total_service_matches_job_count(self, rng):
        demand = square_demand(3, 4.0)
        jobs = random_arrivals(demand, rng)
        result = run_online(jobs)
        assert result.total_service == pytest.approx(float(len(jobs)))


class TestExplicitOmegaAndCapacity:
    def test_small_capacity_forces_replacements(self):
        jobs = JobSequence.from_positions([(0, 0)] * 12)
        result = run_online(jobs, omega=3.0, capacity=8.0)
        assert result.feasible
        assert result.replacements >= 1
        assert result.messages > 0

    def test_too_small_capacity_is_reported_infeasible(self):
        jobs = JobSequence.from_positions([(0, 0)] * 40)
        result = run_online(jobs, omega=3.0, capacity=4.0)
        assert not result.feasible
        assert result.jobs_served < result.jobs_total

    def test_unbounded_capacity_measurement_mode(self):
        jobs = JobSequence.from_positions([(0, 0)] * 15)
        result = run_online(jobs, omega=3.0, capacity=None)
        assert result.feasible
        assert result.capacity is None
        # One vehicle serves everything (it never exhausts).
        assert result.replacements == 0
        assert result.max_vehicle_energy == pytest.approx(15.0)

    def test_invalid_omega(self):
        jobs = JobSequence.from_positions([(0, 0)])
        with pytest.raises(ValueError):
            run_online(jobs, omega=0.0)

    def test_vehicle_energies_reported(self):
        jobs = JobSequence.from_positions([(0, 0)] * 5)
        result = run_online(jobs, omega=2.0)
        assert sum(result.vehicle_energies.values()) == pytest.approx(
            result.total_travel + result.total_service
        )

    def test_online_to_offline_ratio(self):
        jobs = JobSequence.from_positions([(0, 0)] * 9)
        result = run_online(jobs, omega=2.0)
        assert result.online_to_offline_ratio == pytest.approx(
            result.max_vehicle_energy / result.omega_star
        )

    def test_ratio_is_infinite_when_energy_spent_against_zero_bound(self):
        """A degenerate scenario with omega* == 0 but positive energy drawn
        violates any multiplicative bound -- it must not masquerade as
        meeting the Theorem 1.4.2 constant with a clean-looking 1.0."""
        import dataclasses
        import math

        base = run_online(JobSequence.from_positions([(0, 0)] * 3))
        degenerate = dataclasses.replace(base, omega_star=0.0)
        assert degenerate.max_vehicle_energy > 0
        assert degenerate.online_to_offline_ratio == math.inf

    def test_ratio_is_one_when_nothing_spent_against_zero_bound(self):
        result = run_online(JobSequence([]))
        assert result.omega_star == 0.0
        assert result.max_vehicle_energy == 0.0
        assert result.online_to_offline_ratio == 1.0


class TestFailuresThroughHarness:
    def test_dead_vehicle_recovered_via_monitoring(self):
        jobs = JobSequence.from_positions([(0, 0)] * 6)
        config = FleetConfig(monitoring=True)
        plan = FailurePlan()
        # Note: crashing through the harness requires knowing the initial
        # active vehicle, which is the pair's black vertex (0, 0) itself; the
        # suppression flag models scenario 2 instead.
        plan.suppress_initiation((0, 0))
        result = run_online(
            jobs,
            omega=3.0,
            capacity=5.0,
            config=config,
            failure_plan=plan,
            recovery_rounds=4,
        )
        assert result.feasible

    def test_without_recovery_suppression_causes_unserved_jobs(self):
        jobs = JobSequence.from_positions([(0, 0)] * 10)
        plan = FailurePlan()
        plan.suppress_initiation((0, 0))
        result = run_online(jobs, omega=3.0, capacity=5.0, failure_plan=plan)
        assert not result.feasible

    def test_deterministic_given_seed(self):
        demand = square_demand(4, 5.0)
        jobs = random_arrivals(demand, np.random.default_rng(1))
        first = run_online(jobs, omega=2.0)
        second = run_online(jobs, omega=2.0)
        assert first.max_vehicle_energy == second.max_vehicle_energy
        assert first.messages == second.messages
        assert first.vehicle_energies == second.vehicle_energies
