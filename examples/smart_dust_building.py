"""Smart-Dust building monitoring with sensor failures (Chapters 3 and 4).

The introduction's motivating scenario: hundreds of millimeter-scale
sensors scattered over a building, monitoring temperature/humidity, each
with a tiny battery drained both by moving and by serving readings.  This
example runs a full campaign:

* a clustered workload (readings concentrate around a few hot spots);
* the decentralized online strategy with the Lemma 3.3.1 capacity;
* scenario 3 of Section 3.2.5: a handful of sensors die mid-campaign and
  the monitoring loop installs replacements;
* a comparison against the classical single-depot CVRP view of the same
  workload (benchmark E13's point: the objectives differ).

Run with::

    python examples/smart_dust_building.py
"""

from __future__ import annotations

import numpy as np

from repro import offline_bounds
from repro.analysis.report import Table
from repro.baselines.cvrp import CVRPInstance, clarke_wright
from repro.core.omega import omega_c
from repro.distsim.failures import FailurePlan
from repro.grid.lattice import Box
from repro.vehicles.fleet import Fleet, FleetConfig
from repro.workloads.arrivals import random_arrivals
from repro.workloads.generators import clustered_demand


def main() -> None:
    rng = np.random.default_rng(7)
    floor = Box.cube((0, 0), 16)
    demand = clustered_demand(floor, clusters=4, jobs_per_cluster=60, rng=rng, spread=2)
    print(f"Campaign workload: {demand!r}")

    bounds = offline_bounds(demand)
    print(
        f"Offline: omega* = {bounds.omega_star:.2f}, audited plan needs "
        f"{bounds.constructive_capacity:.2f} per sensor "
        f"(worst-case bound {bounds.upper_bound:.2f}).\n"
    )

    # ------------------------------------------------------------------ #
    # Online campaign with dying sensors (scenario 3)
    # ------------------------------------------------------------------ #
    omega = max(omega_c(demand), 2.0)
    capacity = (4 * 3**2 + 2) * omega
    config = FleetConfig(capacity=capacity, monitoring=True)
    fleet = Fleet(demand, omega, config)

    jobs = random_arrivals(demand, rng)
    crash_at = {len(jobs) // 4, len(jobs) // 2}
    crashed = 0
    unserved = 0
    for index, job in enumerate(jobs):
        if index in crash_at:
            # A currently active sensor breaks down ("smart dust" attrition).
            victim = fleet.registry[fleet.pair_key_of(job.position)]
            fleet.crash_vehicle(victim)
            crashed += 1
        served = fleet.deliver_job(job.position, job.energy)
        if not served:
            for _ in range(4):
                fleet.run_heartbeat_round()
            served = fleet.retry_job(job.position, job.energy)
        if not served:
            unserved += 1
        fleet.run_heartbeat_round()

    campaign = Table(
        "Online campaign with sensor attrition (scenario 3)",
        ["quantity", "value"],
    )
    campaign.add_row("jobs", len(jobs))
    campaign.add_row("sensors deployed", len(fleet.vehicles))
    campaign.add_row("sensors crashed mid-campaign", crashed)
    campaign.add_row("jobs left unserved", unserved)
    campaign.add_row("replacements installed", fleet.stats.replacements)
    campaign.add_row("watch-initiated searches", fleet.stats.watch_initiations)
    campaign.add_row("max per-sensor energy used", fleet.max_energy_used())
    campaign.add_row("provisioned capacity", capacity)
    campaign.add_row("protocol messages", fleet.messages_sent())
    print(campaign.render())
    print()

    # ------------------------------------------------------------------ #
    # The classical single-depot view of the same workload
    # ------------------------------------------------------------------ #
    instance = CVRPInstance.from_demand_map(demand, capacity=bounds.upper_bound)
    solution = clarke_wright(instance)
    contrast = Table(
        "Contrast with classical single-depot CVRP (Clarke--Wright)",
        ["objective", "CMVRP (vehicles everywhere)", "CVRP (one central depot)"],
    )
    contrast.add_row(
        "max per-vehicle energy",
        fleet.max_energy_used(),
        solution.max_route_energy(),
    )
    contrast.add_row(
        "total travel",
        fleet.total_travel(),
        solution.total_length(),
    )
    print(contrast.render())
    print(
        "\nWith a sensor at every vertex the per-vehicle energy stays small; "
        "funnelling everything through one depot concentrates travel on a few "
        "long routes, which is exactly the regime the CMVRP avoids."
    )

    assert unserved == 0


if __name__ == "__main__":
    main()
