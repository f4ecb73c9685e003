"""Tour of the adversarial scenario-family library.

Runs every registered family through a couple of solvers (CI-scale
presets), shows a timed partition + churn scenario on the event-driven
online driver, and prints the one-line recipe for adding a family.

Run with::

    PYTHONPATH=src python examples/scenario_families.py
"""

from __future__ import annotations

from repro.api import ExperimentEngine
from repro.workloads.library import (
    available_families,
    build_family_failures,
    family_config,
    family_matrix,
    get_family,
)


def sweep_the_registry() -> None:
    """Every family x (offline, greedy, online) through the engine."""
    engine = ExperimentEngine(workers=4)
    configs = family_matrix(
        available_families(), ("offline", "greedy", "online"), preset="small"
    )
    results = engine.run_many(configs)
    print(ExperimentEngine.summary(results, title="Scenario-family sweep").render())


def adversarial_run_on_the_event_engine() -> None:
    """The partition family on the event-driven driver, failures and all."""
    config = family_config("partition", "online-broken", preset="small")
    result = ExperimentEngine().run(config)
    failures = build_family_failures("partition", config.scenario.family_params_dict())
    window = failures.partitions[0]
    print(
        f"\npartition family (event driver): served {result.jobs_served}/"
        f"{result.jobs_total}, cut [{window.start:g}, {window.end:g}) on the "
        f"job clock, {result.extra('events_processed')} simulator events, "
        f"{result.extra('replacements')} replacements"
    )


def how_to_add_a_family() -> None:
    family = get_family("hotspot")
    print(
        "\nAdding a family: write a generator in repro.workloads.generators, "
        "then register_family(ScenarioFamily(name=..., build=..., defaults=..., "
        "small=..., failures=optional)).\n"
        f"Example entry: {family.name!r} -> defaults {dict(family.defaults)}"
    )


if __name__ == "__main__":
    sweep_the_registry()
    adversarial_run_on_the_event_engine()
    how_to_add_a_family()
