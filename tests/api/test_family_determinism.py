"""Worker-count determinism of the engine over the scenario families.

The caching/sweep format promises byte-identical artifacts regardless of
how the batch is executed.  The family workloads stress every new code
path at once -- family-built demand, bursty arrivals, partition/churn
failure specs -- so this is where a nondeterministic seed or an
unserializable field would surface first.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentEngine
from repro.workloads.library import family_matrix

#: A slice of the registry covering demand-only, arrival-order, partition,
#: churn, and scale families (the full matrix lives in the differential
#: suite; process pools make every run here cost a worker round-trip).
FAMILIES = ("hotspot", "bursty", "partition", "churn", "scale-up")
SOLVERS = ("offline", "greedy", "online-broken")


def _configs():
    return family_matrix(FAMILIES, SOLVERS, seeds=(0,), preset="small")


@pytest.fixture(scope="module")
def serial_payload() -> str:
    engine = ExperimentEngine(workers=1)
    return engine.results_payload(engine.run_many(_configs()))


class TestFamilySweepDeterminism:
    def test_four_processes_byte_identical(self, serial_payload):
        engine = ExperimentEngine(workers=4)
        payload = engine.results_payload(engine.run_many(_configs()))
        assert payload == serial_payload

    def test_rerun_in_fresh_engine_byte_identical(self, serial_payload):
        engine = ExperimentEngine(workers=1)
        payload = engine.results_payload(engine.run_many(_configs()))
        assert payload == serial_payload
