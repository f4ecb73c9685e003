"""Worker-count determinism of the engine across every transport kind.

The transport layer adds seeded randomness (loss streams, corruption
streams, per-edge jitter) to the message path; all of it must live in the
config, never in ambient state, so a sweep's serialized results stay
byte-identical whether it ran serially or over four worker processes.
The process pool also forces the configs through JSON -- exactly where an
unserializable or unstably-hashed transport field would surface.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentEngine, TransportSpec
from repro.distsim.transport import available_transports
from repro.workloads.library import family_config

FAMILY = "hotspot"
SEED = 0

#: One spec per registered kind, with non-default parameters so the params
#: channel is exercised too.
TRANSPORT_SPECS = {
    "reliable": TransportSpec("reliable", {"delay": 0.01}),
    "latency": TransportSpec("latency", {"delay": 0.01, "jitter": 0.05, "seed": 2}),
    "distance-latency": TransportSpec(
        "distance-latency", {"delay": 0.01, "per_step": 0.003}
    ),
    "lossy": TransportSpec("lossy", {"loss": 0.08, "seed": 2}),
    "corrupting": TransportSpec("corrupting", {"rate": 0.08, "seed": 2}),
    # The nested-spec channel: a retransmit wrapper over a lossy inner
    # transport exercises spec-in-spec JSON round-tripping too.
    "retransmit": TransportSpec(
        "retransmit",
        {
            "inner": {"kind": "lossy", "params": {"loss": 0.2, "seed": 2}},
            "retries": 2,
            "timeout": 0.05,
        },
    ),
}


def _configs(spec: TransportSpec):
    online = family_config(FAMILY, "online", seed=SEED, preset="small").replace(
        transport=spec
    )
    broken = family_config(
        FAMILY, "online-broken", seed=SEED, preset="small", transport=spec
    )
    return [online, broken]


def test_every_registered_kind_is_covered():
    assert set(TRANSPORT_SPECS) == set(available_transports())


@pytest.mark.parametrize("kind", sorted(TRANSPORT_SPECS))
class TestTransportWorkerDeterminism:
    def test_serial_and_processes_byte_identical(self, kind):
        spec = TRANSPORT_SPECS[kind]
        configs = _configs(spec)
        serial = ExperimentEngine(workers=1)
        reference = serial.results_payload(serial.run_many(configs))
        forked = ExperimentEngine(workers=4)
        assert forked.results_payload(forked.run_many(configs)) == reference

    def test_config_hash_round_trips_through_json(self, kind):
        import json

        from repro.api import RunConfig

        for config in _configs(TRANSPORT_SPECS[kind]):
            payload = json.loads(json.dumps(config.to_json()))
            restored = RunConfig.from_json(payload)
            assert restored == config
            assert restored.config_hash() == config.config_hash()
            assert restored.effective_transport() == TRANSPORT_SPECS[kind]
