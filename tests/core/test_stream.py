"""The arrival driver every online run schedules its jobs through."""

from __future__ import annotations

import pytest

from repro.core.demand import DemandMap, JobSequence
from repro.core.online import provision_fleet
from repro.core.stream import StreamDriver
from repro.distsim.engine import Simulator
from repro.vehicles.fleet import FleetConfig

DEMAND = DemandMap({(x, y): 2.0 for x in range(3) for y in range(3)})
JOBS = JobSequence.from_positions(sorted(DEMAND.support()) * 2)


def _driver(config=FleetConfig(), **kwargs):
    fleet, fleet_config, _, _ = provision_fleet(DEMAND, omega=3.0, config=config)
    return StreamDriver(fleet, fleet_config, fleet.failure_plan, JOBS, **kwargs)


class TestStreamDriver:
    def test_serves_the_sequence(self):
        driver = _driver()
        assert driver.run() == len(JOBS)
        assert driver.dispatched == driver.consumed == len(JOBS)
        assert driver.finished and not driver.window

    def test_no_listener_drains_in_one_pass(self, monkeypatch):
        calls = []
        original = Simulator.run_window

        def counting(self, until, **kwargs):
            calls.append(until)
            return original(self, until, **kwargs)

        monkeypatch.setattr(Simulator, "run_window", counting)
        _driver().run()
        assert calls == [None]

    def test_control_sees_every_boundary_and_the_end(self):
        seen = []
        driver = _driver(control=lambda d: seen.append((d.dispatched, d.finished)))
        driver.run()
        assert seen == [(k, False) for k in range(len(JOBS))] + [(len(JOBS), True)]

    @pytest.mark.parametrize("lookahead", [1, 5])
    def test_window_never_exceeds_the_lookahead(self, lookahead):
        sizes = []
        driver = _driver(
            lookahead=lookahead, on_arrival=lambda *_: sizes.append(len(driver.window))
        )
        driver.run()
        assert max(sizes) <= lookahead

    def test_ticks_replay_the_fleet_wide_bookkeeping(self):
        ticks = [len(JOBS) + 0.5 + k for k in range(3)]
        driver = _driver(FleetConfig(monitoring=True), ticks=ticks)
        driver.run()
        assert driver.served == len(JOBS)
        assert driver.fleet.stats.heartbeat_rounds == len(JOBS) + len(ticks)
        assert driver.plan.clock == ticks[-1]

    def test_duration_cancels_the_rest_of_the_window(self):
        driver = _driver(duration=4.0)
        assert driver.run() == 4
        assert driver.dispatched == 4

    def test_rejects_out_of_order_jobs(self):
        jobs = list(JOBS.jobs)
        fleet, fleet_config, _, _ = provision_fleet(DEMAND, omega=3.0)
        driver = StreamDriver(fleet, fleet_config, fleet.failure_plan, [jobs[1], jobs[0]])
        with pytest.raises(ValueError, match="strictly increasing"):
            driver.run()

    def test_rejects_an_empty_lookahead(self):
        with pytest.raises(ValueError, match="lookahead"):
            _driver(lookahead=0)
