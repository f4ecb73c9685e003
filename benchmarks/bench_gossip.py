#!/usr/bin/env python
"""Gossip failure-detection benchmark: latency and overhead at 10^3 vehicles.

The epidemic detector (``FleetConfig(monitoring="gossip")``) claims two
things worth gating:

* **bounded detection latency** -- with digests reaching ``fanout`` peers
  of the sender's own cube per round, a crashed pair is suspected,
  quorum-attested, and handed to a replacement search within
  ``O(log k)`` heartbeat rounds for a cube of ``k`` vehicles, even on a
  lossy channel.  The benchmark crashes several vehicles across distant
  cubes of a ~10^3-vehicle fleet under 10% message loss, drives heartbeat
  rounds until every crash is detected, and records the detection-round
  quantiles (p50/p99).  They must clear ``2 * log2(n) * miss_threshold``
  over the whole fleet's ``n`` -- twice the fleet-wide epidemic-spread
  round count, so it holds a fortiori for cube-scoped spread.  Measured
  p99: 5 rounds (4 with the earlier blake2b draws, 10 while digests went
  to fleet-wide peers), just past the 3-round miss threshold;
* **modest round overhead** -- digests are sent in the heartbeat round,
  one message per vehicle next to the heartbeats, so a gossip round
  should cost a small constant factor over the identical ring-monitored
  round (measured failure-free on the same lossy channel; the factor is
  the digest + beacon traffic).

Results go to ``BENCH_gossip.json`` (folded into ``BENCH_summary.json``)
and are gated by ``check_events_per_sec.py --gossip-report``: the p99
against the committed ``gossip_detection_rounds_1e3`` ceiling, and the
gossip round rate (``gossip.rounds_per_sec``, which must carry traffic)
against the committed ``gossip_rounds_per_sec_1e3`` floor.

Usage::

    PYTHONPATH=src python benchmarks/bench_gossip.py [--quick] \
        [--out BENCH_gossip.json]
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from _common import bootstrap_src, emit_report

bootstrap_src()

from repro.distsim.transport import TransportSpec, build_transport
from repro.vehicles.fleet import Fleet, FleetConfig
from repro.workloads.library import build_family_demand

#: scale-up side 32 provisions a ~10^3-vehicle fleet under omega=3.
SIDE = 32
OMEGA = 3.0

#: Vehicles dead from the start, spread across distant cubes.
CRASHED = ((0, 0), (15, 15), (30, 30), (0, 30))

#: 10% message loss -- the acceptance scenario's channel.
LOSS = TransportSpec("lossy", {"loss": 0.1, "seed": 3})

#: Heartbeat rounds measured for the throughput comparison.
THROUGHPUT_ROUNDS = 15

#: Detection must land within this many rounds (far above the bound;
#: a cap so a broken detector fails instead of spinning forever).
ROUND_CAP = 200


def _fleet(monitoring) -> Fleet:
    demand = build_family_demand("scale-up", {"side": SIDE, "per_point": 2.0})
    return Fleet(
        demand,
        omega=OMEGA,
        config=FleetConfig(monitoring=monitoring),
        transport=build_transport(LOSS),
    )


def measure_round_throughput(monitoring) -> dict:
    """Cost of a failure-free monitored heartbeat round on the lossy channel."""
    fleet = _fleet(monitoring)
    fleet.run_heartbeat_round()  # warm caches (index map, numpy views)
    sent_before = fleet.network.messages_sent
    start = time.perf_counter()
    for _ in range(THROUGHPUT_ROUNDS):
        fleet.run_heartbeat_round()
    elapsed = time.perf_counter() - start
    sent = fleet.network.messages_sent - sent_before
    return {
        "monitoring": "gossip" if monitoring == "gossip" else "ring",
        "vehicles": len(fleet.vehicles),
        "rounds": THROUGHPUT_ROUNDS,
        "rounds_per_sec": THROUGHPUT_ROUNDS / elapsed if elapsed else 0.0,
        "seconds_per_round": elapsed / THROUGHPUT_ROUNDS,
        "messages_sent": sent,
        "events_per_sec": sent / elapsed if elapsed else 0.0,
    }


def measure_detection() -> dict:
    """Rounds until every crashed pair is detected, under 10% loss."""
    fleet = _fleet("gossip")
    for identity in CRASHED:
        fleet.crash_vehicle(identity)
    start = time.perf_counter()
    rounds = 0
    while fleet.detection_digest.count < len(CRASHED) and rounds < ROUND_CAP:
        fleet.run_heartbeat_round()
        rounds += 1
    elapsed = time.perf_counter() - start
    return {
        "vehicles": len(fleet.vehicles),
        "crashed": len(CRASHED),
        "detections": int(fleet.detection_digest.count),
        "rounds_driven": rounds,
        "detection_seconds": elapsed,
        "detection_p50": fleet.detection_digest.quantile(0.5),
        "detection_p99": fleet.detection_digest.quantile(0.99),
        "suspicions": fleet.stats.suspicions,
        "attestations": fleet.stats.attestations,
        "false_suspicions": fleet.stats.false_suspicions,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="accepted for CI symmetry; no-op"
    )
    parser.add_argument("--out", default="BENCH_gossip.json", help="output artifact path")
    args = parser.parse_args(argv)

    detection = measure_detection()
    ring = measure_round_throughput(True)
    gossip = measure_round_throughput("gossip")

    n = detection["vehicles"]
    miss = FleetConfig().heartbeat_miss_threshold
    bound_rounds = 2.0 * math.log2(max(n, 2)) * miss
    within_bound = (
        detection["detections"] == detection["crashed"]
        and detection["detection_p99"] <= bound_rounds
    )
    overhead = (
        gossip["seconds_per_round"] / ring["seconds_per_round"]
        if ring["seconds_per_round"]
        else float("inf")
    )

    report = {
        "scale": "1e3",
        "loss": 0.1,
        "detection": detection,
        "ring": ring,
        "gossip": gossip,
        "round_overhead": overhead,
        "gossip_detection_rounds_p50": detection["detection_p50"],
        "gossip_detection_rounds_p99": detection["detection_p99"],
        "detection_bound_rounds": bound_rounds,
        "within_bound": within_bound,
    }

    print(
        f"detection: {detection['detections']}/{detection['crashed']} crashes in "
        f"{detection['rounds_driven']} rounds "
        f"(p50 {detection['detection_p50']:.1f} / p99 {detection['detection_p99']:.1f}), "
        f"bound {bound_rounds:.1f} (n={n}, miss={miss}) -> "
        f"{'ok' if within_bound else 'EXCEEDED'}"
    )
    print(
        f"ring:   {ring['rounds_per_sec']:.1f} rounds/sec, "
        f"{ring['events_per_sec']:,.0f} msgs/sec"
    )
    print(
        f"gossip: {gossip['rounds_per_sec']:.1f} rounds/sec, "
        f"{gossip['events_per_sec']:,.0f} msgs/sec "
        f"(round overhead {overhead:.2f}x)"
    )

    emit_report(report, args.out)
    return 0 if within_bound else 1


if __name__ == "__main__":
    sys.exit(main())
