"""Distributed-system substrate: event-driven message-passing simulation.

The online strategy of Chapter 3 is a decentralized protocol: vehicles
exchange query/reply/move messages over an asynchronous, reliable, FIFO
network and coordinate replacements with a Dijkstra--Scholten diffusing
computation.  This subpackage provides the substrate that protocol runs on:

* :mod:`repro.distsim.engine` -- a deterministic discrete-event simulator.
* :mod:`repro.distsim.network` -- message delivery between registered
  processes: registration, failure injection hooks, and routing through a
  transport.
* :mod:`repro.distsim.transport` -- the pluggable delivery models (reliable,
  per-edge latency jitter, seeded loss, Byzantine corruption) plus the
  frozen :class:`~repro.distsim.transport.TransportSpec` the run configs
  and the CLI use to select one.
* :mod:`repro.distsim.process` -- the process abstraction (local state,
  message handlers, unbounded input buffer).
* :mod:`repro.distsim.diffusing` -- a standalone, reusable implementation of
  the Dijkstra--Scholten termination-detection scheme reviewed in
  Section 3.1.  Only its own tests use it; the vehicles' Phase I
  computation follows the same scheme in its own code.
* :mod:`repro.distsim.events` -- the event core: a monotonic simulation
  clock, the deterministic event queue, and the counters the scenario
  benchmarks report events/sec from.
* :mod:`repro.distsim.failures` -- crash and omission failure injection used
  by the Chapter 3 "scenario 2/3" experiments, plus timed partition windows
  and vehicle churn schedules for the adversarial scenario families.
"""

from repro.distsim.engine import Event, Simulator
from repro.distsim.events import EventQueue, EventStats, ScheduledEvent, SimClock
from repro.distsim.network import Network
from repro.distsim.process import Process
from repro.distsim.diffusing import (
    DiffusingComputation,
    DiffusingNode,
    HierarchicalSearch,
)
from repro.distsim.failures import ChurnSpec, FailurePlan, PartitionSpec
from repro.distsim.transport import (
    CorruptingTransport,
    DistanceLatencyTransport,
    LatencyTransport,
    LossyTransport,
    RandomJitterTransport,
    ReliableTransport,
    RetransmitTransport,
    Transport,
    TransportSpec,
    available_transports,
    build_transport,
)

__all__ = [
    "Event",
    "Simulator",
    "EventQueue",
    "EventStats",
    "ScheduledEvent",
    "SimClock",
    "Network",
    "Process",
    "DiffusingNode",
    "DiffusingComputation",
    "HierarchicalSearch",
    "ChurnSpec",
    "FailurePlan",
    "PartitionSpec",
    "Transport",
    "TransportSpec",
    "ReliableTransport",
    "LatencyTransport",
    "LossyTransport",
    "CorruptingTransport",
    "DistanceLatencyTransport",
    "RetransmitTransport",
    "RandomJitterTransport",
    "available_transports",
    "build_transport",
]
