"""Spans and counters recorded from outside the program, around each layer.

Nothing here edits ``repro``: every measurement comes from wrapping a
layer's public entry point (a module function or a class method) for the
duration of one run and restoring it afterwards.

Two kinds of wrapper exist:

* **Marks** are installed once per process and stay on for every run,
  traced or not.  They cost one extra call per *run*, not per message:
  the end of set-up (``provision_fleet`` returning, or the coordinator
  handing payloads to the worker pool), the fleet a run built (for the
  output checks), and each parallel-lockstep worker's absolute start/end
  wall timestamps and peak RSS.
* **Spans** are installed only for a traced run.  Each records, per
  layer name, the call count, the inclusive time and the *self* time
  (inclusive time minus the time covered by nested spans).  Spans also
  feed the per-type message census.  Worker processes inherit the
  installed spans through ``fork``; each worker ships its own span table
  back inside its result, and the coordinator merges it.
"""

from __future__ import annotations

import os
import pickle
import resource
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


class SetupDone(Exception):
    """Raised at the end of set-up when a run is only a set-up probe."""


class Tracer:
    """Span table, counters and the stack of open spans of one process."""

    def __init__(self) -> None:
        #: layer name -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self.counters: Counter = Counter()
        #: One frame per open span; a frame accumulates its children's time.
        #: The bottom frame is the root span (the whole run).
        self.stack: List[List[float]] = [[0.0]]
        #: Depth of open ``Network.send_many`` calls (their nested ``send``
        #: fallbacks are counted once, by the broadcast).
        self.broadcast_depth = 0

    def reset(self) -> None:
        # Wrappers hold references to these containers: clear, never rebind.
        self.spans.clear()
        self.counters.clear()
        del self.stack[1:]
        self.stack[0][0] = 0.0
        self.broadcast_depth = 0

    def root_self(self, wall: float) -> float:
        """Time inside the root span that no layer span covers."""
        return wall - self.stack[0][0]

    def timed(
        self,
        name: Any,
        fn: Callable,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``name`` is a string or ``args -> str``.

        ``after(args, result)`` runs inside the span, so the little work it
        does is charged to the layer it describes.
        """
        spans = self.spans
        stack = self.stack
        name_of = name if callable(name) else None

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                key = name_of(args) if name_of is not None else name
                entry = spans.get(key)
                if entry is None:
                    entry = spans[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]

        return wrapper

    @staticmethod
    def fleet_counters(fleets) -> Counter:
        """Counters read off the fleets a process built."""
        out: Counter = Counter()
        for fleet in fleets:
            stats = fleet.simulator.stats
            out["engine.executed"] += stats.executed
            out["engine.scheduled"] += stats.scheduled
            out["network.sent"] += fleet.network.messages_sent
            out["network.delivered"] += fleet.network.messages_delivered
            out["network.dropped"] += fleet.network.messages_dropped
            out["fleet.vehicles"] += len(fleet.vehicles)
        return out

    def export(self, wall: float, fleets) -> Dict[str, Any]:
        """Picklable snapshot of this process's trace and its fleets' counters."""
        counters = Counter(self.counters)
        counters.update(self.fleet_counters(fleets))
        return {
            "spans": {name: list(entry) for name, entry in self.spans.items()},
            "counters": dict(counters),
            "wall": wall,
            "root_self": self.root_self(wall),
        }


class Session:
    """Per-process hook state shared by the marks and the worker wrapper."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.installed = False
        self.original_worker: Optional[Callable] = None
        self.probe = False
        self.tracer: Optional[Tracer] = None
        self.begin_run()

    def begin_run(self) -> None:
        self.setup_end: Optional[float] = None
        self.pool: List[Tuple[float, float]] = []
        self.workers: List[Dict[str, Any]] = []
        self.fleets: List[Any] = []


#: The process's hook state.  It must be module-global: the worker pool
#: pickles the worker wrapper by reference, and the forked worker finds
#: its session here.
SESSION = Session()


def _set_attr(owner: Any, attr: str, value: Any) -> Callable[[], None]:
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    return lambda: setattr(owner, attr, original)


def install_marks() -> None:
    """Install the always-on marks (idempotent)."""
    if SESSION.installed:
        return
    import repro.core.online as online
    import repro.distsim.parallel_lockstep as lockstep
    import repro.service.harness as harness

    provision = online.provision_fleet

    def provision_mark(*args, **kwargs):
        built = provision(*args, **kwargs)
        SESSION.setup_end = perf_counter()
        SESSION.fleets.append(built[0])
        if SESSION.probe:
            raise SetupDone()
        return built

    pool = online.run_parallel_lockstep

    def pool_mark(payloads, *, workers=None):
        SESSION.setup_end = perf_counter()
        if SESSION.probe:
            raise SetupDone()
        if SESSION.tracer is not None:
            SESSION.tracer.counters["shard.payload_bytes"] += sum(
                len(pickle.dumps(p)) for p in payloads
            )
        start = time.time()
        results = pool(payloads, workers=workers)
        SESSION.pool.append((start, time.time()))
        for result in results:
            SESSION.workers.append(result.pop("perfbench"))
        return results

    online.provision_fleet = provision_mark
    harness.provision_fleet = provision_mark
    online.run_parallel_lockstep = pool_mark
    SESSION.original_worker = lockstep._parallel_lockstep_worker
    lockstep._parallel_lockstep_worker = timed_worker
    SESSION.installed = True


def timed_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The parallel-lockstep worker entry, with absolute wall timestamps.

    Runs in the worker process.  Records the worker's start/end
    ``time.time()`` (comparable across processes), its peak RSS, the job
    accounting of the fleet it built and, on a traced run, its span table.
    """
    if SESSION.original_worker is None:
        raise RuntimeError("perfbench worker hooks need the fork start method")
    in_worker = os.getpid() != SESSION.pid
    if in_worker:
        SESSION.begin_run()
        if SESSION.tracer is not None:
            SESSION.tracer.reset()
    fleets_before = len(SESSION.fleets)
    start = time.time()
    result = SESSION.original_worker(payload)
    end = time.time()
    fleet = SESSION.fleets[fleets_before]
    info: Dict[str, Any] = {
        "start": start,
        "end": end,
        "rss_kb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if in_worker else 0
        ),
        "delivered": fleet.stats.jobs_delivered,
        "unserved": fleet.stats.jobs_unserved,
        "trace": None,
    }
    if in_worker and SESSION.tracer is not None:
        info["trace"] = SESSION.tracer.export(end - start, SESSION.fleets)
    result["perfbench"] = info
    return result


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #


def _patch_function(modules, attr: str, wrap) -> List[Callable[[], None]]:
    """Wrap one function under every module name that binds it."""
    original = getattr(modules[0], attr)
    wrapped = wrap(original)
    undo = []
    for module in modules:
        if getattr(module, attr, None) is original:
            undo.append(_set_attr(module, attr, wrapped))
    return undo


def install_spans(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point in a span; returns the uninstaller."""
    import repro.core.omega as omega
    import repro.core.online as online
    import repro.service.checkpoint as checkpoint
    import repro.service.harness as harness
    from repro.distsim.engine import Simulator
    from repro.distsim.events import EventQueue
    from repro.distsim.failures import FailurePlan
    from repro.distsim.network import Network
    from repro.distsim.transport import Transport
    from repro.service.metrics import MetricsRecorder
    from repro.service.state_store import LiveStateStore
    from repro.vehicles.fleet import Fleet
    from repro.vehicles.vehicle import VehicleProcess

    counters = tracer.counters
    timed = tracer.timed
    undo: List[Callable[[], None]] = []

    def method(owner, attr, name, after=None):
        undo.append(_set_attr(owner, attr, timed(name, getattr(owner, attr), after)))

    def function(modules, attr, name, after=None):
        undo.extend(_patch_function(modules, attr, lambda fn: timed(name, fn, after)))

    # provisioning
    function([omega], "max_cube_sums", "omega.max_cube_sums")
    for attr in ("demand_cube_maxima", "omega_c", "omega_star_cubes"):
        function([omega, online, harness], attr, f"omega.{attr}")
    function([online, harness], "provision_fleet", "provision_fleet")
    method(Fleet, "__init__", "Fleet.__init__")

    # event core
    method(Simulator, "run", "Simulator.run")
    # The parallel-lockstep workers drain through conservative windows.
    method(Simulator, "run_window", "Simulator.run_window")

    def popped(args, batch):
        if batch:
            counters["engine.batches"] += 1
            counters["engine.popped"] += len(batch)

    method(EventQueue, "pop_batch", "EventQueue.pop_batch", popped)

    # network (with the per-type census of logical sends)
    def sent(args, _result):
        if not tracer.broadcast_depth:
            counters["sent." + type(args[3]).__name__] += 1

    method(Network, "send", "Network.send", sent)
    broadcast = Network.send_many

    def send_many(self, sender, destinations, message):
        before = self.messages_sent
        tracer.broadcast_depth += 1
        try:
            return broadcast(self, sender, destinations, message)
        finally:
            tracer.broadcast_depth -= 1
            counters["sent." + type(message).__name__] += self.messages_sent - before

    undo.append(_set_attr(Network, "send_many", timed("Network.send_many", send_many)))

    # transport
    def lost(args, accepted):
        if not accepted:
            counters["transport.lost"] += 1

    method(Transport, "send", "Transport.send", lost)

    def batched(args, _result):
        counters["transport.batched_msgs"] += len(args[2])

    method(Transport, "send_batch", "Transport.send_batch", batched)

    # failure filtering
    for attr in ("should_drop", "is_crashed", "is_partitioned"):
        method(FailurePlan, attr, f"FailurePlan.{attr}")

    # protocol handlers, split by message type
    handler_names: Dict[type, str] = {}

    def handler_name(args):
        kind = type(args[2])
        name = handler_names.get(kind)
        if name is None:
            name = handler_names[kind] = "handler." + kind.__name__
        return name

    method(VehicleProcess, "on_message", handler_name)

    # monitoring and arrivals
    heartbeat = Fleet.run_heartbeat_round

    def heartbeat_round(self, *args, **kwargs):
        before = self.network.messages_sent
        try:
            return heartbeat(self, *args, **kwargs)
        finally:
            counters["heartbeat.msgs"] += self.network.messages_sent - before

    undo.append(
        _set_attr(
            Fleet, "run_heartbeat_round", timed("Fleet.run_heartbeat_round", heartbeat_round)
        )
    )
    method(Fleet, "route_positions", "Fleet.route_positions")
    method(Fleet, "deliver_job", "Fleet.deliver_job")

    # service writers
    for attr in ("job_arrived", "job_served", "maybe_close_window", "rollup"):
        method(MetricsRecorder, attr, f"MetricsRecorder.{attr}")

    def checkpoint_bytes(args, _result):
        counters["service.checkpoint_bytes"] += os.path.getsize(args[1])

    function([checkpoint, harness], "capture_checkpoint", "capture_checkpoint")
    function([checkpoint, harness], "save_checkpoint", "save_checkpoint", checkpoint_bytes)
    for attr in ("write_state", "log_event"):
        method(LiveStateStore, attr, f"LiveStateStore.{attr}")
    function([harness], "build_state", "build_state")

    # sharding coordinator
    method(online._ShardPartition, "__init__", "shard.partition")
    function([online], "run_parallel_lockstep", "run_parallel_lockstep")
    function([online], "merge_parallel_lockstep_results", "merge_parallel_lockstep_results")

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall
