"""One benchmark run: set-up probes, timed repetitions, metrics and checks.

``measure(workload, seed, seconds, trace)`` returns the report whose
``metrics`` are the end-to-end metrics (untraced runs) or the per-layer
metrics (traced runs).  Repetitions of one run all use the same seed, so
their fingerprints must agree.

Every probe and repetition runs in its own process, forked from the
benchmark process before it has run anything.  Repetitions in one process
were not alike: after a 400-vehicle run the interpreter's heap is larger
and fragmented, and the next repetition ran 10-25% slower than the first.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import resource
import traceback
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import tracing
from perfbench.workloads import WORKLOADS, Outcome, check, check_environment, reduce

perf_counter = tracing.perf_counter

#: Set-up-only runs made before the timed repetitions: at least
#: ``SETUP_PROBES`` of them, more (up to ``SETUP_PROBES_MAX``) while they
#: have taken less than ``SETUP_PROBE_SECONDS``.  Each stops at the end of
#: set-up, so ``setup_s`` is a median over many samples.
SETUP_PROBES = 3
SETUP_PROBES_MAX = 15
SETUP_PROBE_SECONDS = 1.0

#: Message types of the protocol, in census order.
MESSAGE_TYPES = (
    "QueryMessage",
    "ReplyMessage",
    "MoveMessage",
    "ExistingMessage",
    "ActivationNotice",
    "EscalateQuery",
    "EscalateReply",
    "GossipDigest",
    "SuspectMessage",
    "AttestMessage",
)

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


@dataclass
class Rep:
    """One repetition: timings, the reduced outcome, and its trace."""

    wall: float
    setup: float
    outcome: Optional[Outcome] = None
    #: Seconds from the end of set-up to the end of the run.
    run_s: float = 0.0
    workers: List[Dict[str, Any]] = field(default_factory=list)
    pool: List[Tuple[float, float]] = field(default_factory=list)
    #: Per-process trace exports: the coordinator's first, then each worker's.
    traces: List[Dict[str, Any]] = field(default_factory=list)
    #: Peak RSS of the repetition's process plus its workers' (KiB).
    rss_kb: int = 0


def run_once(case, *, probe: bool = False, tracer: Optional[tracing.Tracer] = None) -> Rep:
    """One run of ``case`` (inputs are built before the clock starts)."""
    session = tracing.SESSION
    session.pid = os.getpid()
    inputs = case.inputs()
    # Drop the previous run's fleet first: it is cyclic garbage, and left
    # for the collector it would be scanned by every full collection of
    # this run (~1M objects at ring-steady size, ~25% slower).
    session.begin_run()
    gc.collect()
    session.probe = probe
    uninstall = None
    if tracer is not None:
        tracer.reset()
        session.tracer = tracer
        uninstall = tracing.install_spans(tracer)
    start = perf_counter()
    try:
        result = case.execute(inputs)
    except tracing.SetupDone:
        return Rep(wall=perf_counter() - start, setup=session.setup_end - start)
    finally:
        end = perf_counter()
        session.probe = False
        if uninstall is not None:
            uninstall()
            session.tracer = None
        case.cleanup()
    rep = Rep(
        wall=end - start,
        setup=session.setup_end - start,
        run_s=end - session.setup_end,
        workers=list(session.workers),
        pool=list(session.pool),
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + sum(w["rss_kb"] for w in session.workers),
    )
    if session.workers:
        accounting = (
            sum(w["delivered"] for w in session.workers),
            sum(w["unserved"] for w in session.workers),
        )
    else:
        stats = session.fleets[0].stats
        accounting = (stats.jobs_delivered, stats.jobs_unserved)
    rep.outcome = reduce(result, case.attempted_of(inputs), accounting, session.fleets)
    if tracer is not None:
        rep.traces.append(tracer.export(rep.wall, session.fleets))
        rep.traces.extend(w["trace"] for w in session.workers if w["trace"])
    return rep


def _child(send, case, kwargs) -> None:
    try:
        send.send((True, run_once(case, **kwargs)))
    except BaseException:  # reported to the parent, which re-raises
        send.send((False, traceback.format_exc()))
    finally:
        send.close()


def run_isolated(case, **kwargs) -> Rep:
    """:func:`run_once` in a forked child process.

    ``fork`` is safe here: the benchmark process has no threads (the
    worker pool and its threads live in the child).  The child starts from
    the parent's heap, as every run of the program starts from a fresh one.
    """
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_child, args=(send, case, kwargs))
    child.start()
    send.close()
    try:
        ok, value = receive.recv()
    except EOFError:
        ok, value = False, "the repetition's process died without a result"
    finally:
        receive.close()
        child.join()
    if not ok:
        raise RuntimeError(f"repetition failed:\n{value}")
    return value


def _repeat(run, seconds: float, minimum: int) -> List[Rep]:
    """Call ``run`` until the next call would end past ``seconds``."""
    reps: List[Rep] = []
    begin = perf_counter()
    while True:
        reps.append(run(len(reps)))
        elapsed = perf_counter() - begin
        if len(reps) >= minimum and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def measure(
    name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False
) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    check_environment(workload)
    tracing.install_marks()
    case = workload.case(seed, tiny=tiny)
    setups: List[float] = []
    while len(setups) < SETUP_PROBES or (
        sum(setups) < SETUP_PROBE_SECONDS and len(setups) < SETUP_PROBES_MAX
    ):
        setups.append(run_isolated(case, probe=True).setup)

    tracer = tracing.Tracer() if trace else None
    if trace:
        # Alternate untraced and traced repetitions: the untraced ones are
        # the base of the tracing overhead.
        reps = _repeat(
            lambda i: run_isolated(case, tracer=tracer if i % 2 else None), seconds, 2
        )
    else:
        reps = _repeat(lambda i: run_isolated(case), seconds, 1)

    failures: List[str] = []
    for rep in reps:
        failures.extend(check(workload, rep.outcome))
    prints = sorted({rep.outcome.fingerprint for rep in reps})
    if len(prints) > 1:
        failures.append(f"repetitions of seed {seed} disagree: {prints}")

    plain = [rep for rep in reps if not rep.traces]
    traced = [rep for rep in reps if rep.traces]
    first = reps[0].outcome
    report: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "repetitions": len(reps),
        "fingerprint": prints[0],
        "fingerprint_committed": committed_fingerprint(name, seed) if not tiny else None,
        "messages": first.result.messages,
        "messages_per_job": first.result.messages / first.attempted,
        "rates": [rep.outcome.attempted / rep.run_s for rep in plain],
    }
    if trace:
        layers = [layer_metrics(rep, plain) for rep in traced]
        for rep in traced:
            failures.extend(trace_checks(rep))
        report["census"] = census(traced[-1])
        metrics = {
            key: (statistics.median(layer[key][0] for layer in layers), layers[0][key][1])
            for key in layers[0]
        }
    else:
        metrics = end_to_end(plain, setups + [rep.setup for rep in plain])
    attempted = sum(rep.outcome.attempted for rep in reps)
    report.update(
        correct=not failures,
        failures=failures,
        attempted=attempted,
        failed=attempted if failures else 0,
        metrics={key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    )
    return report


def end_to_end(reps: List[Rep], setups: List[float]) -> Dict[str, Tuple[float, str]]:
    outcome = reps[0].outcome
    result = outcome.result
    return {
        "jobs_per_s": (
            statistics.median(rep.outcome.attempted / rep.run_s for rep in reps),
            "jobs/s",
        ),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(rep.rss_kb for rep in reps) / 1024.0, "MiB"),
        "events_per_job": (result.events_processed / outcome.attempted, "events/job"),
        "jobs_served_frac": (result.jobs_served / outcome.attempted, "ratio"),
        "energy_ratio": (result.max_vehicle_energy / result.omega_star, "ratio"),
    }


def merged(rep: Rep) -> Tuple[Dict[str, List[float]], Counter]:
    """Span table and counters summed over the run's processes."""
    spans: Dict[str, List[float]] = {}
    counters: Counter = Counter()
    for trace in rep.traces:
        for name, entry in trace["spans"].items():
            total = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                total[i] += entry[i]
        counters.update(trace["counters"])
    return spans, counters


def layer_metrics(rep: Rep, plain: List[Rep]) -> Dict[str, Tuple[float, str]]:
    spans, counters = merged(rep)
    outcome = rep.outcome
    result = outcome.result

    def calls(*names):
        return sum(spans[n][0] for n in names if n in spans)

    def self_s(*names):
        return sum(spans[n][2] for n in names if n in spans)

    def ratio(a, b):
        return a / b if b else 0.0

    m: Dict[str, Tuple[float, str]] = {}
    # provisioning
    m["omega.sweep_s"] = (
        self_s(
            "omega.max_cube_sums",
            "omega.demand_cube_maxima",
            "omega.omega_c",
            "omega.omega_star_cubes",
        ),
        "s",
    )
    m["omega.sweeps"] = (calls("omega.max_cube_sums"), "count")
    m["fleet.build_s"] = (self_s("provision_fleet", "Fleet.__init__"), "s")
    m["fleet.vehicles"] = (counters["fleet.vehicles"], "count")
    # event core
    m["engine.events"] = (counters["engine.executed"], "count")
    m["engine.scheduled"] = (counters["engine.scheduled"], "count")
    m["engine.batches"] = (counters["engine.batches"], "count")
    m["engine.events_per_batch"] = (
        ratio(counters["engine.popped"], counters["engine.batches"]),
        "events/batch",
    )
    m["engine.self_s"] = (
        self_s("Simulator.run", "Simulator.run_window", "EventQueue.pop_batch"),
        "s",
    )
    # network
    m["network.sent"] = (counters["network.sent"], "count")
    m["network.dropped"] = (counters["network.dropped"], "count")
    m["network.send_many_calls"] = (calls("Network.send_many"), "count")
    m["network.self_s"] = (self_s("Network.send", "Network.send_many"), "s")
    # transport
    m["transport.batch_calls"] = (calls("Transport.send_batch"), "count")
    m["transport.batched_msgs"] = (counters["transport.batched_msgs"], "count")
    m["transport.single_sends"] = (calls("Transport.send"), "count")
    m["transport.lost"] = (counters["transport.lost"], "count")
    m["transport.self_s"] = (self_s("Transport.send", "Transport.send_batch"), "s")
    # failure filtering
    checks = ("FailurePlan.should_drop", "FailurePlan.is_crashed", "FailurePlan.is_partitioned")
    m["failures.checks"] = (calls(*checks), "count")
    m["failures.checks_per_msg"] = (
        ratio(calls(*checks), counters["network.sent"]),
        "checks/msg",
    )
    m["failures.self_s"] = (self_s(*checks), "s")
    # protocol handlers and the census
    for kind in MESSAGE_TYPES:
        short = kind.removesuffix("Message")
        m[f"handler.{short}.n"] = (calls("handler." + kind), "count")
        m[f"handler.{short}.self_s"] = (self_s("handler." + kind), "s")
        m[f"messages.{short}.sent"] = (counters["sent." + kind], "count")
    m["messages.per_job"] = (result.messages / outcome.attempted, "msgs/job")
    # monitoring
    rounds = calls("Fleet.run_heartbeat_round")
    m["heartbeat.rounds"] = (rounds, "count")
    m["heartbeat.self_s"] = (self_s("Fleet.run_heartbeat_round"), "s")
    m["heartbeat.msgs_per_round"] = (ratio(counters["heartbeat.msgs"], rounds), "msgs/round")
    m["gossip.suspicions"] = (getattr(result, "suspicions", 0), "count")
    m["gossip.attestations"] = (getattr(result, "attestations", 0), "count")
    m["gossip.refused"] = (getattr(result, "refused_attestations", 0), "count")
    m["gossip.false_suspicions"] = (getattr(result, "false_suspicions", 0), "count")
    m["detect.samples"] = (result.detections, "count")
    m["detect.rounds_p50"] = (result.detection_p50, "rounds")
    m["detect.rounds_max"] = (outcome.detection_max, "rounds")
    # replacement outcome
    m["replace.searches"] = (result.searches, "count")
    m["replace.ok"] = (result.replacements, "count")
    m["replace.failed"] = (result.failed_replacements, "count")
    m["replace.ok_ratio"] = (ratio(result.replacements, result.searches), "ratio")
    m["jobs.failed_frac"] = (1.0 - result.jobs_served / outcome.attempted, "ratio")
    # arrivals
    m["arrival.route_s"] = (self_s("Fleet.route_positions"), "s")
    m["arrival.deliver_s"] = (self_s("Fleet.deliver_job"), "s")
    # service
    m["service.metrics_s"] = (
        self_s(
            "MetricsRecorder.job_arrived",
            "MetricsRecorder.job_served",
            "MetricsRecorder.maybe_close_window",
            "MetricsRecorder.rollup",
        ),
        "s",
    )
    m["service.checkpoint_s"] = (self_s("capture_checkpoint", "save_checkpoint"), "s")
    m["service.checkpoints"] = (calls("save_checkpoint"), "count")
    m["service.checkpoint_bytes"] = (counters["service.checkpoint_bytes"], "bytes")
    m["service.state_s"] = (
        self_s("LiveStateStore.write_state", "LiveStateStore.log_event", "build_state"),
        "s",
    )
    m["service.state_writes"] = (calls("LiveStateStore.write_state"), "count")
    # sharding, from the measured worker timestamps
    busy = [w["end"] - w["start"] for w in rep.workers]
    overhead = 0.0
    for start, end in rep.pool:
        overhead += (min(w["start"] for w in rep.workers) - start) + (
            end - max(w["end"] for w in rep.workers)
        )
    m["shard.partition_s"] = (spans.get("shard.partition", [0, 0.0, 0.0])[1], "s")
    m["shard.payload_bytes"] = (counters["shard.payload_bytes"], "bytes")
    m["shard.pool_s"] = (sum(end - start for start, end in rep.pool), "s")
    m["shard.worker_busy_max_s"] = (max(busy, default=0.0), "s")
    m["shard.worker_busy_min_s"] = (min(busy, default=0.0), "s")
    m["shard.imbalance"] = (
        ratio(max(busy, default=0.0), statistics.fmean(busy) if busy else 0.0),
        "ratio",
    )
    m["shard.pool_overhead_s"] = (overhead, "s")
    m["shard.merge_s"] = (
        spans.get("merge_parallel_lockstep_results", [0, 0.0, 0.0])[1],
        "s",
    )
    # the trace itself
    m["trace.unattributed_s"] = (sum(t["root_self"] for t in rep.traces), "s")
    base = statistics.median(r.wall for r in plain)
    m["trace.overhead_frac"] = (rep.wall / base - 1.0, "ratio")
    return m


def trace_checks(rep: Rep) -> List[str]:
    """The trace must add up: per-process self times and the census."""
    failures = []
    for trace in rep.traces:
        selves = [entry[2] for entry in trace["spans"].values()]
        if min(selves, default=0.0) < -1e-6:
            failures.append(f"negative span self time {min(selves)}")
        if sum(selves) > trace["wall"] + 1e-6:
            failures.append(f"span self times {sum(selves)} exceed wall {trace['wall']}")
        if trace["root_self"] < -1e-6:
            failures.append(f"negative unattributed time {trace['root_self']}")
    spans, counters = merged(rep)
    sent = sum(v for k, v in counters.items() if k.startswith("sent."))
    messages = rep.outcome.result.messages
    if sent != messages:
        failures.append(f"census sends {sent} != run messages {messages}")
    handled = sum(entry[0] for name, entry in spans.items() if name.startswith("handler."))
    if handled != counters["network.delivered"]:
        failures.append(
            f"census deliveries {handled} != network deliveries {counters['network.delivered']}"
        )
    return failures


def census(rep: Rep) -> Dict[str, Dict[str, int]]:
    """Sends and deliveries per message type (types that occurred)."""
    spans, counters = merged(rep)
    table = {}
    for kind in MESSAGE_TYPES:
        sent = counters["sent." + kind]
        delivered = spans.get("handler." + kind, [0])[0]
        if sent or delivered:
            table[kind.removesuffix("Message")] = {"sent": sent, "delivered": delivered}
    return table


def committed_fingerprint(name: str, seed: int) -> Optional[str]:
    try:
        table = json.loads(FINGERPRINTS.read_text())
    except FileNotFoundError:
        return None
    return table.get(name, {}).get(str(seed))
