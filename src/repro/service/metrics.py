"""Windowed metrics for long-lived service runs.

A batch run keeps one boolean per job; a million-job service cannot.  The
:class:`MetricsRecorder` folds every served job into (a) per-window
records of bounded size and (b) a whole-run rollup read straight off the
fleet's cumulative counters -- so the rollup is *equal to the batch
driver's totals by construction*, not by re-aggregation.

Service latencies (time from arrival to successful service: ``0`` for an
immediate delivery, the retry delay for a recovered job) are summarized by
a :class:`LatencyDigest`: a deterministic fixed-capacity centroid sketch
(insert sorted; when full, merge the closest adjacent pair).  With the
harness's two-spike latency distribution the digest is exact; in general
it is a bounded-memory approximation whose quantiles are weighted
nearest-rank over the centroids.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

__all__ = ["LatencyDigest", "MetricsRecorder"]

#: Fleet counters whose per-window *deltas* each window record carries.
_DELTA_COUNTERS = (
    "jobs_delivered",
    "jobs_unserved",
    "replacements",
    "searches_started",
    "failed_replacements",
    "heartbeat_rounds",
    "escalations_started",
    "escalated_replacements",
    "adoptions",
    "hand_backs",
)


class LatencyDigest:
    """Deterministic fixed-capacity quantile sketch over non-negative values.

    Centroids are ``[value, weight]`` pairs kept sorted by value; inserting
    past ``capacity`` merges the two adjacent centroids with the smallest
    value gap (ties: the lowest index), weight-averaging their values.  The
    merge rule is a pure function of the insertion sequence, so two runs
    that serve the same jobs produce byte-identical digests.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 2:
            raise ValueError("digest capacity must be at least 2")
        self.capacity = capacity
        self._values: List[float] = []
        self._weights: List[float] = []
        # Exact extremes: centroid merging weight-averages values, so the
        # first/last centroid drift inward once the sketch saturates --
        # p0/p100 must come from these, not from the centroid endpoints.
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    @property
    def count(self) -> float:
        """Total weight added so far."""
        return sum(self._weights)

    def add(self, value: float, weight: float = 1.0) -> None:
        """Fold one observation into the sketch."""
        value = float(value)
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        position = bisect.bisect_left(self._values, value)
        if position < len(self._values) and self._values[position] == value:
            self._weights[position] += weight
            return
        self._values.insert(position, value)
        self._weights.insert(position, weight)
        if len(self._values) > self.capacity:
            self._merge_closest()

    def _merge_closest(self) -> None:
        best = min(
            range(len(self._values) - 1),
            key=lambda i: (self._values[i + 1] - self._values[i], i),
        )
        weight = self._weights[best] + self._weights[best + 1]
        merged = (
            self._values[best] * self._weights[best]
            + self._values[best + 1] * self._weights[best + 1]
        ) / weight
        self._values[best : best + 2] = [merged]
        self._weights[best : best + 2] = [weight]

    def quantile(self, q: float) -> float:
        """Weighted nearest-rank quantile (``0 <= q <= 1``); 0.0 when empty."""
        if not self._values:
            return 0.0
        if q <= 0:
            return self._min  # exact minimum, immune to centroid merging
        if q >= 1:
            return self._max  # exact maximum, immune to centroid merging
        target = q * self.count
        cumulative = 0.0
        for value, weight in zip(self._values, self._weights):
            cumulative += weight
            if cumulative >= target - 1e-12:
                return value
        return self._values[-1]

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "capacity": self.capacity,
            "centroids": [[v, w] for v, w in zip(self._values, self._weights)],
        }
        if self._values:
            payload["min"] = self._min
            payload["max"] = self._max
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "LatencyDigest":
        digest = cls(capacity=payload["capacity"])
        for value, weight in payload["centroids"]:
            digest._values.append(float(value))
            digest._weights.append(float(weight))
        if digest._values:
            # Pre-extremes snapshots carry no min/max; the centroid
            # endpoints are the best (and historical) reconstruction.
            digest._min = float(payload.get("min", digest._values[0]))
            digest._max = float(payload.get("max", digest._values[-1]))
        return digest


class MetricsRecorder:
    """Accumulates per-window records and the whole-run rollup.

    The recorder never schedules events and never touches the fleet beyond
    *reading* its counters at window boundaries, so enabling metrics cannot
    perturb the event stream: a run with metrics on is byte-identical to
    one with metrics off.

    Windows close at the driver's clean control points (between arrivals)
    once ``window_jobs`` arrivals have been dispatched since the last
    close; all outcomes of those arrivals are final by then (recovery
    retries fire well inside the inter-arrival gap).  ``emit`` receives
    each closed window record; the recorder itself retains only the last
    ``keep`` records, keeping memory constant over an unbounded run.
    """

    def __init__(
        self,
        fleet,
        *,
        window_jobs: int = 1000,
        omega_star: float = 0.0,
        digest_capacity: int = 64,
        keep: int = 8,
        emit: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        self.fleet = fleet
        self.window_jobs = window_jobs
        self.omega_star = omega_star
        self.emit = emit
        self.window_index = 0
        self.jobs_arrived = 0
        self.jobs_served = 0
        self.recent: Deque[Dict[str, Any]] = deque(maxlen=keep)
        self.run_digest = LatencyDigest(digest_capacity)
        self._digest_capacity = digest_capacity
        self._window_arrivals = 0
        self._window_served = 0
        self._window_digest = LatencyDigest(digest_capacity)
        self._window_start_time = fleet.simulator.now
        self._baseline = self._counters()

    # ------------------------------------------------------------------ #
    # per-job hooks (called by the streaming driver)
    # ------------------------------------------------------------------ #

    def job_arrived(self, index: int, job) -> None:
        self.jobs_arrived += 1
        self._window_arrivals += 1

    def job_served(self, index: int, job, latency: float) -> None:
        self.jobs_served += 1
        self._window_served += 1
        self._window_digest.add(latency)
        self.run_digest.add(latency)

    # ------------------------------------------------------------------ #
    # window boundaries (called at clean control points)
    # ------------------------------------------------------------------ #

    def maybe_close_window(self, *, force: bool = False) -> Optional[Dict[str, Any]]:
        """Close the current window if it is full (or ``force`` and non-empty)."""
        if self._window_arrivals < self.window_jobs and not (
            force and self._window_arrivals > 0
        ):
            return None
        return self._close_window()

    def _close_window(self) -> Dict[str, Any]:
        fleet = self.fleet
        now = fleet.simulator.now
        counters = self._counters()
        record: Dict[str, Any] = {
            "type": "metrics_window",
            "window": self.window_index,
            "start_time": self._window_start_time,
            "end_time": now,
            "jobs": self._window_arrivals,
            "served": self._window_served,
            "omega_star": self.omega_star,
            "max_vehicle_energy": fleet.max_energy_used(),
            "active_vehicles": fleet.active_vehicle_count(),
            "latency_p50": self._window_digest.quantile(0.50),
            "latency_p90": self._window_digest.quantile(0.90),
            "latency_p99": self._window_digest.quantile(0.99),
        }
        for name in _DELTA_COUNTERS:
            record[name] = counters[name] - self._baseline[name]
        record["messages"] = counters["messages"] - self._baseline["messages"]
        record["messages_dropped"] = (
            counters["messages_dropped"] - self._baseline["messages_dropped"]
        )
        record["travel"] = counters["travel"] - self._baseline["travel"]
        record["service"] = counters["service"] - self._baseline["service"]
        self.window_index += 1
        self.recent.append(record)
        self._window_arrivals = 0
        self._window_served = 0
        self._window_digest = LatencyDigest(self._digest_capacity)
        self._window_start_time = now
        self._baseline = counters
        if self.emit is not None:
            self.emit(record)
        return record

    def _counters(self) -> Dict[str, float]:
        fleet = self.fleet
        stats = fleet.stats
        counters: Dict[str, float] = {
            name: getattr(stats, name) for name in _DELTA_COUNTERS
        }
        counters["messages"] = fleet.messages_sent()
        counters["messages_dropped"] = fleet.messages_dropped()
        counters["travel"] = fleet.total_travel()
        counters["service"] = fleet.total_service()
        return counters

    # ------------------------------------------------------------------ #
    # whole-run rollup
    # ------------------------------------------------------------------ #

    def rollup(self) -> Dict[str, Any]:
        """Whole-run totals, read off the fleet's *cumulative* counters.

        Because the values come from the same counters the batch driver's
        :class:`~repro.core.online.OnlineResult` reads, the rollup equals
        the batch totals identically -- no per-window re-summation (and
        hence no float re-association) is involved.
        """
        counters = self._counters()
        rollup: Dict[str, Any] = {
            "jobs_arrived": self.jobs_arrived,
            "jobs_served": self.jobs_served,
            "windows": self.window_index,
            "max_vehicle_energy": self.fleet.max_energy_used(),
            "latency_p50": self.run_digest.quantile(0.50),
            "latency_p90": self.run_digest.quantile(0.90),
            "latency_p99": self.run_digest.quantile(0.99),
        }
        rollup.update(counters)
        return rollup

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #

    def state_to_json(self) -> Dict[str, Any]:
        return {
            key: encode(getattr(self, attribute))
            for key, attribute, encode, _ in _STATE_FIELDS
        }

    def restore_state(self, payload: Dict[str, Any]) -> None:
        for key, attribute, _, decode in _STATE_FIELDS:
            setattr(self, attribute, decode(payload[key]))


def _as_is(value: Any) -> Any:
    return value


#: The recorder state a checkpoint carries: ``(snapshot key, attribute,
#: encode, decode)``, read by :meth:`MetricsRecorder.state_to_json` and
#: written back by :meth:`MetricsRecorder.restore_state`.
_STATE_FIELDS = (
    ("window_index", "window_index", _as_is, _as_is),
    ("jobs_arrived", "jobs_arrived", _as_is, _as_is),
    ("jobs_served", "jobs_served", _as_is, _as_is),
    ("window_arrivals", "_window_arrivals", _as_is, _as_is),
    ("window_served", "_window_served", _as_is, _as_is),
    ("window_start_time", "_window_start_time", _as_is, _as_is),
    ("baseline", "_baseline", _as_is, dict),
    ("window_digest", "_window_digest", LatencyDigest.to_json, LatencyDigest.from_json),
    ("run_digest", "run_digest", LatencyDigest.to_json, LatencyDigest.from_json),
)
