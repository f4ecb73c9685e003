"""Demand maps and timed job sequences.

The thesis's problem statement (Section 1.3) places one customer and one
depot (with one vehicle) at every lattice vertex.  A sequence of ``k``
unit-energy service requests arrives at positions ``x_1, ..., x_k`` at
strictly increasing times; the demand ``d(x)`` of a position is the number
of requests that arrive there.

:class:`DemandMap` is the *offline* view -- a sparse non-negative function
``d: Z^l -> R_{>=0}`` with finite support (the thesis uses integer unit
demands, but Chapter 2's LP machinery is stated for arbitrary non-negative
demands, so we allow reals).  :class:`JobSequence` is the *online* view --
an ordered list of :class:`Job` arrivals; collapsing it yields a demand
map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.grid.lattice import Box, Point

__all__ = ["DemandMap", "Job", "JobSequence"]


class DemandMap:
    """A sparse, finitely-supported demand function on the lattice.

    Parameters
    ----------
    demands:
        Mapping from lattice points to non-negative demand values.  Zero
        entries are dropped.
    dim:
        Lattice dimension.  Required when ``demands`` is empty; otherwise it
        is inferred and cross-checked.
    """

    def __init__(
        self,
        demands: Mapping[Sequence[int], float] | None = None,
        *,
        dim: int | None = None,
    ) -> None:
        cleaned: Dict[Point, float] = {}
        for raw_point, value in (demands or {}).items():
            point = tuple(int(c) for c in raw_point)
            value = float(value)
            if value < 0:
                raise ValueError(f"negative demand {value} at {point}")
            if not math.isfinite(value):
                raise ValueError(f"non-finite demand {value} at {point}")
            if value == 0:
                continue
            cleaned[point] = cleaned.get(point, 0.0) + value
        inferred_dims = {len(p) for p in cleaned}
        if len(inferred_dims) > 1:
            raise ValueError(f"points of mixed dimensions: {sorted(inferred_dims)}")
        if cleaned:
            inferred = inferred_dims.pop()
            if dim is not None and dim != inferred:
                raise ValueError(f"dim={dim} but points have dimension {inferred}")
            dim = inferred
        if dim is None:
            raise ValueError("dim is required for an empty demand map")
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self._demands = cleaned
        self._dim = dim

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_jobs(jobs: Iterable["Job"], *, dim: int | None = None) -> "DemandMap":
        """Collapse a job sequence into its demand map (1 unit per job)."""
        demands: Dict[Point, float] = {}
        for job in jobs:
            demands[job.position] = demands.get(job.position, 0.0) + job.energy
        return DemandMap(demands, dim=dim) if (demands or dim is not None) else DemandMap(
            demands, dim=2
        )

    @staticmethod
    def uniform_on_box(box: Box, demand: float) -> "DemandMap":
        """Demand ``demand`` at every point of ``box`` (Examples 2.1.1/2.1.2)."""
        return DemandMap({p: demand for p in box.points()}, dim=box.dim)

    @staticmethod
    def point_demand(point: Sequence[int], demand: float) -> "DemandMap":
        """All demand concentrated at a single point (Example 2.1.3)."""
        point = tuple(int(c) for c in point)
        return DemandMap({point: demand}, dim=len(point))

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def dim(self) -> int:
        """Lattice dimension ``l``."""
        return self._dim

    def __len__(self) -> int:
        return len(self._demands)

    def __iter__(self) -> Iterator[Point]:
        return iter(sorted(self._demands))

    def __contains__(self, point: object) -> bool:
        return point in self._demands

    def __getitem__(self, point: Sequence[int]) -> float:
        return self._demands.get(tuple(int(c) for c in point), 0.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DemandMap):
            return NotImplemented
        return self._dim == other._dim and self._demands == other._demands

    def __repr__(self) -> str:
        return (
            f"DemandMap(dim={self._dim}, support={len(self._demands)}, "
            f"total={self.total():g})"
        )

    def items(self) -> Iterator[Tuple[Point, float]]:
        """Iterate ``(point, demand)`` pairs in sorted point order."""
        for point in sorted(self._demands):
            yield point, self._demands[point]

    def as_dict(self) -> Dict[Point, float]:
        """A copy of the underlying sparse dictionary."""
        return dict(self._demands)

    def support(self) -> List[Point]:
        """Sorted list of points with strictly positive demand."""
        return sorted(self._demands)

    def support_array(self) -> "np.ndarray":
        """The support as an ``(n, dim)`` int array, unsorted.

        The batch fleet constructor only needs the support's *set* of
        points (it derives cube indices and uniquifies), so this skips the
        Python tuple sort :meth:`support` pays.
        """
        import numpy as np

        if not self._demands:
            return np.empty((0, self._dim), dtype=np.int64)
        return np.fromiter(
            (c for point in self._demands for c in point),
            dtype=np.int64,
            count=len(self._demands) * self._dim,
        ).reshape(len(self._demands), self._dim)

    def is_empty(self) -> bool:
        """Whether the demand map has empty support."""
        return not self._demands

    # ------------------------------------------------------------------ #
    # aggregate statistics used by Algorithm 1
    # ------------------------------------------------------------------ #

    def total(self) -> float:
        """Total demand ``sum_x d(x)``."""
        return sum(self._demands.values())

    def max_demand(self) -> float:
        """The maximal per-point demand ``D`` (0 for empty maps)."""
        return max(self._demands.values(), default=0.0)

    def average_demand_over(self, box: Box) -> float:
        """Average demand ``D_hat`` over a finite window ``box``.

        Algorithm 1 computes ``D_hat = sum d(x) / n^l`` over the ``n x n``
        window, counting zero-demand vertices in the denominator.
        """
        inside = sum(v for p, v in self._demands.items() if p in box)
        return inside / box.size

    def restricted_to(self, box: Box) -> "DemandMap":
        """The demand map restricted to points inside ``box``."""
        return DemandMap(
            {p: v for p, v in self._demands.items() if p in box}, dim=self._dim
        )

    def total_over(self, points: Iterable[Sequence[int]]) -> float:
        """Total demand over an explicit point collection."""
        return sum(self[p] for p in points)

    def bounding_box(self) -> Box:
        """Smallest box containing the support (raises when empty)."""
        if not self._demands:
            raise ValueError("empty demand map has no bounding box")
        # One vectorized min/max pass; DemandMap keys are canonical int
        # tuples of uniform dimension, so this equals lattice.bounding_box.
        support = self.support_array()
        return Box(
            tuple(support.min(axis=0).tolist()), tuple(support.max(axis=0).tolist())
        )

    def scaled(self, factor: float) -> "DemandMap":
        """A copy with every demand multiplied by ``factor >= 0``."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return DemandMap(
            {p: v * factor for p, v in self._demands.items()}, dim=self._dim
        )

    def merged_with(self, other: "DemandMap") -> "DemandMap":
        """Pointwise sum of two demand maps of the same dimension."""
        if other.dim != self._dim:
            raise ValueError("dimension mismatch")
        merged = dict(self._demands)
        for point, value in other._demands.items():
            merged[point] = merged.get(point, 0.0) + value
        return DemandMap(merged, dim=self._dim)


@dataclass(frozen=True, order=True)
class Job:
    """A single service request.

    The thesis uses unit-energy requests; ``energy`` is kept as a field so
    that workload generators can also express aggregated requests when a
    position receives many unit jobs back to back.
    """

    time: float
    position: Point
    energy: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", tuple(int(c) for c in self.position))
        if self.energy <= 0:
            raise ValueError(f"job energy must be positive, got {self.energy}")
        if not math.isfinite(self.time):
            raise ValueError("job time must be finite")

    @classmethod
    def trusted(cls, time: float, position: Point, energy: float = 1.0) -> "Job":
        """Construct without re-validation.

        ``position`` must already be a tuple of ints and the fields valid
        -- the fast path for callers rebuilding jobs that were valid
        ``Job`` objects before serialization (e.g. sharded workers), where
        the per-job ``__post_init__`` sweep dominates at 10^5 jobs.
        """
        job = object.__new__(cls)
        object.__setattr__(job, "time", time)
        object.__setattr__(job, "position", position)
        object.__setattr__(job, "energy", energy)
        return job


@dataclass
class JobSequence:
    """An ordered sequence of jobs with strictly increasing arrival times."""

    jobs: List[Job] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.jobs = sorted(self.jobs)
        for earlier, later in zip(self.jobs, self.jobs[1:]):
            if later.time <= earlier.time:
                raise ValueError(
                    "job arrival times must be strictly increasing "
                    f"({earlier.time} then {later.time})"
                )

    @staticmethod
    def from_positions(positions: Sequence[Sequence[int]]) -> "JobSequence":
        """Unit jobs arriving at integer times 1, 2, 3, ... at the given positions."""
        return JobSequence(
            [Job(time=float(i + 1), position=tuple(p)) for i, p in enumerate(positions)]
        )

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, index: int) -> Job:
        return self.jobs[index]

    def is_empty(self) -> bool:
        """Whether the sequence contains no jobs."""
        return not self.jobs

    @property
    def dim(self) -> int:
        """Lattice dimension (raises when empty)."""
        if not self.jobs:
            raise ValueError("empty job sequence has no dimension")
        return len(self.jobs[0].position)

    def demand_map(self, *, dim: int | None = None) -> DemandMap:
        """Collapse the sequence into its offline demand map."""
        if dim is None and self.jobs:
            dim = self.dim
        return DemandMap.from_jobs(self.jobs, dim=dim)

    def positions(self) -> List[Point]:
        """Arrival positions in arrival order (with repetitions)."""
        return [job.position for job in self.jobs]

    def total_energy(self) -> float:
        """Total service energy requested by the sequence."""
        return sum(job.energy for job in self.jobs)

    def prefix(self, count: int) -> "JobSequence":
        """The sequence of the first ``count`` jobs."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return JobSequence(self.jobs[:count])
