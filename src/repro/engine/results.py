"""Kernel-typed result containers with a uniform ``.validate()`` hook.

Each whole-graph kernel on the substrate returns its own result shape —
labels for connected components, ranks for PageRank, coreness for k-core
— mirroring how :class:`~repro.core.result.SSSPResult` carries distances
and :class:`~repro.bfs.kernel.BFSResult` carries a tree; the batched
kernels return one :class:`LanesResult`, a lane per root.  All of them
share one contract: ``counters``/``meta`` bookkeeping, and
``validate(graph)`` returning a
:class:`~repro.graph500.validation.ValidationReport` after checking the
answer against an independent sequential oracle (plus cheap structural
invariants that catch plumbing bugs with a better message than a bitwise
mismatch would).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.timing import Counters

__all__ = ["LabelsResult", "RanksResult", "CorenessResult", "LanesResult"]


def _report(failures: list[str]):
    from repro.graph500.validation import ValidationReport

    return ValidationReport(ok=not failures, failures=failures)


@dataclass
class LabelsResult:
    """Connected-component labels: ``labels[v]`` = min vertex id in v's component."""

    labels: np.ndarray
    counters: Counters = field(default_factory=Counters)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)

    @property
    def num_vertices(self) -> int:
        return int(self.labels.size)

    @property
    def num_components(self) -> int:
        return int(np.unique(self.labels).size)

    def validate(self, graph: CSRGraph):
        """Check structure, then exact agreement with the sequential oracle."""
        from repro.graph.components import connected_components

        failures: list[str] = []
        n = graph.num_vertices
        if self.labels.size != n:
            failures.append(f"labels length {self.labels.size} != n {n}")
            return _report(failures)
        if np.any(self.labels > np.arange(n)):
            failures.append("a label exceeds its vertex id (not a min-label)")
        src = np.repeat(np.arange(n, dtype=np.int64), graph.out_degree)
        if not np.array_equal(self.labels[src], self.labels[graph.adj]):
            failures.append("an edge crosses two components")
        oracle = connected_components(graph)
        if not np.array_equal(self.labels, oracle):
            failures.append("labels differ from the sequential oracle")
        return _report(failures)


@dataclass
class RanksResult:
    """PageRank scores after a fixed number of synchronous power iterations."""

    ranks: np.ndarray
    damping: float
    iterations: int
    counters: Counters = field(default_factory=Counters)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.ranks = np.ascontiguousarray(self.ranks, dtype=np.float64)

    @property
    def num_vertices(self) -> int:
        return int(self.ranks.size)

    def validate(self, graph: CSRGraph):
        """Check invariants, then bitwise agreement with the oracle.

        The oracle replays the same number of iterations with the same
        per-target summation order, so the comparison is exact (rtol=0) —
        any deviation means the distributed path reordered float adds.
        """
        from repro.engine.kernels.pagerank import pagerank_reference

        failures: list[str] = []
        if self.ranks.size != graph.num_vertices:
            failures.append(
                f"ranks length {self.ranks.size} != n {graph.num_vertices}"
            )
            return _report(failures)
        if np.any(~np.isfinite(self.ranks)) or np.any(self.ranks < 0):
            failures.append("ranks contain negatives or non-finite values")
        oracle = pagerank_reference(
            graph, damping=self.damping, iterations=self.iterations
        )
        if not np.array_equal(self.ranks, oracle):
            failures.append(
                "ranks differ bitwise from the sequential power iteration"
            )
        return _report(failures)


@dataclass
class CorenessResult:
    """k-core decomposition: ``coreness[v]`` = largest k with v in the k-core."""

    coreness: np.ndarray
    counters: Counters = field(default_factory=Counters)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.coreness = np.ascontiguousarray(self.coreness, dtype=np.int64)

    @property
    def num_vertices(self) -> int:
        return int(self.coreness.size)

    @property
    def max_coreness(self) -> int:
        return int(self.coreness.max()) if self.coreness.size else 0

    def validate(self, graph: CSRGraph):
        """Check bounds, then exact agreement with sequential peeling."""
        from repro.engine.kernels.kcore import kcore_reference

        failures: list[str] = []
        n = graph.num_vertices
        if self.coreness.size != n:
            failures.append(f"coreness length {self.coreness.size} != n {n}")
            return _report(failures)
        if np.any(self.coreness < 0):
            failures.append("negative coreness")
        if np.any(self.coreness > graph.out_degree):
            failures.append("coreness exceeds vertex degree")
        oracle = kcore_reference(graph)
        if not np.array_equal(self.coreness, oracle):
            failures.append("coreness differs from sequential peeling")
        return _report(failures)


@dataclass
class LanesResult:
    """Answers from a batch of roots, one lane per root.

    ``lanes`` maps each answer field of the single-root type ``answer``
    (``dist`` / ``parent`` of :class:`~repro.core.result.SSSPResult`,
    ``parent`` / ``level`` of :class:`~repro.bfs.kernel.BFSResult`) to a
    lane-major ``(num_lanes, num_vertices)`` array whose row ``i`` answers
    ``roots[i]``.  The field's attribute (``result.dist``) is the
    ``(num_vertices, num_lanes)`` view of that array, so column ``i`` is
    lane ``i``; ``lane(i)`` copies row ``i`` into an ``answer``, adding
    ``lane_counters[name][i]`` to its counters.
    """

    roots: np.ndarray
    answer: type
    lanes: dict[str, np.ndarray]
    lane_counters: dict[str, np.ndarray] = field(default_factory=dict)
    counters: Counters = field(default_factory=Counters)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.roots = np.ascontiguousarray(self.roots, dtype=np.int64)
        self.lanes = {k: np.ascontiguousarray(v) for k, v in self.lanes.items()}
        shapes = {v.shape for v in self.lanes.values()}
        if len(shapes) != 1:
            raise ValueError(f"{'/'.join(self.lanes)} shape mismatch")
        (shape,) = shapes
        if len(shape) != 2 or shape[0] != self.roots.size:
            raise ValueError(
                f"expected ({self.roots.size}, n) lane-major arrays, got {shape}"
            )

    def __getattr__(self, name: str) -> np.ndarray:
        lanes = self.__dict__.get("lanes", {})
        if name not in lanes:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        return lanes[name].T

    @property
    def num_vertices(self) -> int:
        return int(next(iter(self.lanes.values())).shape[1])

    @property
    def num_lanes(self) -> int:
        return int(self.roots.size)

    def lane(self, i: int):
        """The i-th root's answer as a single-root ``answer``."""
        if not 0 <= i < self.num_lanes:
            raise IndexError(f"lane {i} out of range [0, {self.num_lanes})")
        result = self.answer(
            int(self.roots[i]), **{k: v[i].copy() for k, v in self.lanes.items()}
        )
        for name, values in self.lane_counters.items():
            result.counters.add(name, int(values[i]))
        result.meta["lane"] = i
        result.meta["batched"] = True
        return result

    def traversed_edges(self, graph: CSRGraph) -> int:
        """Sum of the per-lane Graph500 TEPS numerators."""
        # The single-root type's own reach test, on every lane at once.
        reached = self.answer.reached.fget(self)  # (n, L)
        return int(((graph.out_degree @ reached) // 2).sum())

    def validate(self, graph: CSRGraph):
        """The single-root checks on every lane; failures are lane-prefixed."""
        return _report([
            f"lane {i}: {msg}"
            for i in range(self.num_lanes)
            for msg in self.lane(i).validate(graph).failures
        ])
