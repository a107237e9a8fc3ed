"""SSSP result container and shortest-path-tree derivation.

Every SSSP implementation in this library — baselines included — returns an
:class:`SSSPResult` so the validation layer and the benchmark harness treat
them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.timing import Counters

__all__ = ["SSSPResult", "derive_parents", "derive_parents_lanes", "UNREACHABLE_PARENT"]

UNREACHABLE_PARENT = np.int64(-1)


@dataclass
class SSSPResult:
    """Distances and a shortest-path tree from one source.

    ``dist[v]`` is ``inf`` for unreachable vertices; ``parent[v]`` is ``-1``
    for unreachable vertices and ``source`` for the source itself (the
    Graph500 convention: the root is its own parent).
    """

    source: int
    dist: np.ndarray
    parent: np.ndarray
    counters: Counters = field(default_factory=Counters)
    # Algorithm-specific extras (epochs, phases, delta used, ...).
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.dist = np.ascontiguousarray(self.dist, dtype=np.float64)
        self.parent = np.ascontiguousarray(self.parent, dtype=np.int64)
        if self.dist.shape != self.parent.shape:
            raise ValueError("dist/parent shape mismatch")
        if not (0 <= self.source < self.dist.size):
            raise ValueError(f"source {self.source} out of range")

    @property
    def num_vertices(self) -> int:
        return int(self.dist.size)

    @property
    def reached(self) -> np.ndarray:
        """Boolean mask of vertices with a finite distance."""
        return np.isfinite(self.dist)

    @property
    def num_reached(self) -> int:
        return int(np.count_nonzero(self.reached))

    def traversed_edges(self, graph: CSRGraph) -> int:
        """Graph500 TEPS numerator: undirected input edges with at least one
        endpoint reached (directed CSR edges whose source is reached, / 2).
        """
        reached = self.reached
        return int(graph.out_degree[reached].sum()) // 2

    def validate(self, graph: CSRGraph):
        """Run the Graph500 spec checks; returns a ``ValidationReport``.

        The uniform hook every kernel-typed result implements — same call
        whether the run computed distances, a BFS tree, labels, ranks or
        coreness.
        """
        # Imported here, not at module scope: the graph500 package imports
        # result containers, so a top-level import would be circular.
        from repro.graph500.validation import validate_sssp

        return validate_sssp(graph, self)


def derive_parents(graph: CSRGraph, dist: np.ndarray, source: int) -> np.ndarray:
    """Derive a valid shortest-path tree from converged distances.

    For every reached vertex ``v != source`` there must exist an edge
    ``(u, v)`` with ``dist[u] + w(u, v) == dist[v]`` (float-exact, because
    ``dist[v]`` was produced by that very addition); pick any such ``u``.
    Requires strictly positive weights (guaranteed by the Graph500 spec's
    (0, 1] weight distribution), which makes the tree acyclic: parents
    strictly decrease the distance.

    One vectorized pass over all edges — this is also the derivation an
    extreme-scale code performs locally per rank after the relaxation ends.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (graph.num_vertices,):
        raise ValueError("dist length must equal num_vertices")
    return derive_parents_lanes(graph, dist[None], [source])[0]


def derive_parents_lanes(graph: CSRGraph, dist: np.ndarray, sources) -> np.ndarray:
    """:func:`derive_parents` for every row of a lane-major ``(lanes, n)`` matrix.

    Row ``i`` of the ``(lanes, n)`` result is the tree from ``sources[i]``
    over ``dist[i]``; the rows share one weight check.  A row holds two
    edge-length arrays at a time, and only its tight edges look their
    sources up in ``indptr``.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (len(sources), graph.num_vertices):
        raise ValueError("dist must be (len(sources), num_vertices)")
    if np.any(graph.weight <= 0):
        raise ValueError("derive_parents requires strictly positive edge weights")
    dst = graph.adj
    parent = np.full(dist.shape, UNREACHABLE_PARENT, dtype=np.int64)
    for row, lane, source in zip(parent, dist, sources):
        cand = np.repeat(lane, graph.out_degree)  # lane[src], read in order
        cand += graph.weight
        tight = np.flatnonzero(cand == lane[dst])
        # A finite sum has a finite source: unreached edges drop out.
        tight = tight[np.isfinite(cand[tight])]
        src = np.searchsorted(graph.indptr, tight, side="right") - 1
        # Last write wins; any tight edge is a valid tree edge.
        row[dst[tight]] = src
        row[source] = source
        row[~np.isfinite(lane)] = UNREACHABLE_PARENT
    return parent
