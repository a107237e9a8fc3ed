"""Vectorized edge-relaxation kernels.

All SSSP variants in this library share two primitives:

* :func:`expand` — gather the out-edges of a frontier of vertices and form
  candidate distances (``dist[u] + w``), optionally restricted to light or
  heavy edges (the ∆-stepping split);
* :func:`scatter_min` — fold candidate distances into the tentative-distance
  array with one unbuffered ``np.minimum.at`` scatter and report which
  vertices improved.

Keeping them in one place means the per-edge operation counts charged to the
cost model are consistent across algorithms.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["expand", "scatter_min", "frontier_edges"]


def frontier_edges(graph: CSRGraph, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (sources-repeated, targets, weights) of the frontier's out-edges."""
    frontier = np.asarray(frontier, dtype=np.int64)
    deg = graph.degree_of(frontier)
    src = np.repeat(frontier, deg)
    total = int(deg.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.float64)
    # Concatenate each frontier vertex's CSR slice with the cumsum trick.
    starts = graph.indptr[frontier]
    firsts = np.zeros(frontier.size, dtype=np.int64)
    np.cumsum(deg[:-1], out=firsts[1:])
    deltas = np.ones(total, dtype=np.int64)
    nonempty = deg > 0
    ne_firsts = firsts[nonempty]
    ne_starts = starts[nonempty]
    ne_deg = deg[nonempty]
    deltas[0] = ne_starts[0]
    deltas[ne_firsts[1:]] = ne_starts[1:] - (ne_starts[:-1] + ne_deg[:-1] - 1)
    idx = np.cumsum(deltas)
    return src, graph.adj[idx], graph.weight[idx]


def expand(
    graph: CSRGraph,
    frontier: np.ndarray,
    dist: np.ndarray,
    weight_max: float | None = None,
    weight_min: float | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Form relaxation candidates from a frontier.

    Returns ``(targets, candidate_dists, edges_scanned)``.  ``weight_max``
    keeps only edges with ``w < weight_max`` (light edges); ``weight_min``
    keeps only ``w >= weight_min`` (heavy edges).  ``edges_scanned`` counts
    every edge touched, including ones filtered out — that is the work the
    machine actually performs.
    """
    src, dst, w = frontier_edges(graph, frontier)
    scanned = int(src.size)
    if weight_max is not None:
        keep = w < weight_max
        src, dst, w = src[keep], dst[keep], w[keep]
    if weight_min is not None:
        keep = w >= weight_min
        src, dst, w = src[keep], dst[keep], w[keep]
    return dst, dist[src] + w, scanned


def scatter_min(dist: np.ndarray, targets: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Fold candidates into ``dist`` in place; return improved vertex ids.

    The returned ids are unique and ascending.  One path for every batch
    size: read the targets' values, fold with the unbuffered
    ``np.minimum.at`` scatter (the CPE relaxation kernel of the real
    code; an indexed inner loop since numpy 1.25, a few ns per
    candidate), read them again — the winners are the targets whose value
    dropped.  ``min`` over float64 is exact, associative and commutative,
    so the result does not depend on candidate order.
    """
    if targets.size == 0:
        return np.empty(0, dtype=np.int64)
    # One cast up front: every fancy-index below wants intp, and numpy
    # would otherwise convert a narrower index array three times.
    targets = np.asarray(targets, dtype=np.intp)
    before = dist[targets]
    np.minimum.at(dist, targets, candidates)
    won = targets[dist[targets] < before]
    if won.size == 0:
        return np.empty(0, dtype=np.int64)
    # ``won`` repeats a target once per candidate it received.  Dedup by
    # whichever is cheaper: sorting the winners (n log n in their count)
    # or marking them in a dist-sized mask (linear in dist).
    if won.size * int(won.size).bit_length() < dist.size:
        won.sort()
        first = np.empty(won.size, dtype=bool)
        first[0] = True
        np.not_equal(won[1:], won[:-1], out=first[1:])
        return won[first].astype(np.int64, copy=False)
    mark = np.zeros(dist.size, dtype=bool)
    mark[won] = True
    return np.flatnonzero(mark)
