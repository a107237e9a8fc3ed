"""Degree-distribution analysis.

Scale-free Kronecker graphs concentrate a large fraction of all edges on a
handful of hub vertices; the paper-class optimizations (hub delegation,
degree-aware partitioning) all key off this.  This module computes the
statistics those components and the evaluation figures need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["DegreeStats", "degree_stats"]


@dataclass(frozen=True)
class DegreeStats:
    """Summary of an out-degree distribution."""

    num_vertices: int
    num_edges: int
    max_degree: int
    mean_degree: float
    median_degree: float
    isolated: int
    gini: float
    top_k_edge_share: float  # share of edges touching the top-k hubs
    top_k: int


def degree_stats(graph: CSRGraph, top_k: int = 16) -> DegreeStats:
    deg = graph.out_degree
    n = graph.num_vertices
    m = graph.num_edges
    if n == 0:
        raise ValueError("empty graph")
    sorted_deg = np.sort(deg)
    # Gini coefficient of the degree distribution (0 = uniform, -> 1 = all
    # edges on one vertex); the canonical scalar measure of skew.
    if m > 0:
        cum = np.cumsum(sorted_deg, dtype=np.float64)
        gini = float(1.0 - 2.0 * np.sum(cum) / (cum[-1] * n) + 1.0 / n)
    else:
        gini = 0.0
    k = min(top_k, n)
    top_share = float(sorted_deg[n - k :].sum() / m) if m > 0 else 0.0
    return DegreeStats(
        num_vertices=n,
        num_edges=m,
        max_degree=int(deg.max(initial=0)),
        mean_degree=float(m / n),
        median_degree=float(np.median(deg)),
        isolated=int(np.count_nonzero(deg == 0)),
        gini=gini,
        top_k_edge_share=top_share,
        top_k=k,
    )
