"""Synthetic non-Kronecker graph generators.

These exist for testing and for figures that need graphs with *known*
shortest-path structure (paths, grids) or with the opposite skew profile of
Kronecker graphs (uniform random), so the degree-aware machinery can be
shown to be a no-op where it should be.
"""

from __future__ import annotations

import numpy as np

from repro.graph.types import WEIGHT_DTYPE, EdgeList
from repro.utils.prng import CounterRNG

__all__ = ["path_graph", "star_graph", "grid_graph", "random_graph"]


def _unit_weights(m: int) -> np.ndarray:
    return np.ones(m, dtype=WEIGHT_DTYPE)


def path_graph(n: int, weight: float = 1.0) -> EdgeList:
    """A path 0-1-...-(n-1); SSSP distances are exactly ``weight * hops``."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    src = np.arange(n - 1, dtype=np.int64)
    dst = src + 1
    return EdgeList(src, dst, np.full(n - 1, weight, dtype=WEIGHT_DTYPE), n)


def star_graph(n: int, weight: float = 1.0) -> EdgeList:
    """Vertex 0 connected to all others — the degenerate hub case."""
    if n < 1:
        raise ValueError("star needs at least one vertex")
    dst = np.arange(1, n, dtype=np.int64)
    src = np.zeros(n - 1, dtype=np.int64)
    return EdgeList(src, dst, np.full(n - 1, weight, dtype=WEIGHT_DTYPE), n)


def grid_graph(rows: int, cols: int, seed: int | None = None) -> EdgeList:
    """A 2-D grid; weights are 1 or uniform [0,1) when ``seed`` is given."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    hsrc = ids[:, :-1].ravel()
    hdst = ids[:, 1:].ravel()
    vsrc = ids[:-1, :].ravel()
    vdst = ids[1:, :].ravel()
    src = np.concatenate([hsrc, vsrc])
    dst = np.concatenate([hdst, vdst])
    if seed is None:
        w = _unit_weights(src.size)
    else:
        w = CounterRNG(seed, 7).uniform_pos(src.size)
    return EdgeList(src, dst, w, rows * cols)


def random_graph(n: int, m: int, seed: int = 1) -> EdgeList:
    """``m`` uniform random weighted edges on ``n`` vertices (multigraph)."""
    if n < 1:
        raise ValueError("random graph needs at least one vertex")
    rng = CounterRNG(seed, 11)
    src = rng.below(m, n).astype(np.int64)
    dst = rng.below(m, n).astype(np.int64)
    w = rng.uniform_pos(m)
    return EdgeList(src, dst, w, n)

