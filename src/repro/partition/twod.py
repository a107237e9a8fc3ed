"""Two-dimensional (checkerboard) decomposition of the adjacency matrix.

In a 2-D decomposition over an ``R x C`` process grid, edge ``(u, v)`` is
owned by the rank at grid position ``(row_of(u), col_of(v))``.  Frontier
expansion then needs communication only within grid rows and columns —
O(sqrt(P)) partners instead of O(P) — which is why record-scale Graph500
codes use it.  Here the 2-D partition serves the partition-quality
analysis (edge balance) of the load-balance experiment; the executable 2-D
SSSP engine (:mod:`repro.core.twod_engine`, ``repro.run(engine="dist2d")``)
builds its grid from a contiguous 1-D vertex partition instead, so a rank's
grid row and column follow vertex ownership.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.types import EdgeList

__all__ = ["TwoDPartition", "make_grid"]


def make_grid(num_ranks: int) -> tuple[int, int]:
    """Factor ``num_ranks`` into the most-square ``(rows, cols)`` grid."""
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    r = int(np.sqrt(num_ranks))
    while num_ranks % r:
        r -= 1
    return r, num_ranks // r


@dataclass(frozen=True)
class TwoDPartition:
    """Checkerboard partition of an ``n x n`` adjacency matrix."""

    num_vertices: int
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")
        if self.num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")

    @property
    def num_ranks(self) -> int:
        return self.rows * self.cols

    def _block_of(self, vertices: np.ndarray, nblocks: int) -> np.ndarray:
        """Block index of each vertex under a balanced contiguous split."""
        v = np.asarray(vertices, dtype=np.int64)
        n = max(self.num_vertices, 1)
        base = n // nblocks
        extra = n % nblocks
        # First `extra` blocks have size base+1.
        pivot = (base + 1) * extra
        small = v < pivot
        out = np.empty(v.shape, dtype=np.int64)
        if base + 1 > 0:
            out[small] = v[small] // (base + 1)
        if base > 0:
            out[~small] = extra + (v[~small] - pivot) // base
        else:
            out[~small] = extra
        return out

    def row_of(self, vertices: np.ndarray) -> np.ndarray:
        return self._block_of(vertices, self.rows)

    def col_of(self, vertices: np.ndarray) -> np.ndarray:
        return self._block_of(vertices, self.cols)

    def rank_of_edges(self, edges: EdgeList) -> np.ndarray:
        """Owner rank of each edge: ``row_of(src) * cols + col_of(dst)``."""
        if edges.num_vertices != self.num_vertices:
            raise ValueError("edge list vertex count does not match partition")
        return self.row_of(edges.src) * self.cols + self.col_of(edges.dst)

    def edge_counts(self, edges: EdgeList) -> np.ndarray:
        """Edges per rank (the 2-D analogue of edge balance)."""
        return np.bincount(self.rank_of_edges(edges), minlength=self.num_ranks).astype(np.int64)
