"""Core graph containers.

Everything is structure-of-arrays: an edge list is three parallel numpy
arrays, never a list of tuples.  Vertex ids are ``int64`` and weights are
``float64`` throughout the library (the Graph500 spec draws weights uniformly
from [0, 1); float64 keeps distance comparisons exact enough that validation
needs no tolerance gymnastics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EdgeList", "VERTEX_DTYPE", "WEIGHT_DTYPE"]

VERTEX_DTYPE = np.int64
WEIGHT_DTYPE = np.float64


@dataclass
class EdgeList:
    """A weighted directed edge list ``(src[i], dst[i], weight[i])``.

    The Graph500 generator emits *undirected* edges; symmetrization happens
    at CSR-construction time so the raw generator output can be validated
    against the spec edge count (``edgefactor * 2**scale``).
    """

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    num_vertices: int

    def __post_init__(self) -> None:
        self.src = np.ascontiguousarray(self.src, dtype=VERTEX_DTYPE)
        self.dst = np.ascontiguousarray(self.dst, dtype=VERTEX_DTYPE)
        self.weight = np.ascontiguousarray(self.weight, dtype=WEIGHT_DTYPE)
        if not (self.src.shape == self.dst.shape == self.weight.shape):
            raise ValueError(
                f"parallel arrays disagree: src={self.src.shape} "
                f"dst={self.dst.shape} weight={self.weight.shape}"
            )
        if self.src.ndim != 1:
            raise ValueError("edge arrays must be one-dimensional")
        self.num_vertices = int(self.num_vertices)
        if self.num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        if self.src.size:
            lo = min(self.src.min(), self.dst.min())
            hi = max(self.src.max(), self.dst.max())
            if lo < 0 or hi >= self.num_vertices:
                raise ValueError(
                    f"vertex ids [{lo}, {hi}] out of range for num_vertices={self.num_vertices}"
                )

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EdgeList(num_vertices={self.num_vertices}, num_edges={self.num_edges})"
