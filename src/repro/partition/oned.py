"""One-dimensional vertex partitions.

A :class:`Partition1D` assigns every vertex to exactly one owner rank.  A run
uses only the contiguous ones (:data:`RUN_PARTITIONS`), kept as range bounds:
rank ``r`` owns the ids ``[starts[r], starts[r + 1])``, so the engines route by
range search and keep owned state at offset ``lo``.  :func:`hashed1d` scatters
ownership; it is kept for partition-quality measurement (F6a), not for runs.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.prng import splitmix64

__all__ = ["RUN_PARTITIONS", "Partition1D", "block1d", "block1d_edge_balanced", "hashed1d"]

#: The partitions a run accepts, by the name ``SSSPConfig(partition=)`` and
#: ``repro.run(partition=)`` take: ``block1d`` and ``block1d_edge_balanced``.
RUN_PARTITIONS = ("block", "edge_balanced")


class Partition1D:
    """A total assignment of ``num_vertices`` vertices to ``num_ranks`` ranks.

    A contiguous partition keeps its ``P + 1`` range boundaries ``starts``
    (rank ``r`` owns ``[starts[r], starts[r + 1])``) and builds the dense
    per-vertex owner array, which keeps ``owner_of`` a single gather, only
    when a query asks for it.  Given an ``owner`` array, ``starts`` is
    derived when the owners never decrease and is ``None`` otherwise.
    ``kind`` records which constructor produced it (used in reports).
    """

    __slots__ = ("kind", "num_ranks", "num_vertices", "starts", "_owner")

    def __init__(self, owner: np.ndarray | None, num_ranks: int, kind: str, starts=None) -> None:
        if num_ranks < 1:
            raise ValueError(f"num_ranks must be >= 1, got {num_ranks}")
        if owner is not None:
            owner = np.array(owner, dtype=np.int32)  # a copy of its own, frozen below
            if owner.ndim != 1:
                raise ValueError("owner array must be one-dimensional")
            if owner.size and (owner.min() < 0 or owner.max() >= num_ranks):
                raise ValueError("owner array references ranks out of range")
            owner.flags.writeable = False
            if np.all(owner[1:] >= owner[:-1]):
                starts = np.searchsorted(owner, np.arange(num_ranks + 1))
        if starts is not None:
            starts = np.ascontiguousarray(starts, dtype=np.int64)
            starts.flags.writeable = False
        self._owner = owner
        self.starts = starts
        self.num_ranks = int(num_ranks)
        self.num_vertices = int(owner.size if owner is not None else starts[-1])
        self.kind = kind

    # -- queries -----------------------------------------------------------

    def owner_of(self, vertices: np.ndarray) -> np.ndarray:
        """Owner rank of each vertex (vectorized gather)."""
        return self.owner_array[np.asarray(vertices, dtype=np.int64)]

    @property
    def owner_array(self) -> np.ndarray:
        """The dense owner array, read-only."""
        if self._owner is None:
            self._owner = np.repeat(np.arange(self.num_ranks, dtype=np.int32), np.diff(self.starts))
            self._owner.flags.writeable = False
        return self._owner

    def vertices_of(self, rank: int) -> np.ndarray:
        """Vertices owned by ``rank``, ascending."""
        if not (0 <= rank < self.num_ranks):
            raise IndexError(f"rank {rank} out of range")
        if self.starts is not None:
            return np.arange(self.starts[rank], self.starts[rank + 1], dtype=np.int64)
        return np.flatnonzero(self._owner == rank)

    def counts(self) -> np.ndarray:
        """Vertices per rank."""
        if self.starts is not None:
            return np.diff(self.starts)
        return np.bincount(self._owner, minlength=self.num_ranks).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Partition1D(kind={self.kind!r}, num_vertices={self.num_vertices}, "
            f"num_ranks={self.num_ranks})"
        )


def block1d(num_vertices: int, num_ranks: int) -> Partition1D:
    """Contiguous blocks of (nearly) equal *vertex* count.

    The first ``num_vertices % num_ranks`` ranks get one extra vertex, as in
    the textbook block distribution.
    """
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    base, extra = divmod(num_vertices, num_ranks)
    sizes = np.full(num_ranks, base, dtype=np.int64)
    sizes[:extra] += 1
    starts = np.concatenate(([0], np.cumsum(sizes)))
    return Partition1D(None, num_ranks, "block1d", starts)


def block1d_edge_balanced(graph: CSRGraph, num_ranks: int) -> Partition1D:
    """Contiguous blocks with boundaries on the degree prefix sum.

    Each rank's owned vertices carry roughly ``num_edges / num_ranks``
    out-edges.  This is the paper-standard degree-aware split: it fixes the
    *average* imbalance of block1d but still cannot split a single hub —
    that is what delegation is for.
    """
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    n = graph.num_vertices
    # Target the cumulative-edge quantiles.  indptr *is* the prefix sum.
    targets = (np.arange(1, num_ranks, dtype=np.float64) / num_ranks) * graph.num_edges
    cuts = np.searchsorted(graph.indptr[1:], targets, side="left")
    bounds = np.concatenate(([0], cuts, [n])).astype(np.int64)
    bounds = np.maximum.accumulate(bounds)  # guard degenerate (empty) blocks
    return Partition1D(None, num_ranks, "block1d_edge_balanced", bounds)


def hashed1d(num_vertices: int, num_ranks: int, seed: int = 0) -> Partition1D:
    """Ownership by vertex hash: ``owner(v) = splitmix64(v ^ seed) % P``.

    Deterministic given the seed, so every rank can compute routing without
    a lookup table exchange.
    """
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    ids = np.arange(num_vertices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        owner = (splitmix64(ids ^ np.uint64(seed)) % np.uint64(num_ranks)).astype(np.int32)
    return Partition1D(owner, num_ranks, kind="hashed1d")
