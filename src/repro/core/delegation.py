"""Hub delegation: splitting high-degree vertices' adjacency across ranks.

A scale-free hub with degree d >> P is a double problem for a 1-D
partition: its owner does O(d) relaxation work alone (load imbalance), and
emits O(d) remote updates in one phase (traffic burst).  Delegation fixes
both: each rank holds a 1/P slice of every hub's adjacency list; when a
hub's distance settles, its owner broadcasts one ``(hub, dist)`` record to
all ranks, and every rank relaxes its own slice locally.  O(d) work becomes
O(d / P) per rank, and O(d) messages become O(P).

:class:`DelegateTable` is the per-rank data structure: a small CSR indexed
by *hub slot* (dense id in the sorted hub list) holding that rank's slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph, _ranges_to_indices

__all__ = ["DelegateTable", "auto_hub_threshold", "select_hubs"]


def auto_hub_threshold(graph: CSRGraph, num_ranks: int) -> int:
    """Default delegation threshold.

    Delegating costs a P-message broadcast, so it only pays for vertices
    whose degree comfortably exceeds both the rank count and the typical
    degree.  ``max(2 * P, 8 * mean_degree)`` keeps the hub set small (the
    heavy tail only) while catching everything that matters.
    """
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    mean_degree = graph.num_edges / max(graph.num_vertices, 1)
    return int(max(2 * num_ranks, int(np.ceil(8 * mean_degree)), 1))


def select_hubs(graph: CSRGraph, threshold: int) -> np.ndarray:
    """Sorted ids of vertices with out-degree >= threshold."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    return np.flatnonzero(graph.out_degree >= threshold).astype(np.int64)


@dataclass
class DelegateTable:
    """One rank's slices of all hub adjacency lists.

    ``hubs`` is the sorted global hub id list (identical on every rank);
    ``indptr``/``adj``/``weight`` form a CSR over hub *slots*.  Slices are
    interleaved (hub's edge ``j`` goes to rank ``j % P``) so every rank gets
    an even share of every hub, not just of the total.
    """

    hubs: np.ndarray
    indptr: np.ndarray
    adj: np.ndarray
    weight: np.ndarray

    @classmethod
    def build(cls, graph: CSRGraph, hubs: np.ndarray, rank: int, num_ranks: int) -> "DelegateTable":
        """Extract rank ``rank``'s interleaved slice of each hub's row."""
        hubs = np.asarray(hubs, dtype=np.int64)
        if hubs.size and np.any(np.diff(hubs) <= 0):
            raise ValueError("hubs must be sorted and unique")
        if not (0 <= rank < num_ranks):
            raise ValueError(f"rank {rank} out of range [0, {num_ranks})")
        # This rank's interleaved positions of hub ``h``'s row are
        # ``indptr[h] + rank, indptr[h] + rank + P, ...`` — materialized for
        # all hubs at once with the repeat/cumsum trick (no Python loop).
        starts = graph.indptr[hubs] + rank
        stops = graph.indptr[hubs + 1]
        lengths = np.maximum(0, -(-(stops - starts) // num_ranks))
        indptr = np.zeros(hubs.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        total = int(indptr[-1])
        intra = np.arange(total, dtype=np.int64) - np.repeat(indptr[:-1], lengths)
        idx = np.repeat(starts, lengths) + num_ranks * intra
        return cls(
            hubs=hubs,
            indptr=indptr,
            adj=graph.adj[idx],
            weight=graph.weight[idx],
        )

    @property
    def num_hubs(self) -> int:
        return int(self.hubs.size)

    @property
    def num_edges(self) -> int:
        return int(self.adj.size)

    def slots_of(self, vertices: np.ndarray) -> np.ndarray:
        """Hub-slot index of each vertex; raises if any is not a hub."""
        vertices = np.asarray(vertices, dtype=np.int64)
        slots = np.searchsorted(self.hubs, vertices)
        if np.any(slots >= self.hubs.size) or np.any(self.hubs[slots] != vertices):
            raise KeyError("vertex is not a delegated hub")
        return slots

    def is_hub(self, vertices: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``vertices`` are delegated hubs."""
        vertices = np.asarray(vertices, dtype=np.int64)
        slots = np.searchsorted(self.hubs, vertices)
        ok = slots < self.hubs.size
        out = np.zeros(vertices.shape, dtype=bool)
        out[ok] = self.hubs[slots[ok]] == vertices[ok]
        return out

    def expand(
        self,
        hub_vertices: np.ndarray,
        hub_dists: np.ndarray,
        weight_max: float | None = None,
        weight_min: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Relaxation candidates from this rank's slices of the given hubs.

        Mirrors :func:`repro.core.relaxation.expand` but sources distances
        from the announcement payload instead of a local array.  Returns
        ``(targets, candidate_dists, edges_scanned)``.
        """
        slots = self.slots_of(hub_vertices)
        starts, stops = self.indptr[slots], self.indptr[slots + 1]
        deg = stops - starts
        total = int(deg.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=np.float64), 0
        idx = _ranges_to_indices(starts, stops)
        w = self.weight[idx]
        keep = np.ones(total, dtype=bool)
        if weight_max is not None:
            keep &= w < weight_max
        if weight_min is not None:
            keep &= w >= weight_min
        # Filter on the weights first; only the kept edges' targets and
        # hub distances are gathered.
        kept = np.flatnonzero(keep)
        src_dist = np.repeat(np.asarray(hub_dists, dtype=np.float64), deg)[kept]
        return self.adj[idx[kept]], src_dist + w[kept], total
