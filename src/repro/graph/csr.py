"""CSR (compressed sparse row) graph construction.

Construction follows the Graph500 "kernel 1" contract: the raw generator
edge list is turned into a queryable data structure, and the allowed
clean-ups are applied — the graph is symmetrized (the benchmark graph is
undirected), self-loops are dropped, and parallel edges are collapsed
keeping the *minimum* weight (any SSSP distance is unchanged by this, which
is why the spec permits it).

Everything is numpy: one value sort of a packed ``(src, dst, position)``
key + run-length reduction, no Python loops over edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.types import VERTEX_DTYPE, WEIGHT_DTYPE, EdgeList

__all__ = ["CSRGraph", "build_csr"]


@dataclass
class CSRGraph:
    """An immutable weighted graph in CSR form.

    ``indptr`` has length ``num_vertices + 1``; the out-neighbors of vertex
    ``v`` are ``adj[indptr[v]:indptr[v+1]]`` with parallel ``weight``
    entries, sorted by neighbor id.  ``symmetric`` promises that every
    entry ``(u, v, w)`` has a mirror ``(v, u, w)``, parallel entries
    included; only :func:`build_csr` with ``symmetrize=True`` makes it.
    """

    indptr: np.ndarray
    adj: np.ndarray
    weight: np.ndarray
    num_vertices: int
    symmetric: bool = False

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.adj = np.ascontiguousarray(self.adj, dtype=VERTEX_DTYPE)
        self.weight = np.ascontiguousarray(self.weight, dtype=WEIGHT_DTYPE)
        self.num_vertices = int(self.num_vertices)
        if self.indptr.shape != (self.num_vertices + 1,):
            raise ValueError(
                f"indptr length {self.indptr.size} != num_vertices+1 ({self.num_vertices + 1})"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.adj.size:
            raise ValueError("indptr must start at 0 and end at num_edges")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.adj.shape != self.weight.shape:
            raise ValueError("adj and weight length mismatch")

    @property
    def num_edges(self) -> int:
        """Number of directed edges stored (2x the undirected edge count)."""
        return int(self.adj.size)

    @property
    def out_degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.adj[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.weight[self.indptr[v] : self.indptr[v + 1]]

    def degree_of(self, vs: np.ndarray) -> np.ndarray:
        vs = np.asarray(vs, dtype=np.int64)
        return self.indptr[vs + 1] - self.indptr[vs]

    @property
    def nbytes(self) -> int:
        return int(self.indptr.nbytes + self.adj.nbytes + self.weight.nbytes)

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < nbrs.size and nbrs[i] == v)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge (u, v); raises ``KeyError`` when absent."""
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        if i < nbrs.size and nbrs[i] == v:
            return float(self.weight[self.indptr[u] + i])
        raise KeyError(f"edge ({u}, {v}) not present")

    def subgraph_rows(self, rows: np.ndarray) -> "CSRGraph":
        """CSR holding only the out-rows of ``rows`` (other rows empty).

        Vertex ids are unchanged; this is what per-rank local graphs use.
        """
        rows = np.asarray(rows, dtype=np.int64)
        keep = np.zeros(self.num_vertices, dtype=bool)
        keep[rows] = True
        lengths = np.where(keep, self.out_degree, 0)
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        take = _ranges_to_indices(self.indptr[:-1][keep], self.indptr[1:][keep])
        return CSRGraph(indptr, self.adj[take], self.weight[take], self.num_vertices)

    def extract_rows(self, rows: np.ndarray, keep: np.ndarray | None = None) -> "CSRGraph":
        """Renumbered CSR over ``rows``: local row ``i`` is global ``rows[i]``.

        Unlike :meth:`subgraph_rows` (which keeps a dense O(num_vertices)
        indptr), the result's ``indptr`` has ``rows.size + 1`` entries —
        the owned-local layout the distributed engines use.  Column ids
        (``adj``) stay *global*; relaxation targets can live on any rank,
        so only the row space is renumbered.

        ``keep`` (optional boolean mask over ``rows``) empties the rows
        where it is ``False`` — used to drop delegated hub rows without
        copying their adjacency.

        Without ``keep``, a non-empty ``rows`` that is one ascending run
        (a contiguous rank's owned range) copies nothing: ``adj`` and
        ``weight`` are *read-only views* into this graph's arrays, and only
        the rebased ``indptr`` is new.  Any other input is gathered.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if keep is None and rows.size and np.all(np.diff(rows) == 1):
            lo, hi = self.indptr[rows[0]], self.indptr[rows[-1] + 1]
            adj, weight = self.adj[lo:hi], self.weight[lo:hi]
            adj.flags.writeable = weight.flags.writeable = False
            indptr = self.indptr[rows[0] : rows[-1] + 2] - lo
            return CSRGraph(indptr, adj, weight, rows.size)
        starts = self.indptr[rows]
        stops = self.indptr[rows + 1]
        if keep is not None:
            starts = np.where(keep, starts, 0)
            stops = np.where(keep, stops, 0)
        lengths = stops - starts
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        take = _ranges_to_indices(starts, stops)
        return CSRGraph(indptr, self.adj[take], self.weight[take], rows.size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CSRGraph(num_vertices={self.num_vertices}, num_edges={self.num_edges})"


def _ranges_to_indices(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], stops[i])`` without a Python loop.

    Classic cumsum trick: fill an array of +1 steps, then overwrite the
    first position of each range with the jump from the previous range's
    last value to this range's start.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    lengths = stops - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    nonempty = lengths > 0
    ne_starts = starts[nonempty]
    ne_lengths = lengths[nonempty]
    firsts = np.zeros(ne_starts.size, dtype=np.int64)
    np.cumsum(ne_lengths[:-1], out=firsts[1:])
    deltas = np.ones(total, dtype=np.int64)
    deltas[0] = ne_starts[0]
    deltas[firsts[1:]] = ne_starts[1:] - (ne_starts[:-1] + ne_lengths[:-1] - 1)
    return np.cumsum(deltas)


def _key_order(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort of int64 ``keys`` in ``[0, bound)``: ``(order, keys[order])``.

    ``order`` is ``np.argsort(keys, kind="stable")`` — for the pair keys
    ``src * n + dst`` (``bound = n * n``), ``np.lexsort((dst, src))`` —
    computed faster.  With ``b`` the bit width of a position, the key
    ``key << b | position`` is unique and orders the keys exactly so; when
    it fits in 63 bits one value sort of it (no stability needed) yields the
    order in its low ``b`` bits and the sorted keys in its high bits.  A
    wider key (edge pairs at scale >= 20 and edgefactor 16) falls back to a
    stable argsort.  ``keys`` is consumed: its buffer holds ``order``.
    """
    m = keys.size
    b = max(m - 1, 0).bit_length()
    if (bound - 1).bit_length() + b > 63:
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    key = np.arange(m, dtype=np.int64)
    keys <<= b
    key |= keys
    key.sort()
    order = np.bitwise_and(key, (1 << b) - 1, out=keys)
    key >>= b
    return order, key


def unique_first(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_index=True)`` for int64 keys in ``[0, bound)``,
    by one :func:`_key_order` sort; ``keys`` is consumed."""
    order, keys = _key_order(keys, bound)
    return _collapse_runs(keys, order)  # a run's least position is its first


def _collapse_runs(pairs: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep each run of equal sorted keys once, with its minimum of ``w``."""
    first = np.empty(pairs.size, dtype=bool)
    first[:1] = True
    np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return pairs[starts], np.minimum.reduceat(w, starts)


def build_csr(
    edges: EdgeList,
    symmetrize: bool = True,
    drop_self_loops: bool = True,
    dedup: bool = True,
) -> CSRGraph:
    """Build a CSR graph from an edge list (Graph500 kernel 1).

    ``symmetrize`` inserts the reverse of every edge with the same weight
    (the benchmark graph is undirected).  ``dedup`` collapses parallel edges
    to their minimum weight — distance-preserving and spec-sanctioned.

    Edges are ordered by one sort of the int64 pair key ``src * n + dst``
    (:func:`_key_order`), and both endpoints are read back from the sorted
    keys; only the weights are gathered through the permutation.  Dropping
    self-loops before symmetrizing keeps the same edges in the same order
    (a loop's reverse is itself).  Every step past the self-loop filter
    writes into a buffer of its own, so the build's peak memory is a few
    edge-length arrays.
    """
    n = edges.num_vertices
    if (n * n - 1).bit_length() > 63:
        raise ValueError(f"{n} vertices: (src, dst) pair keys overflow int64")
    src, dst, w = edges.src, edges.dst, edges.weight
    if drop_self_loops:
        keep = src != dst
        src, dst, w = src[keep], dst[keep], w[keep]
    m = src.size
    pairs = np.empty(2 * m if symmetrize else m, dtype=np.int64)
    np.multiply(src, n, out=pairs[:m])
    pairs[:m] += dst
    if symmetrize:
        np.multiply(dst, n, out=pairs[m:])
        pairs[m:] += src
        w = np.concatenate([w, w])
    del src, dst
    if pairs.size:
        order, pairs = _key_order(pairs, n * n)
        w = w[order]
        del order
        if dedup:
            pairs, w = _collapse_runs(pairs, w)
    src = pairs // max(n, 1)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    src *= n
    pairs -= src  # now the destinations
    return CSRGraph(indptr, pairs, w, n, symmetric=symmetrize)
