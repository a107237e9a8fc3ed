"""Push-based PageRank, bit-identical to the sequential power iteration.

Each superstep is one synchronous iteration: every owned vertex pushes
``damping * rank / out_degree`` along its out-edges, and owners rebuild
their ranks as ``(1 - damping) / n`` plus the damped sum of arrivals.
The convergence vote is the global L1 change; a run stops when it drops
below ``tol`` or after ``iterations`` supersteps, whichever comes first.

**Exactness.** Floating-point addition is not associative, so the
distributed sums match the oracle *bitwise* only because both sides add
contributions in the same order.  No pre-aggregation happens anywhere:
one record per edge travels the wire, the substrate preserves
(source-rank ascending, generation order) end to end, and the apply side
groups records per target with a *stable* argsort before one sequential
``np.add.reduceat`` per target.  :func:`pagerank_reference` replays the
identical order sequentially, so ``validate()`` compares with rtol=0.

Dangling vertices (no out-edges) push nothing; their mass leaves the
system, as in the simplest textbook formulation.  The oracle does the
same, so the comparison stays exact.
"""

from __future__ import annotations

import numpy as np

from repro.core.relaxation import frontier_edges
from repro.engine.results import RanksResult
from repro.graph.csr import CSRGraph

__all__ = ["PageRank", "pagerank_reference"]


class PageRank:
    """Synchronous push-based power iteration on the substrate."""

    name = "pagerank"
    vote_op = "sum"
    drain = False
    #: One wire field: the source's rank share along one edge.
    wire_fields = (("value", np.float64),)

    def __init__(
        self, damping: float = 0.85, iterations: int = 20, tol: float = 1e-10
    ) -> None:
        if not (0.0 < damping < 1.0):
            raise ValueError(f"damping must be in (0, 1); got {damping!r}")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.damping = float(damping)
        self.iterations = int(iterations)
        self.tol = float(tol)

    def init_state(self, ctx) -> dict:
        # repro: index-space: ranks[local], frontier=local
        return {
            "ranks": np.full(
                ctx.owned_count, 1.0 / ctx.num_vertices, dtype=np.float64
            ),
            "frontier": np.arange(ctx.owned_count, dtype=np.int64),
            "l1": np.inf,  # no vote yet
        }

    def frontier_from(self, state: dict, ctx) -> np.ndarray:
        return state["frontier"]

    def gen_messages(self, state: dict, ctx, frontier: np.ndarray):
        # repro: wire-path
        # repro: index-space: src=local, dst=global
        # Per-vertex share first, then gather per edge — the oracle divides
        # in exactly the same place, which keeps the values bitwise equal.
        deg = ctx.local_graph.out_degree
        share = np.zeros(ctx.owned_count, dtype=np.float64)
        nz = deg > 0
        share[nz] = state["ranks"][nz] / deg[nz]
        src, dst, _ = frontier_edges(ctx.local_graph, frontier)
        # One record per edge, in (source vertex, adjacency position)
        # order: summation order is part of the answer, so no
        # pre-aggregation before the wire.
        return dst, (share[src],), int(src.size)

    def apply_messages(self, state: dict, ctx, targets, values) -> None:
        # repro: wire-path
        (shares,) = values
        new = np.full(
            ctx.owned_count, (1.0 - self.damping) / ctx.num_vertices, dtype=np.float64
        )
        if targets.size:
            # Stable grouping: within each target, arrivals keep wire order
            # (source rank ascending, then generation order), and reduceat
            # accumulates each group left to right — the same sequential
            # sum the oracle performs.
            order = np.argsort(targets, kind="stable")
            st = targets[order]
            sv = shares[order]
            starts = np.empty(st.size, dtype=bool)
            starts[0] = True
            np.not_equal(st[1:], st[:-1], out=starts[1:])
            idx = np.flatnonzero(starts)
            new[st[idx]] += self.damping * np.add.reduceat(sv, idx)
        state["l1"] = float(np.abs(new - state["ranks"]).sum())
        state["ranks"] = new

    def vote(self, state: dict, ctx) -> float:
        return state["l1"]

    def done(self, reduced: float, steps: int) -> bool:
        return steps >= self.iterations or reduced <= self.tol

    def export_state(self, state: dict, ctx) -> dict:
        return {"ranks": state["ranks"]}

    def finalize(
        self, graph: CSRGraph, exports: list[dict], steps: int
    ) -> RanksResult:
        ranks = np.concatenate([e["ranks"] for e in exports])
        result = RanksResult(
            ranks=ranks, damping=self.damping, iterations=steps
        )
        result.counters.add("iterations", steps)
        result.meta["algorithm"] = "pagerank_push"
        result.meta["damping"] = self.damping
        result.meta["tol"] = self.tol
        return result


def pagerank_reference(
    graph: CSRGraph, *, damping: float = 0.85, iterations: int = 20
) -> np.ndarray:
    """Sequential power iteration in the distributed summation order.

    Runs exactly ``iterations`` synchronous updates.  Contributions are
    laid out in (source vertex, adjacency position) order and grouped per
    target with a stable argsort — the order the substrate delivers — so
    the result matches the distributed kernel bitwise at any rank count.
    """
    n = graph.num_vertices
    deg = graph.out_degree
    r = np.full(n, 1.0 / n, dtype=np.float64)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    # repro: wire-path
    order = np.argsort(graph.adj, kind="stable")
    st = graph.adj[order]
    base = (1.0 - damping) / n
    if st.size == 0:
        return np.full(n, base, dtype=np.float64)
    starts = np.empty(st.size, dtype=bool)
    starts[0] = True
    np.not_equal(st[1:], st[:-1], out=starts[1:])
    idx = np.flatnonzero(starts)
    uniq = st[idx]
    nz = deg > 0
    for _ in range(iterations):
        share = np.zeros(n, dtype=np.float64)
        share[nz] = r[nz] / deg[nz]
        contrib = share[src][order]
        new = np.full(n, base, dtype=np.float64)
        new[uniq] += damping * np.add.reduceat(contrib, idx)
        r = new
    return r
