"""k-core decomposition by distributed batch peeling.

The peeling invariant: at level ``k``, repeatedly remove every live
vertex whose remaining degree is at most ``k`` (its coreness is ``k``),
sending one degree-decrement record per out-edge of the removed set.
Removals cascade — a decrement can drag a neighbor under the threshold —
so a superstep *drains*: generate → exchange → apply repeats until an
any-allreduce says no rank has a peelable vertex left.  The outer vote
is the minimum live degree, which becomes the next level (levels with no
vertices are skipped wholesale, exactly like empty buckets in
∆-stepping).

All arithmetic is integer (counts via ``np.unique``), so the result is
order-free and exact: ``validate()`` compares against sequential peeling
(:func:`kcore_reference`) by array equality.  The removal set at each
level is order-independent (removing vertices only lowers degrees), so
batch and sequential peeling agree by construction.
"""

from __future__ import annotations

import numpy as np

from repro.core.relaxation import frontier_edges
from repro.engine.results import CorenessResult
from repro.graph.csr import CSRGraph

__all__ = ["KCore", "kcore_reference"]


class KCore:
    """Batch peeling with degree-decrement messages on the substrate."""

    name = "kcore"
    vote_op = "min"
    drain = True
    #: One wire field: how many peeled neighbours decrement the target.
    wire_fields = (("value", np.int64),)

    def init_state(self, ctx) -> dict:
        # repro: index-space: degree[local], alive[local], coreness[local]
        return {
            "degree": ctx.local_graph.out_degree.astype(np.int64),
            "alive": np.ones(ctx.owned_count, dtype=bool),
            "coreness": np.zeros(ctx.owned_count, dtype=np.int64),
            "k": 0,
        }

    def begin_step(self, state: dict, ctx, reduced: float) -> None:
        # The allreduced minimum live degree is the next peeling level; it
        # never goes backwards (a decrement can push a live degree below
        # the current level mid-drain, but that vertex peels *at* the
        # current level, not below it).
        state["k"] = max(state["k"], int(reduced))

    def frontier_from(self, state: dict, ctx) -> np.ndarray:
        return np.flatnonzero(state["alive"] & (state["degree"] <= state["k"]))

    def gen_messages(self, state: dict, ctx, frontier: np.ndarray):
        # repro: index-space: frontier=local, dst=global
        state["coreness"][frontier] = state["k"]
        state["alive"][frontier] = False
        src, dst, _ = frontier_edges(ctx.local_graph, frontier)
        scanned = int(src.size)
        if dst.size == 0:
            return dst, (np.empty(0, dtype=np.int64),), scanned
        # Integer decrement counts aggregate exactly in any order.
        targets, counts = np.unique(dst, return_counts=True)
        return targets, (counts.astype(np.int64),), scanned

    def apply_messages(self, state: dict, ctx, targets, values) -> None:
        (counts,) = values
        if targets.size:
            # Decrements addressed to already-peeled vertices land on dead
            # state and are ignored by the live-degree filters.
            np.subtract.at(state["degree"], targets, counts)

    def vote(self, state: dict, ctx) -> float:
        live = state["degree"][state["alive"]]
        return float(live.min()) if live.size else np.inf  # no live vertices

    def done(self, reduced: float, steps: int) -> bool:
        return reduced == np.inf

    def export_state(self, state: dict, ctx) -> dict:
        return {"coreness": state["coreness"]}

    def finalize(
        self, graph: CSRGraph, exports: list[dict], steps: int
    ) -> CorenessResult:
        coreness = np.concatenate([e["coreness"] for e in exports])
        result = CorenessResult(coreness=coreness)
        result.counters.add("levels", steps)
        result.meta["algorithm"] = "batch_peeling"
        result.meta["max_coreness"] = result.max_coreness
        return result


def kcore_reference(graph: CSRGraph) -> np.ndarray:
    """Sequential batch peeling, the distributed kernel's exact oracle."""
    n = graph.num_vertices
    deg = graph.out_degree.astype(np.int64)
    alive = np.ones(n, dtype=bool)
    core = np.zeros(n, dtype=np.int64)
    k = 0
    while alive.any():
        k = max(k, int(deg[alive].min()))
        while True:
            frontier = np.flatnonzero(alive & (deg <= k))
            if frontier.size == 0:
                break
            core[frontier] = k
            alive[frontier] = False
            _, dst, _ = frontier_edges(graph, frontier)
            if dst.size:
                np.subtract.at(deg, dst, 1)
    return core
