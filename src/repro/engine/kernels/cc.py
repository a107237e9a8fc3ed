"""Connected components by distributed min-label propagation.

Every vertex starts labeled with its own id; active vertices push their
label along their out-edges and owners fold arrivals in with a
scatter-min.  On the symmetric benchmark graphs the fixed point is the
minimum vertex id per component — exactly what the sequential oracle
(:func:`repro.graph.components.connected_components`) computes, so the
result validates by exact array equality.

The frontier is the set of vertices whose label improved last superstep
(initially: everyone), and the convergence vote is the global frontier
size — when nobody improved, the labels are a fixed point.
"""

from __future__ import annotations

import numpy as np

from repro.core.coalescing import dedup_min
from repro.core.relaxation import frontier_edges, scatter_min
from repro.engine.results import LabelsResult
from repro.graph.csr import CSRGraph

__all__ = ["ConnectedComponents"]


class ConnectedComponents:
    """Min-label propagation on the vertex-kernel substrate."""

    name = "cc"
    vote_op = "sum"
    drain = False
    #: One wire field: the candidate label (the ``vertex`` field is the target).
    wire_fields = (("value", np.int64),)

    def init_state(self, ctx) -> dict:
        # repro: index-space: labels[local], frontier=local
        return {
            "labels": np.arange(ctx.lo, ctx.hi, dtype=np.int64),
            "frontier": np.arange(ctx.owned_count, dtype=np.int64),
        }

    def frontier_from(self, state: dict, ctx) -> np.ndarray:
        return state["frontier"]

    def gen_messages(self, state: dict, ctx, frontier: np.ndarray):
        # repro: index-space: src=local, dst=global
        src, dst, _ = frontier_edges(ctx.local_graph, frontier)
        scanned = int(src.size)
        if dst.size == 0:
            return dst, (np.empty(0, dtype=np.int64),), scanned
        # Coalesce before the wire: one minimum label per target.
        targets, labels = dedup_min(dst, state["labels"][src])
        return targets, (labels,), scanned

    def apply_messages(self, state: dict, ctx, targets, values) -> None:
        (labels,) = values
        # The improved set is next superstep's frontier; empty inbox means
        # this rank has converged locally.
        state["frontier"] = scatter_min(state["labels"], targets, labels)

    def vote(self, state: dict, ctx) -> float:
        return float(state["frontier"].size)

    def done(self, reduced: float, steps: int) -> bool:
        return reduced == 0.0

    def export_state(self, state: dict, ctx) -> dict:
        return {"labels": state["labels"]}

    def finalize(
        self, graph: CSRGraph, exports: list[dict], steps: int
    ) -> LabelsResult:
        labels = np.concatenate([e["labels"] for e in exports])
        result = LabelsResult(labels=labels)
        result.counters.add("rounds", steps)
        result.meta["algorithm"] = "label_propagation"
        result.meta["num_components"] = result.num_components
        return result
