"""Batched multi-root ∆-stepping: one sweep, a distance matrix.

State is a ``(owned, num_roots)`` float64 matrix plus an ``improved``
mask; every superstep is one shared bucket epoch whose threshold comes
from the global min-vote (the same reduction the single-root 1-D engine
terminates on).  Inside an epoch the drain loop relaxes only *light*
edges (``w < ∆``) of in-bucket ``(row, lane)`` pairs, to quiescence;
the pairs it relaxed are remembered, and the epoch's closing pass
(``gen_settled``) relaxes their *heavy* edges once, with final
distances — a heavy candidate cannot land back in the bucket, so one
pass suffices.  Each rank keeps its out-edges with every row's light
edges first (one CSR plus a ``light_end`` pointer per row).

Wire records are ``(vertex, lane, dist)`` triples, min-folded per
``(vertex, lane)`` on the sender and left sorted by vertex, so one
owner-routed exchange carries every lane's relaxations together and the
router cuts the batch without permuting it.

Per lane the fixed point is the true shortest distance, and min over
float64 path sums is exact and order-free — so each distance column is
bit-identical to a single-root run, and deriving the tree with the same
:func:`~repro.core.result.derive_parents` pass makes the parent columns
bit-identical too.
"""

from __future__ import annotations

import numpy as np

from repro.core.coalescing import dedup_min
from repro.core.relaxation import scatter_min
from repro.core.result import SSSPResult, derive_parents_lanes
from repro.engine.results import LanesResult
from repro.engine.validation import check_delta, check_roots
from repro.graph.csr import CSRGraph

__all__ = ["SSSPBatch"]


#: Rows of the per-lane edges-scanned telemetry.
_LIGHT, _HEAVY = 0, 1


class SSSPBatch:
    """Batched multi-root ∆-stepping on the vertex-kernel substrate."""

    name = "sssp_batch"
    vote_op = "min"
    drain = True

    def __init__(self, roots, delta: float) -> None:
        self.roots = check_roots(self.name, roots)
        self.num_lanes = int(self.roots.size)
        self.delta = check_delta(delta, adaptive=False)
        #: Multi-field wire record: the destination lane, in the narrowest
        #: unsigned type that holds it, and the candidate distance.  The
        #: implicit ``vertex`` field is the edge target.
        self.wire_fields = (
            ("lane", np.min_scalar_type(self.num_lanes - 1)),
            ("dist", np.float64),
        )

    def init_state(self, ctx) -> dict:
        lanes, locs = ctx.owned_roots(self.name, self.roots)
        owned = ctx.owned_count
        L = self.num_lanes
        # repro: index-space: dist[local,lane]=local, improved[local,lane]=local
        dist = np.full((owned, L), np.inf, dtype=np.float64)
        improved = np.zeros((owned, L), dtype=bool)
        dist[locs, lanes] = 0.0
        improved[locs, lanes] = True
        minpend = np.where(improved, dist, np.inf).min(axis=1)
        # The rank's out-edges, each row's light edges before its heavy
        # ones (a stable sort, so both keep adjacency order): row r is
        # light in [indptr[r], light_end[r]) and heavy up to indptr[r+1].
        # repro: index-space: light_end[local]=local, adj=global
        lg = ctx.local_graph
        heavy = lg.weight >= self.delta
        row = np.repeat(np.arange(owned, dtype=np.int64), lg.out_degree)
        order = np.argsort(2 * row + heavy, kind="stable")
        light_end = lg.indptr[:-1] + np.bincount(row[~heavy], minlength=owned)
        # Targets in the fold's key type: ``vertex * L + lane`` fits four
        # bytes on every graph this simulator holds, which quarters the
        # sort constant and is what the vertex field ships as.
        key_dtype = np.int32 if ctx.num_vertices * L < 2**31 else np.int64
        return {
            "dist": dist,
            "improved": improved,
            # Per-row min pending distance: min over dist where improved,
            # inf when the row holds no improved bit.  Kept exact by apply
            # (winners fold their value in; retired rows are recomputed),
            # it collapses frontier selection and the vote to O(owned)
            # float compares — no lane dimension for parked rows, which
            # dominate under a fine delta.
            "minpend": minpend,
            # Bucket threshold for the current epoch; begin_step derives
            # it from the allreduced min pending distance.
            "threshold": np.inf,
            "adj": lg.adj[order].astype(key_dtype),
            "weight": lg.weight[order],
            "light_end": light_end,
            # Pairs whose light edges went out this epoch and whose heavy
            # edges are owed at its end (gen-owned, like the telemetry).
            "owed": np.zeros((owned, L), dtype=bool),
            # Per-lane edges scanned, light and heavy.
            "lane_edges": np.zeros((2, L), dtype=np.int64),
        }

    def begin_step(self, state: dict, ctx, reduced: float) -> None:
        # The epoch's bucket is the one holding the globally smallest
        # pending distance; every rank derives the same threshold from
        # the same reduction (exactly how the 1-D engine picks buckets).
        state["threshold"] = (np.floor(reduced / self.delta) + 1.0) * self.delta

    def frontier_from(self, state: dict, ctx) -> np.ndarray:
        # A row is in the bucket iff its smallest pending distance is
        # below the threshold — one float compare per owned row.
        return np.flatnonzero(state["minpend"] < state["threshold"])

    def gen_messages(self, state: dict, ctx, frontier: np.ndarray):
        # repro: index-space: frontier=local
        dist_rows = state["dist"][frontier]  # compact (F, L) gather
        sub = state["improved"][frontier] & (dist_rows < state["threshold"])
        state["owed"][frontier] |= sub
        indptr = ctx.local_graph.indptr
        return self._relax(
            state, sub, dist_rows,
            indptr[frontier], state["light_end"][frontier], _LIGHT,
        )

    def gen_settled(self, state: dict, ctx):
        """The epoch's closing pass: heavy edges of every pair it settled."""
        # repro: index-space: rows=local
        rows = np.flatnonzero(state["owed"].any(axis=1))
        sub = state["owed"][rows]
        state["owed"][rows] = False
        indptr = ctx.local_graph.indptr
        return self._relax(
            state, sub, state["dist"][rows],
            state["light_end"][rows], indptr[rows + 1], _HEAVY,
        )

    def _relax(self, state, sub, dist_rows, lo, hi, phase):
        """Candidates along the edge slices ``[lo, hi)`` of some rows' pairs.

        ``sub`` is the ``(rows, L)`` mask of pairs to expand,
        ``dist_rows`` those rows of the distance matrix and ``lo``/``hi``
        their edge slices.  Work is O(candidates): the slice of each
        ``(row, lane)`` pair is gathered directly, so a candidate costs
        two gathers (target, weight), two repeats (lane, source distance)
        and one add.  Returns the substrate's ``(targets, (lanes, dists),
        edges_scanned)``, folded to one record per ``(target, lane)`` and
        sorted by target.
        """
        # repro: index-space: pair_rows=local, tgt=global
        lane_dtype = self.wire_fields[0][1]
        pair_rows, pair_lanes = np.nonzero(sub)
        count = (hi - lo)[pair_rows]
        np.add.at(state["lane_edges"][phase], pair_lanes, count)
        ends = np.cumsum(count)
        # Edge ids of every pair's slice, back to back: each slice's start,
        # rebased to its offset in the output, plus a running index.
        idx = np.repeat(lo[pair_rows] - (ends - count), count) + np.arange(count.sum())
        tgt = state["adj"][idx]
        cand = np.repeat(dist_rows[sub], count) + state["weight"][idx]
        # Sender-side combine: hubs collect many candidates per
        # (vertex, lane) in one pass, and min is exact over float64 —
        # fold them before they hit the wire so routing, byte accounting
        # and the receive scatter all run on the folded records.
        # Order-free, so lanes stay bit-identical.
        L = tgt.dtype.type(self.num_lanes)
        key, best = dedup_min(
            tgt * L + np.repeat(pair_lanes.astype(tgt.dtype), count), cand
        )
        vertex = key // L
        lane = (key - vertex * L).astype(lane_dtype)
        return vertex, (lane, best), int(idx.size)

    def apply_messages(self, state: dict, ctx, targets, values) -> None:
        dist = state["dist"]
        improved = state["improved"]
        minpend = state["minpend"]
        # Retire exactly the entries gen expanded this pass (recomputed,
        # not cached: only apply writes dist/improved, so the mask is
        # unchanged since gen read it).  Only in-bucket rows can hold
        # expanded bits, so the lane-level scan runs over the frontier,
        # not over every owned row.  The closing pass expands nothing
        # pending: the drain loop left no row in the bucket.
        rows = np.flatnonzero(minpend < state["threshold"])
        if rows.size:
            imp = improved[rows]
            dr = dist[rows]
            imp &= dr >= state["threshold"]
            improved[rows] = imp
            minpend[rows] = np.where(imp, dr, np.inf).min(axis=1)
        lanes, dvals = values
        if targets.size == 0:
            return
        L = dist.shape[1]
        # intp before the multiply: the wire's narrow types index nothing.
        flat = targets.astype(np.intp) * L + lanes
        winners = scatter_min(dist.reshape(-1), flat, dvals)
        if winners.size:
            wr = winners // L
            improved[wr, winners % L] = True
            # dist only decreases, and retire recomputes any row it
            # clears, so folding the winning values in keeps minpend
            # exact.
            np.minimum.at(minpend, wr, dist.reshape(-1)[winners])

    def vote(self, state: dict, ctx) -> float:
        # inf: no pending work on this rank.
        return float(state["minpend"].min(initial=np.inf))

    def done(self, reduced: float, steps: int) -> bool:
        return reduced == np.inf

    def export_state(self, state: dict, ctx) -> dict:
        return {"dist": state["dist"], "lane_edges": state["lane_edges"]}

    def finalize(
        self, graph: CSRGraph, exports: list[dict], steps: int
    ) -> LanesResult:
        # One transposing copy of the ranks' (owned, L) rows: lane-major.
        dist = np.empty((self.num_lanes, graph.num_vertices), dtype=np.float64)
        np.concatenate([e["dist"].T for e in exports], axis=1, out=dist)
        lane_edges = np.sum([e["lane_edges"] for e in exports], axis=0)
        # The same tight-edge pass every single-root engine uses, per
        # lane — which is what pins parent bit-identity per lane.
        parent = derive_parents_lanes(graph, dist, self.roots)
        result = LanesResult(
            self.roots, SSSPResult, {"dist": dist, "parent": parent}
        )
        result.counters.add("epochs", steps)
        result.meta["algorithm"] = "sssp_batch_delta_stepping"
        result.meta["delta"] = self.delta
        result.meta["num_lanes"] = self.num_lanes
        result.meta["lane_edges_scanned"] = [int(x) for x in lane_edges.sum(axis=0)]
        result.meta["lane_heavy_edges_scanned"] = [int(x) for x in lane_edges[_HEAVY]]
        return result
