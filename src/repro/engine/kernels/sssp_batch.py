"""Bucketed ∆-stepping on the vertex-kernel substrate: one root or a batch.

State is a ``(owned, num_roots)`` float64 matrix plus an ``improved``
mask; every superstep is one shared bucket epoch whose threshold comes
from the global min-vote.  Inside an epoch the drain loop relaxes only
*light* edges (``w < ∆``) of in-bucket ``(row, lane)`` pairs, to
quiescence; the pairs it relaxed are remembered, and the epoch's closing
pass (``gen_settled``) relaxes their *heavy* edges once, with final
distances — a heavy candidate cannot land back in the bucket, so one
pass suffices.  Each rank keeps its out-edges with every row's light
edges first (one CSR plus a ``light_end`` pointer per row), each target
*pre-routed* to its code: its index in the rank's sorted table of owned
ids and remote targets, so the owned ids are one block of codes.

Wire records are ``(vertex, lane, dist)`` triples, min-folded per
``(vertex, lane)`` on the sender and left sorted by vertex, so one
owner-routed exchange carries every lane's relaxations together and the
router cuts the batch without permuting it.

Per lane the fixed point is the true shortest distance, and min over
float64 path sums is exact and order-free — so each distance column is
bit-identical to any other engine's, and deriving the tree with the same
:func:`~repro.core.result.derive_parents_lanes` pass makes the parent
columns bit-identical too.

``repro.run(kernel="sssp", engine="dist1d")`` is this kernel with one
root and an :class:`~repro.core.config.SSSPConfig`, whose knobs are the
paper's optimization stack (all off for a ``sssp_batch`` sweep):
``coalesce`` sends a ``(vertex, lane)`` record only if it beats all sent
before (:class:`~repro.core.ghost_cache.GhostMinCache`), once per
exchange; ``fusion_cap`` drains up to that many local passes per
exchange, folding owned-target records in place; ``delegate_hubs``
announces a hub's pairs to every rank, each relaxing its slice of the
hub's row; ``compressed_indices`` ships ``uint32`` vertex ids.
"""

from __future__ import annotations

import numpy as np

from repro.core.coalescing import dedup_min
from repro.core.ghost_cache import GhostMinCache
from repro.core.relaxation import scatter_min
from repro.core.result import SSSPResult, derive_parents_lanes
from repro.engine.rank import wire_id_dtype
from repro.engine.results import LanesResult
from repro.engine.validation import check_delta, check_roots
from repro.graph.csr import CSRGraph

__all__ = ["SSSPBatch"]


#: Rows of the per-lane edges-scanned telemetry.
_LIGHT, _HEAVY = 0, 1


class SSSPBatch:
    """∆-stepping, one lane per root; a ``sssp_batch`` sweep returning a
    :class:`~repro.engine.results.LanesResult`.  An ``SSSPConfig`` makes
    it the single-root ``sssp`` kernel: its policies on, ``hubs`` (sorted
    ids of degree ``>= hub_threshold``) delegated, and an
    :class:`~repro.core.result.SSSPResult` of the one root."""

    vote_op = "min"
    drain = True
    #: Span phase of a drain pass and of the closing pass.
    phases = ("light", "heavy")

    def __init__(
        self, roots, delta: float, config=None, hubs=None, hub_threshold: int = 0
    ) -> None:
        self.config = config
        self.name = "sssp_batch" if config is None else "sssp"
        self.roots = check_roots(self.name, roots)
        self.num_lanes = int(self.roots.size)
        self.delta = check_delta(delta, adaptive=False)
        self.hubs = np.empty(0, dtype=np.int64) if hubs is None else hubs
        self.hub_threshold = hub_threshold
        self.coalesce = config is not None and config.coalesce
        self.fusion_cap = 1 if config is None else config.fusion_cap
        if config is not None:  # the counter names single-root readers use
            self.edges_counter = "edges_relaxed"
            self.passes_counter = "light_supersteps"
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
        # The rank's out-edges — its owned rows, then one row per delegated
        # hub slice — each row's light edges before its heavy ones (a
        # stable sort, so both keep adjacency order): row r is light in
        # [indptr[r], light_end[r]) and heavy up to indptr[r+1].
        # repro: index-space: light_end[local]=local, targets=global
        lg = ctx.local_graph
        rows = lg.num_vertices
        heavy = lg.weight >= self.delta
        row = np.repeat(np.arange(rows, dtype=np.int64), lg.out_degree)
        order = np.argsort(2 * row + heavy, kind="stable")
        light_end = lg.indptr[:-1] + np.bincount(row[~heavy], minlength=rows)
        # Pre-route the targets: ``table`` is the sorted set of owned ids
        # and remote targets, a code indexes it.  Codes fit the fold's key
        # type — ``code * L + lane`` fits four bytes on every graph this
        # simulator holds, which halves the sort constant.
        key_dtype = np.int32 if ctx.num_vertices * L < 2**31 else np.int64
        targets = lg.adj[order]
        mark = np.zeros(ctx.num_vertices, dtype=bool)
        mark[targets] = True
        mark[ctx.lo : ctx.hi] = True
        # repro: index-space: table=global
        table = np.flatnonzero(mark).astype(
            key_dtype
            if self.config is None
            else wire_id_dtype(ctx.num_vertices, self.config.compressed_indices)
        )
        code_of = np.zeros(ctx.num_vertices, dtype=key_dtype)
        code_of[table] = np.arange(table.size, dtype=key_dtype)
        state = {
            "dist": dist,
            "improved": improved,
            # Per-row min pending distance: min over dist where improved,
            # inf when the row holds no improved bit.  Kept exact by the
            # generate hooks (expanded pairs retire) and the fold (winners
            # fold their value in), it collapses frontier selection and the
            # vote to O(owned) float compares — no lane dimension for
            # parked rows, which dominate under a fine delta.
            "minpend": minpend,
            # Bucket threshold for the current epoch; begin_step derives
            # it from the allreduced min pending distance.
            "threshold": np.inf,
            # The rank's one copy of its edges (see Kernel: a kernel
            # holding "adj" owns them).
            "indptr": lg.indptr,
            "adj": code_of[targets],
            "weight": lg.weight[order],
            "light_end": light_end,
            # The owned block of codes starts here.
            "owned_code": int(np.count_nonzero(mark[: ctx.lo])),
            # Pairs whose light edges went out this epoch and whose heavy
            # edges are owed at its end (gen-owned, like the telemetry).
            "owed": np.zeros((owned, L), dtype=bool),
            # Per-lane edges scanned, light and heavy.
            "lane_edges": np.zeros((2, L), dtype=np.int64),
            # Arrays sized by the rank's targets, fixed at build (the
            # decode table also holds the owned ids).
            "halo": {"halo_ids": table},
        }
        if self.coalesce:
            # Best value ever sent per fold key (code * L + lane) that meets
            # the filter: every key, or with fusion (owned records fold in
            # place) the remote ones, a slot per key past the owned block.
            first, gap = state["owned_code"] * L, self._filter_gap(state)
            keys = np.arange(table.size * L - gap, dtype=key_dtype)
            keys[first:] += gap
            ghosts = GhostMinCache.fixed(keys)
            state["ghosts"] = ghosts
            state["halo"].update(ghosts.resident())
        if self.hubs.size:
            # Owned hub rows are empty; row ``hub_row[r]`` holds this
            # rank's slice of hub r, relaxed in its place.
            # repro: index-space: hub_row[local]=local, owned_hubs=global
            hub_row = np.full(owned, -1, dtype=np.int64)
            mine = np.flatnonzero((self.hubs >= ctx.lo) & (self.hubs < ctx.hi))
            hub_row[self.hubs[mine] - ctx.lo] = owned + mine
            state["hub_row"] = hub_row
            state["announced"] = []
        return state

    def begin_step(self, state: dict, ctx, reduced: float) -> None:
        # The epoch's bucket is the one holding the globally smallest
        # pending distance; every rank derives the same threshold from
        # the same reduction.
        state["threshold"] = (np.floor(reduced / self.delta) + 1.0) * self.delta

    def frontier_from(self, state: dict, ctx) -> np.ndarray:
        # A row is in the bucket iff its smallest pending distance is
        # below the threshold — one float compare per owned row.
        return np.flatnonzero(state["minpend"] < state["threshold"])

    def gen_messages(self, state: dict, ctx, frontier: np.ndarray):
        """Drain the bucket: up to ``fusion_cap`` local passes."""
        # repro: index-space: frontier=local, rows=local
        out, scanned = [], 0
        for _ in range(self.fusion_cap):
            dist_rows = state["dist"][frontier]  # compact (F, L) gather
            imp = state["improved"][frontier]
            sub = imp & (dist_rows < state["threshold"])
            imp &= ~sub  # expanded pairs retire until something improves them
            state["improved"][frontier] = imp
            state["minpend"][frontier] = np.where(imp, dist_rows, np.inf).min(axis=1)
            state["owed"][frontier] |= sub
            scanned += self._pairs(state, ctx, frontier, sub, dist_rows, _LIGHT, out)
            if self.fusion_cap > 1:
                frontier = self.frontier_from(state, ctx)
                if frontier.size == 0:
                    break
        return (*self._records(state, out, last=not self.hubs.size), scanned)

    def gen_settled(self, state: dict, ctx):
        """The epoch's closing pass: heavy edges of every pair it settled."""
        # repro: index-space: rows=local
        rows = np.flatnonzero(state["owed"].any(axis=1))
        sub = state["owed"][rows]
        state["owed"][rows] = False
        out: list = []
        scanned = self._pairs(state, ctx, rows, sub, state["dist"][rows], _HEAVY, out)
        return (*self._records(state, out, last=not self.hubs.size), scanned)

    def take_announced(self, state: dict, ctx):
        """``(hubs, (lanes, dists))`` this rank announced since the last call."""
        batches, state["announced"] = state["announced"], []
        if not batches:
            return None
        hubs, lanes, dists = (np.concatenate(c) for c in zip(*batches))
        wire_id = state["halo"]["halo_ids"].dtype
        return hubs.astype(wire_id), (lanes.astype(self.wire_fields[0][1]), dists)

    def expand_announced(self, state: dict, ctx, hubs, values, settled: bool):
        """Relax this rank's slices of the hubs other ranks announced."""
        # repro: index-space: hubs=global, rows=local
        lanes, dists = values
        rows = ctx.owned_count + np.searchsorted(self.hubs, hubs)
        out: list = []
        scanned = self._expand(state, rows, lanes, dists, _HEAVY if settled else _LIGHT, out)
        return (*self._records(state, out, last=True), scanned)

    def _pairs(self, state, ctx, rows, sub, dist_rows, phase, out) -> int:
        """:meth:`_expand` the ``sub`` pairs of owned ``rows``.  An owned
        hub's pairs are announced to every rank, and relax this rank's own
        slice of the hub in its place."""
        # repro: index-space: rows=local
        pair_rows, lanes = np.nonzero(sub)
        rows, dists = rows[pair_rows], dist_rows[sub]
        if self.hubs.size:
            slot_row = state["hub_row"][rows]
            hub = slot_row >= 0
            state["announced"].append((rows[hub] + ctx.lo, lanes[hub], dists[hub]))
            rows = np.where(hub, slot_row, rows)
        return self._expand(state, rows, lanes, dists, phase, out)

    def _expand(self, state, rows, lanes, dists, phase, out) -> int:
        """Relax the light or heavy edges of ``(rows, lanes)`` pairs whose
        distances are ``dists``; fold the candidates and hand them to
        :meth:`_emit`.  Returns the edges scanned.

        Work is O(candidates): each pair's edge slice is gathered directly,
        so a candidate costs two gathers (target, weight), two repeats
        (lane, source distance) and one add.
        """
        # repro: index-space: rows=local, tgt=local
        if phase == _LIGHT:
            lo, hi = state["indptr"][rows], state["light_end"][rows]
        else:
            lo, hi = state["light_end"][rows], state["indptr"][rows + 1]
        count = hi - lo
        np.add.at(state["lane_edges"][phase], lanes, count)
        ends = np.cumsum(count)
        # Edge ids of every pair's slice, back to back: each slice's start,
        # rebased to its offset in the output, plus a running index.
        idx = np.repeat(lo - (ends - count), count) + np.arange(count.sum())
        tgt = state["adj"][idx]
        cand = np.repeat(dists, count) + state["weight"][idx]
        # Sender-side combine: hubs collect many candidates per
        # (vertex, lane) in one pass, and min is exact over float64 —
        # fold them before they hit the wire so routing, byte accounting
        # and the receive scatter all run on the folded records.
        # Order-free, so lanes stay bit-identical.  The best-sent filter's
        # slot scatter-min is itself that fold, so coalescing sorts nothing.
        L = tgt.dtype.type(self.num_lanes)
        key = tgt * L + np.repeat(lanes.astype(tgt.dtype), count)
        if not self.coalesce:
            key, cand = dedup_min(key, cand)
        self._emit(state, key, cand, out)
        return int(idx.size)

    def _emit(self, state, key, best, out) -> None:
        """Route one batch by its ``code * L + lane`` keys (folded and
        sorted unless it is bound for the filter).

        With fusion, owned targets fold into the state in place.  What is
        left lowers the best-sent filter (coalescing) or goes to ``out``.
        """
        # repro: index-space: key=local, code=local
        if self.fusion_cap > 1:
            L = self.num_lanes
            code = key // L
            local = code - state["owned_code"]
            owned = (local >= 0) & (local < state["dist"].shape[0])
            self._fold(state, local[owned], key[owned] - code[owned] * L, best[owned])
            key, best = key[~owned], best[~owned]
        if self.coalesce:
            first = state["owned_code"] * self.num_lanes
            slot = np.where(key < first, key, key - self._filter_gap(state))
            state["ghosts"].lower(slot, best)
        else:
            out.append((key, best))

    def _filter_gap(self, state) -> int:
        """Filter slots skipped over the owned block: none without fusion."""
        return state["dist"].size if self.fusion_cap > 1 else 0

    def _records(self, state, out, last: bool):
        """A generate hook's ``(targets, (lanes, dists))``: the batches in
        ``out`` — or, coalescing, what the best-sent filter lowered since
        its last flush, taken by the ``last`` hook before the pass's
        exchange (the relay's, with announcements) — decoded to global ids."""
        # repro: index-space: code=local, table=global
        if self.coalesce and last:
            out = [state["ghosts"].take_dirty()]
        if len(out) == 1:
            ((key, best),) = out
        elif out:
            key, best = (np.concatenate(c) for c in zip(*out))
        else:
            key, best = np.empty(0, dtype=state["adj"].dtype), np.empty(0)
        code = key // self.num_lanes
        lane = (key - code * self.num_lanes).astype(self.wire_fields[0][1])
        return state["halo"]["halo_ids"][code], (lane, best)

    def _fold(self, state, targets, lanes, dvals) -> None:
        """Min-fold ``(owned-local target, lane, dist)`` records into the state."""
        # repro: index-space: targets=local, flat=local
        if targets.size == 0:
            return
        dist = state["dist"]
        L = dist.shape[1]
        # intp before the multiply: the wire's narrow types index nothing.
        flat = targets.astype(np.intp) * L + lanes
        winners = scatter_min(dist.reshape(-1), flat, dvals)
        if winners.size:
            wr = winners // L
            state["improved"][wr, winners % L] = True
            # dist only decreases, and the generate hooks recompute any row
            # they retire, so folding the winning values in keeps minpend
            # exact.
            np.minimum.at(state["minpend"], wr, dist.reshape(-1)[winners])

    def apply_messages(self, state: dict, ctx, targets, values) -> None:
        self._fold(state, targets, *values)

    def vote(self, state: dict, ctx) -> float:
        # inf: no pending work on this rank.
        return float(state["minpend"].min(initial=np.inf))

    def done(self, reduced: float, steps: int) -> bool:
        return reduced == np.inf

    def export_state(self, state: dict, ctx) -> dict:
        return {"dist": state["dist"], "lane_edges": state["lane_edges"]}

    def finalize(self, graph: CSRGraph, exports: list[dict], steps: int):
        # One transposing copy of the ranks' (owned, L) rows: lane-major.
        dist = np.empty((self.num_lanes, graph.num_vertices), dtype=np.float64)
        np.concatenate([e["dist"].T for e in exports], axis=1, out=dist)
        # The same tight-edge pass every engine uses, per lane — which is
        # what pins parent bit-identity per lane.
        parent = derive_parents_lanes(graph, dist, self.roots)
        if self.config is None:
            result = LanesResult(
                self.roots, SSSPResult, {"dist": dist, "parent": parent}
            )
            result.meta["algorithm"] = "sssp_batch_delta_stepping"
            lane_edges = np.sum([e["lane_edges"] for e in exports], axis=0)
            result.meta["num_lanes"] = self.num_lanes
            result.meta["lane_edges_scanned"] = [int(x) for x in lane_edges.sum(axis=0)]
            result.meta["lane_heavy_edges_scanned"] = [int(x) for x in lane_edges[_HEAVY]]
        else:
            # The one lane-major row is the answer: no lane copy.
            result = SSSPResult(int(self.roots[0]), dist[0], parent[0])
            result.meta.update(
                variant=self.config.variant_name(),
                num_hubs=int(self.hubs.size),
                hub_threshold=self.hub_threshold,
                algorithm="distributed_delta_stepping",
            )
        result.counters.add("epochs", steps)
        result.meta["delta"] = self.delta
        return result
