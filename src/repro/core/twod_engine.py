"""2-D (checkerboard) distributed SSSP engine.

The 1-D engine's alltoallv has up to P-1 partners per rank per superstep.
At 10^5 ranks that fan-out is untenable, which is why record-scale Graph500
codes decompose the *adjacency matrix* over an R x C process grid: edge
(u, v) lives at grid position (grid_row(owner(u)), grid_col(owner(v))), so
each superstep needs only

* a **row broadcast** of the active frontier (C-1 partners), and
* a **column reduce** of relaxation candidates toward vertex owners
  (R-1 partners),

≈ 2·sqrt(P) partners total.  The price is frontier replication across grid
rows and candidate duplication across grid columns.

The relaxation schedule here is frontier (chaotic) relaxation — the 2-D
scheme's communication structure is what this module exists to measure;
the ∆-stepping ordering lives in the 1-D engine.  Answers are exact either
way (tests compare both against Dijkstra).
"""

from __future__ import annotations

import numpy as np

from repro.core.coalescing import dedup_min
from repro.core.config import SSSPConfig
from repro.core.relaxation import frontier_edges, scatter_min
from repro.core.result import SSSPResult, derive_parents
from repro.engine.driver import EngineContext, attach_fabric_outcome
from repro.engine.rank import Outbox, OwnerRouter, Rank, wire_id_dtype
from repro.engine.validation import make_partition
from repro.graph.csr import CSRGraph
from repro.simmpi.fabric import Message, Wire

_INF = np.inf


class _GridRank(Rank):
    """One rank of the R x C grid: an edge block plus (maybe) owned vertices.

    State is *row-local*: every per-vertex array spans only this grid row's
    contiguous source range ``[row_lo, row_hi)`` (the union of the owned
    ranges of the row's ``cols`` ranks), never the full vertex set.  That is
    enough because

    * frontier sources are always row-replicated vertices (in range),
    * relaxation *targets* this rank keeps are its own vertices (in range) —
      remote column targets are routed to their owners and their replica
      entries were provably never written under the dense layout (a column
      target inside the row range is owned by this very rank), so dropping
      them loses no information and changes no message.
    """

    def __init__(
        self,
        rank: int,
        rows: int,
        cols: int,
        graph: CSRGraph,
        router: OwnerRouter,
        row_range: tuple[int, int],
        adj_cols: np.ndarray,
        coalesce: bool = True,
        id_dtype: np.dtype = np.int64,
    ) -> None:
        super().__init__(rank, router)
        # Row-broadcast frontier records, and column-reduce candidates
        # split by target owner.
        self.row_frontier = Outbox(router, ("vertex", "dist"), id_dtype)
        self.candidates = Outbox(router, ("vertex", "dist"), id_dtype)
        self.coalesce = coalesce
        self.grid_row = rank // cols
        self.grid_col = rank % cols
        row_ranks = np.arange(self.grid_row * cols, (self.grid_row + 1) * cols)
        self.row_partners = row_ranks[row_ranks != rank]
        self.rows = rows
        # "local" for a grid rank means *row-local*: global id − row_lo;
        # the owned range [lo, hi) lies inside the row's.
        # repro: index-space: self.dist_row[local], self.frontier=local
        self.row_lo, self.row_hi = row_range
        # Edge block: sources owned by ranks in this grid row (a contiguous
        # slice of the global CSR, renumbered to row-local rows), targets
        # owned by ranks in this grid column (global ids, filtered).  The
        # global CSR is (src, dst)-sorted, so slicing + masking preserves
        # the exact edge order the dense build produced.
        start, stop = graph.indptr[self.row_lo], graph.indptr[self.row_hi]
        adj = graph.adj[start:stop]
        # ``adj_cols`` (the grid column of every target in this row's edge
        # slice) is shared by the row's ``cols`` ranks; the driver computes
        # it once per grid row instead of once per rank.
        keep = adj_cols == self.grid_col
        kept_upto = np.zeros(adj.size + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_upto[1:])
        self.block = CSRGraph(
            kept_upto[graph.indptr[self.row_lo : self.row_hi + 1] - start],
            adj[keep],
            graph.weight[start:stop][keep],
            self.row_hi - self.row_lo,
        )
        # Authoritative distances for owned vertices; replicated frontier
        # distances for the rest of this grid row's source range.
        self.dist_row = np.full(self.row_hi - self.row_lo, _INF, dtype=np.float64)
        # Row-local ids of newly improved owned vertices.  ``_frontier_segs``
        # counts the appended pieces: a single piece is always sorted and
        # duplicate-free (scatter_min winners, or one sender's broadcast),
        # letting the consumers skip the sort/unique.
        self.frontier = np.empty(0, dtype=np.int64)
        self._frontier_segs = 0

    # -- phase 1: frontier broadcast along the grid row --------------------

    def broadcast_frontier(self) -> Wire | None:
        """Send owned active vertices to the other ranks of this grid row."""
        if self.frontier.size == 0:
            return None
        if self._frontier_segs > 1:
            # Pieces appended by separate _apply calls may overlap (a vertex
            # can improve more than once between broadcasts).
            self.frontier = np.unique(self.frontier)
        self._frontier_segs = 1
        self.row_frontier.route(
            self.frontier + self.row_lo, self.dist_row[self.frontier]
        )
        return self.row_frontier.flush(to=self.row_partners)

    def receive_frontier(self, msg: Message | None) -> None:
        if msg is None:
            return
        v = msg["vertex"].astype(np.int64, copy=False) - self.row_lo
        np.minimum.at(self.dist_row, v, msg["dist"])
        self.frontier = np.concatenate([self.frontier, v])
        self._frontier_segs += 1

    # -- phase 2: local relax + column reduce ------------------------------

    def relax_block(self) -> Wire | None:
        """Relax the block's edges out of the frontier; route candidates."""
        # repro: index-space: targets=global, dst=global
        if self.frontier.size == 0:
            return None
        # At this point the frontier is the broadcast-deduplicated owned
        # piece plus one piece per row partner — pieces are sorted and
        # mutually disjoint (vertex ownership partitions the row), so a
        # plain sort reproduces ``np.unique`` exactly, and a lone piece
        # needs nothing at all.
        if self._frontier_segs > 1:
            frontier = np.sort(self.frontier)
        else:
            frontier = self.frontier
        self.frontier = np.empty(0, dtype=np.int64)
        self._frontier_segs = 0
        src, dst, w = frontier_edges(self.block, frontier)
        self.step_edges += int(src.size)
        if src.size == 0:
            return None
        cands = self.dist_row[src] + w
        if self.coalesce:
            # Send-side coalescing: one minimum per target, and candidates
            # that cannot improve our own replica are dead already.  Only
            # in-range targets have a replica to check — and an in-range
            # column target is necessarily owned by this rank; remote ones
            # had a permanently-inf dense entry, i.e. were always kept.
            targets, best = dedup_min(dst, cands)
            keep = np.ones(targets.size, dtype=bool)
            inrow = (targets >= self.row_lo) & (targets < self.row_hi)
            keep[inrow] = best[inrow] < self.dist_row[targets[inrow] - self.row_lo]
            targets, best = targets[keep], best[keep]
        else:
            targets, best = dst, cands
        if targets.size == 0:
            return None
        mine = (targets >= self.lo) & (targets < self.hi)
        self._apply(targets[mine] - self.row_lo, best[mine])
        # Owners of the remaining targets sit in this grid column by
        # construction.
        self.candidates.route(targets[~mine], best[~mine])
        return self.candidates.flush()

    def receive_candidates(self, msg: Message | None) -> None:
        if msg is None:
            return
        self._apply(
            msg["vertex"].astype(np.int64, copy=False) - self.row_lo, msg["dist"]
        )

    def _apply(self, targets_local: np.ndarray, cands: np.ndarray) -> None:
        """Apply owned candidates (row-local ids) and extend the frontier."""
        improved = scatter_min(self.dist_row, targets_local, cands)
        if improved.size:
            self.frontier = np.concatenate([self.frontier, improved])
            self._frontier_segs += 1

    def frontier_size(self) -> int:
        return int(self.frontier.size)

    # -- fused round phases (one team call per exchange side) ---------------

    def receive_and_relax(self, msg: Message | None) -> Wire | None:
        """Apply the row-broadcast inbox, then relax the block — the whole
        middle of a round as one team call.  Returns the column-reduce
        wire for the second exchange."""
        self.receive_frontier(msg)
        return self.relax_block()

    def finish_round(self, msg: Message | None) -> tuple:
        """Inbound tail of a round: apply candidates, read out work.

        Returns ``(edges, frontier_size)``; the driver charges the cost
        model from the first and hands the second to the next vote
        allreduce — the readout is pure, so per-round evaluation matches
        the unfused call order.
        """
        self.receive_candidates(msg)
        return (float(self.take_step_work()), float(self.frontier.size))

    def answer(self) -> dict:
        return {"owned_dist": self.dist_row[self.lo - self.row_lo : self.hi - self.row_lo]}

    def resident(self) -> dict[str, dict[str, np.ndarray]]:
        return {
            "vertex": {"dist_row": self.dist_row, "block_indptr": self.block.indptr},
            "edges": {"adj": self.block.adj, "weight": self.block.weight},
        }


class _TwoDEngine:
    """The 2-D checkerboard engine, expressed on the superstep substrate.

    The driver owns the fabric, team, solve span and the vote → allreduce
    → step loop; this class owns the grid-specific parts — the frontier
    size vote, the round body (row broadcast, block relaxation, column
    reduce), and the result assembly.  The sequence of team and fabric
    calls is exactly the pre-substrate engine's, which the byte-exact
    equivalence fixtures pin.

    ``config`` applies the :class:`SSSPConfig` knobs meaningful to a
    frontier engine: ``partition`` (vertex ownership), ``coalesce``
    (send-side dedup-min + replica filter) and ``compressed_indices``
    (uint32 vertex ids on the wire).  ``delta`` and the bucket knobs do
    not apply — this engine relaxes the whole frontier chaotically — and
    the run's ``meta['variant']`` names only the knobs it applies.
    """

    layout = "dist2d"
    kernel_name = "sssp"
    hierarchical = False
    vote_op = "sum"

    def __init__(
        self,
        source: int,
        rows: int,
        cols: int,
        config: SSSPConfig,
    ) -> None:
        self.source = source
        self.rows = rows
        self.cols = cols
        self.config = config
        self.part = None
        self.rounds = 0
        self.max_partners = 0

    # -- driver hooks ------------------------------------------------------

    def build_ranks(self, graph: CSRGraph, num_ranks: int) -> list[_GridRank]:
        n = graph.num_vertices
        rows, cols = self.rows, self.cols
        config = self.config
        part = make_partition(graph, config.partition, num_ranks)
        coalesce = config.coalesce
        id_dtype = wire_id_dtype(n, config.compressed_indices)
        self.part = part
        router = OwnerRouter(part)
        # Each grid row's source range: the union of its ranks' owned
        # ranges.  Row-local state spans exactly this range.
        starts = router.starts
        row_ranges = [
            (int(starts[gr * cols]), int(starts[(gr + 1) * cols])) for gr in range(rows)
        ]
        # The grid column of every edge target, computed once per grid row
        # and shared by the row's ranks (each would otherwise redo the same
        # owner-gather over the row's full edge slice).
        owner_col = part.owner_array % cols
        row_adj_cols = [
            owner_col[graph.adj[graph.indptr[lo] : graph.indptr[hi]]]
            for lo, hi in row_ranges
        ]
        ranks = [
            _GridRank(
                r,
                rows,
                cols,
                graph,
                router,
                row_ranges[r // cols],
                row_adj_cols[r // cols],
                coalesce=coalesce,
                id_dtype=id_dtype,
            )
            for r in range(num_ranks)
        ]
        src_rank = ranks[int(router.owners(self.source))]
        src_rank.dist_row[self.source - src_rank.row_lo] = 0.0
        src_rank.frontier = np.array(
            [self.source - src_rank.row_lo], dtype=np.int64
        )
        return ranks

    def votes(self, ctx: EngineContext) -> np.ndarray:
        return np.array(ctx.team.call("frontier_size"), dtype=np.float64)

    def done(self, reduced: float) -> bool:
        return reduced == 0

    def _note_partners(self, wires: list) -> None:
        """Track the most ranks any one rank addressed in one exchange."""
        for wire in wires:
            if wire is not None:
                self.max_partners = max(
                    self.max_partners, int(np.count_nonzero(wire.counts))
                )

    def step(self, ctx: EngineContext, total_active: float) -> np.ndarray:
        team, fabric = ctx.team, ctx.fabric
        self.rounds += 1
        with ctx.tracer.span(
            "round",
            cat="engine",
            phase="frontier",
            epoch=self.rounds,
            frontier=int(total_active),
        ) as sp:
            # Each round is three fused team calls (broadcast, middle,
            # inbound tail) where the unfused engine paid six; fabric
            # calls and values are unchanged.
            # Phase 1: row broadcast of owned frontiers.
            bcast = team.call("broadcast_frontier", parallel=True)
            self._note_partners(bcast)
            inboxes = fabric.exchange(bcast)
            # Phase 2: apply the broadcast, relax the block, column-reduce
            # candidates to owners — one fused call per rank.
            reduce_out = team.call(
                "receive_and_relax",
                per_rank=[(m,) for m in inboxes],
                parallel=True,
            )
            self._note_partners(reduce_out)
            inboxes = fabric.exchange(reduce_out)
            stats = np.array(
                team.call(
                    "finish_round",
                    per_rank=[(m,) for m in inboxes],
                    parallel=True,
                ),
                dtype=np.float64,
            )
            ctx.charge(stats, "edges")
            ctx.close_step(sp)
        # The next frontier sizes rode out of the fused finish_round call.
        return stats[:, 1]

    def finalize(
        self, ctx: EngineContext, exports: list[dict]
    ) -> tuple[SSSPResult, dict]:
        # The owned ranges tile [0, n) in rank order.
        dist = np.concatenate([export["owned_dist"] for export in exports])
        result = SSSPResult(
            source=self.source,
            dist=dist,
            parent=derive_parents(ctx.graph, dist, self.source),
        )
        result.counters.add("rounds", self.rounds)
        result.meta.update(
            algorithm="distributed_sssp_2d",
            grid=f"{self.rows}x{self.cols}",
            partition=self.part.kind,
        )
        c = self.config
        result.meta["variant"] = (f"part={c.partition} {'+' if c.coalesce else '-'}coalesce "
                                  f"{'+' if c.compressed_indices else '-'}compress")
        attach_fabric_outcome(result, ctx.fabric, "edges_relaxed")
        return result, {
            "grid": (self.rows, self.cols),
            "max_partners_per_rank": self.max_partners,
        }
