"""Distributed direction-optimizing BFS on SimMPI.

Level-synchronous BSP over a contiguous 1-D vertex partition:

* **top-down** levels expand owned frontier rows and route claims
  ``(target, parent)`` to target owners, deduplicated per destination —
  the BFS analogue of the SSSP engine's coalescing;
* **bottom-up** levels first allgather the frontier as a packed bitmap
  (each rank contributes its owned range, ``n/8`` bytes total on the wire
  — the classic trick that makes bottom-up affordable at scale), after
  which every rank scans its unvisited owned rows with *zero* per-edge
  communication.

The direction switch uses the same Beamer heuristic as the shared-memory
kernel, evaluated on globally allreduced frontier statistics.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.kernel import BFSResult, _bottom_up_step, _NO_PARENT
from repro.core.relaxation import frontier_edges
from repro.engine.driver import EngineContext, attach_fabric_outcome
from repro.engine.rank import Outbox, OwnerRouter, Rank
from repro.engine.validation import make_contiguous_partition
from repro.graph.csr import CSRGraph
from repro.simmpi.fabric import Message, Wire


class _BFSRank(Rank):
    """Per-rank state of the level-synchronous engine.

    State is *owned-local*: ``parent``/``level``/``frontier`` are indexed by
    owned-local vertex id (the partition is contiguous, so local id ``i`` is
    global ``range_lo + i``); parent *values* stay global, since a parent
    can live on any rank and that is what goes on the wire and into the
    assembled tree.  The bottom-up frontier bitmap remains global by
    design — allgathering ``n/8`` bytes per rank is the algorithm.
    """

    def __init__(
        self,
        rank: int,
        graph: CSRGraph,
        owned: np.ndarray,
        router: OwnerRouter,
    ) -> None:
        super().__init__(rank, router)
        # repro: index-space: self.parent[local], self.level[local]
        # repro: index-space: self.owned=global
        # repro: index-space: self.frontier=local, owned=global
        self.claims = Outbox(router, ("vertex", "parent"))
        self.owned = owned
        self.range_lo = int(owned[0]) if owned.size else 0
        self.range_hi = int(owned[-1]) + 1 if owned.size else 0
        # Renumbered rows (local row i = global owned[i]), global columns.
        self.local_graph = graph.extract_rows(owned)
        self.parent = np.full(owned.size, _NO_PARENT, dtype=np.int64)
        self.level = np.full(owned.size, -1, dtype=np.int64)
        self.frontier = np.empty(0, dtype=np.int64)  # owned-local ids

    # -- top-down ---------------------------------------------------------

    def expand_top_down(self, depth: int) -> Wire | None:
        """Expand owned frontier; claim locally, route remote claims."""
        # repro: index-space: dst=global
        src, dst, _ = frontier_edges(self.local_graph, self.frontier)
        self.step_edges += int(src.size)
        self.frontier = np.empty(0, dtype=np.int64)
        if src.size == 0:
            return None
        src_global = src + self.range_lo  # parents are global on the wire
        mine = (dst >= self.range_lo) & (dst < self.range_hi)
        self._claim(dst[mine] - self.range_lo, src_global[mine], depth)
        rem_dst = dst[~mine]
        rem_src = src_global[~mine]
        if rem_dst.size == 0:
            return None
        # Coalesce: one claim per remote target (any parent is valid).
        uniq, first = np.unique(rem_dst, return_index=True)
        self.claims.route(uniq, rem_src[first])
        return self.flush_outbox(self.claims)

    def apply_claims(self, msg: Message | None, depth: int) -> None:
        if msg is None:
            return
        self._claim(msg["vertex"] - self.range_lo, msg["parent"], depth)

    def _claim(self, targets: np.ndarray, parents: np.ndarray, depth: int) -> None:
        """Claim owned-local ``targets`` with global ``parents``."""
        # repro: index-space: targets=local, parents=global
        unvisited = self.parent[targets] == _NO_PARENT
        t = targets[unvisited]
        p = parents[unvisited]
        if t.size == 0:
            return
        self.parent[t] = p  # duplicate targets: last write wins, all valid
        self.level[t] = depth
        self.frontier = np.concatenate([self.frontier, np.unique(t)])

    # -- bottom-up ----------------------------------------------------------

    def bitmap_contribution(self) -> Message:
        """Pack this rank's owned frontier range to bits for the allgather."""
        width = self.range_hi - self.range_lo
        bits = np.zeros(width, dtype=bool)
        if self.frontier.size:
            bits[self.frontier] = True
        packed = np.packbits(bits) if width else np.empty(0, dtype=np.uint8)
        payload = Message(bitmap=packed)
        self.step_bytes += payload.nbytes
        return payload

    def bottom_up_level(self, global_frontier: np.ndarray, depth: int) -> None:
        """Scan unvisited owned rows against the global frontier bitmap."""
        unvisited = np.flatnonzero(self.parent == _NO_PARENT)
        found, scanned = _bottom_up_step(
            self.local_graph, unvisited, global_frontier, self.parent
        )
        self.step_edges += scanned
        self.level[found] = depth
        self.frontier = found

    def frontier_size(self) -> int:
        return int(self.frontier.size)

    def frontier_edge_count(self) -> float:
        return float(self.local_graph.out_degree[self.frontier].sum())

    # -- fused level phases (one team call per exchange side) ---------------

    def _level_tail(self) -> tuple:
        """Work readout + next level's votes, carried out of a fused call.

        Returns ``(edges, bytes, frontier_size, frontier_edge_count)``;
        the driver charges the cost model from the first two and feeds
        the last two to the next level's allreduces — both readouts are
        pure, so per-level evaluation matches the unfused call order.
        """
        edges, nbytes = self.take_step_work()
        return (
            float(edges), float(nbytes),
            float(self.frontier.size), self.frontier_edge_count(),
        )

    def finish_top_down(self, msg: Message | None, depth: int) -> tuple:
        """Inbound tail of a top-down level: apply claims, read out work."""
        self.apply_claims(msg, depth)
        return self._level_tail()

    def finish_bottom_up(self, global_frontier: np.ndarray, depth: int) -> tuple:
        """Bottom-up scan plus work readout, as a single team call."""
        self.bottom_up_level(global_frontier, depth)
        return self._level_tail()

    def answer(self) -> dict:
        return {"parent": self.parent, "level": self.level}

    def resident(self) -> dict[str, dict[str, np.ndarray]]:
        lg = self.local_graph
        return {
            "vertex": {
                "parent": self.parent,
                "level": self.level,
                "local_indptr": lg.indptr,
            },
            "edges": {"adj": lg.adj, "weight": lg.weight},
            "other": {"owned": self.owned},
        }


class _BFSEngine:
    """Direction-optimizing BFS, expressed on the superstep substrate.

    The driver owns the fabric, team, solve span and the vote → allreduce
    → step loop; this class owns the BFS-specific parts — the frontier
    size vote, the Beamer direction switch, the top-down claim exchange
    vs. bottom-up bitmap allgather, and the result assembly.
    The sequence of team and fabric calls is exactly the pre-substrate
    engine's, which the byte-exact equivalence fixtures pin.
    """

    layout = "dist1d"
    kernel_name = "bfs"
    vote_op = "sum"

    def __init__(
        self,
        source: int,
        direction: str,
        alpha: float,
        beta: float,
        partition: str,
        hierarchical: bool,
    ) -> None:
        self.source = source
        self.direction = direction
        self.alpha = alpha
        self.beta = beta
        self.partition = partition
        self.hierarchical = hierarchical
        self.part = None
        self.depth = 0
        self.bottom_up = direction == "bottom_up"
        self.unexplored = 0.0
        self.levels_bottom_up = 0
        self.levels_top_down = 0
        # Per-rank frontier edge counts carried out of the last fused
        # finish call (the frontier sizes are the step's returned votes);
        # the readout is pure, so the values equal what a fresh gather
        # at the next level would read.
        self._edge_cache: np.ndarray | None = None

    # -- driver hooks ------------------------------------------------------

    def build_ranks(self, graph: CSRGraph, num_ranks: int) -> list[_BFSRank]:
        # The bitmap allgather packs each rank's owned range to bits, so
        # owned ranges must be contiguous vertex-id intervals.
        self.part = make_contiguous_partition(
            graph, self.partition, num_ranks, "distributed BFS"
        )
        self.unexplored = float(graph.num_edges)
        router = OwnerRouter(self.part)
        ranks = [
            _BFSRank(r, graph, self.part.vertices_of(r), router)
            for r in range(num_ranks)
        ]
        src_rank = ranks[int(self.part.owner_of(self.source))]
        src_local = self.source - src_rank.range_lo
        src_rank.parent[src_local] = self.source
        src_rank.level[src_local] = 0
        src_rank.frontier = np.array([src_local], dtype=np.int64)
        return ranks

    def votes(self, ctx: EngineContext) -> np.ndarray:
        return np.array(ctx.team.call("frontier_size"), dtype=np.float64)

    def done(self, reduced: float) -> bool:
        return reduced == 0

    def step(self, ctx: EngineContext, total_frontier: float) -> np.ndarray:
        team, fabric = ctx.team, ctx.fabric
        n = ctx.graph.num_vertices
        self.depth += 1
        depth = self.depth
        if self._edge_cache is not None:
            frontier_edge_counts = self._edge_cache
        else:
            frontier_edge_counts = np.array(
                team.call("frontier_edge_count"), dtype=np.float64
            )
        total_frontier_edges = fabric.allreduce(frontier_edge_counts, op="sum")
        self.unexplored -= total_frontier_edges
        if self.direction == "auto":
            if not self.bottom_up and total_frontier_edges * self.alpha > max(
                self.unexplored, 1.0
            ):
                self.bottom_up = True
            elif self.bottom_up and total_frontier * self.beta < n:
                self.bottom_up = False
        with ctx.tracer.span(
            "level",
            cat="engine",
            phase="bottom_up" if self.bottom_up else "top_down",
            epoch=depth,
            frontier=int(total_frontier),
        ) as sp:
            # Each level is two fused team calls (outbound, inbound tail)
            # where the unfused engine paid four-to-five; the inbound tail
            # also carries next level's votes out, so the loop top costs
            # no extra gathers.  Fabric calls and values are unchanged.
            if self.bottom_up:
                self.levels_bottom_up += 1
                # Allgather the frontier bitmap: every rank contributes
                # its owned range packed to bits; the collective costs
                # alpha*log2(P) + n/8 bytes per rank — the trick that
                # makes bottom-up affordable.  The driver reads payload
                # bytes between calls; a Message (not a Wire) comes back
                # owned, never parked in a worker's out arena.
                contributions = team.call("bitmap_contribution", parallel=True)
                global_bits = np.zeros(n, dtype=bool)
                for r, payload in zip(ctx.ranks, contributions):
                    # Rank ranges are ctor-set and immutable, so the
                    # driver's (possibly pre-fork) copies are accurate;
                    # packbits/unpackbits round-trips exactly.
                    width = r.range_hi - r.range_lo
                    if width:
                        global_bits[r.range_lo : r.range_hi] = np.unpackbits(
                            payload["bitmap"], count=width
                        ).astype(bool)
                fabric.allgather(contributions)
                stats = np.array(
                    team.call(
                        "finish_bottom_up", common=(global_bits, depth),
                        parallel=True,
                    ),
                    dtype=np.float64,
                )
            else:
                self.levels_top_down += 1
                outboxes = team.call(
                    "expand_top_down", common=(depth,), parallel=True
                )
                inboxes = fabric.exchange(outboxes)
                stats = np.array(
                    team.call(
                        "finish_top_down",
                        per_rank=[(m,) for m in inboxes],
                        common=(depth,),
                        parallel=True,
                    ),
                    dtype=np.float64,
                )
            ctx.charge(stats, "edges", "bytes")
            self._edge_cache = stats[:, 3].copy()
            ctx.close_step(sp)
        return stats[:, 2]

    def finalize(
        self, ctx: EngineContext, exports: list[dict]
    ) -> tuple[BFSResult, dict]:
        n = ctx.graph.num_vertices
        parent = np.full(n, _NO_PARENT, dtype=np.int64)
        level = np.full(n, -1, dtype=np.int64)
        for r, export in zip(ctx.ranks, exports):
            parent[r.owned] = export["parent"]
            level[r.owned] = export["level"]
        result = BFSResult(source=self.source, parent=parent, level=level)
        result.counters.add("levels", self.depth)
        result.counters.add("levels_top_down", self.levels_top_down)
        result.counters.add("levels_bottom_up", self.levels_bottom_up)
        result.meta.update(
            direction=self.direction,
            num_ranks=ctx.num_ranks,
            partition=self.part.kind,
        )
        attach_fabric_outcome(result, ctx.fabric, "edges_inspected")
        return result, {}
