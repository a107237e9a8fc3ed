"""Single-root direction-optimizing BFS on the vertex-kernel substrate.

A superstep is one level.  A **top-down** level expands the owned frontier
rows, claims owned targets in place and routes one ``(target, parent)``
claim per remote target to its owner.  A **bottom-up** level is a gather
pass: each rank contributes its owned frontier range packed to bits
(``n/8`` bytes on the wire in all — what makes bottom-up affordable at
scale), then scans its unvisited owned rows against the gathered bitmap
with no per-edge communication, each row stopping at its first frontier
neighbor (the shared kernel's ``_bottom_up_step``).  The direction follows
Beamer's heuristic (:func:`beamer_bottom_up`), decided on the parent from
the allreduced frontier size (the vote) and out-edge count (the statistic).
"""

from __future__ import annotations

import numpy as np

from repro.bfs.kernel import BFSResult, _bottom_up_step, _NO_PARENT, _sorted_set, beamer_bottom_up
from repro.core.relaxation import frontier_edges
from repro.graph.csr import CSRGraph, unique_first

__all__ = ["BFS"]


class BFS:
    """One BFS tree from ``source``; ``direction`` is ``"auto"`` (Beamer's
    switch), ``"top_down"`` or ``"bottom_up"``.  The switch weighs the
    frontier against the graph's ``num_vertices`` and ``num_edges``."""

    name = "bfs"
    vote_op = "sum"
    drain = False
    #: A claim: the implicit ``vertex`` field is the target, ``parent`` global.
    wire_fields = (("parent", np.int64),)
    #: Span phase of an exchange (top-down) and of a gather (bottom-up) pass.
    phases = ("top_down", "bottom_up")
    edges_counter = "edges_inspected"
    steps_counter = "levels"

    def __init__(self, source: int, direction: str, num_vertices: int, num_edges: int) -> None:
        self.source = source
        self.direction = direction
        self.num_vertices = num_vertices
        # Beamer's switch state (parent-side): unexpanded edges, next direction.
        self.unexplored = float(num_edges)
        self.gathering = direction == "bottom_up"
        self.levels_top_down = 0
        self.levels_bottom_up = 0

    def init_state(self, ctx) -> dict:
        # repro: index-space: parent[local]=global, level[local]=local
        # repro: index-space: frontier=local, candidates=local
        root = [self.source - ctx.lo] if ctx.lo <= self.source < ctx.hi else []
        frontier = np.array(root, dtype=np.int64)
        parent = np.full(ctx.owned_count, _NO_PARENT, dtype=np.int64)
        level = np.full(ctx.owned_count, -1, dtype=np.int64)
        parent[frontier] = self.source
        level[frontier] = 0
        # The gathered bitmap is every rank's range padded to whole bytes,
        # in rank order; ``spans`` are (first vertex, end vertex, first bit)
        # of its runs without padding.
        spans, bit = [], 0
        for lo, hi in zip(ctx.starts[:-1].tolist(), ctx.starts[1:].tolist()):
            if spans and spans[-1][2] + lo - spans[-1][0] == bit:
                spans[-1] = (spans[-1][0], hi, spans[-1][2])
            else:
                spans.append((lo, hi, bit))
            bit += (hi - lo + 7) // 8 * 8
        return {
            "parent": parent,
            "level": level,
            "frontier": frontier,
            # Owned rows a bottom-up level may still find: unvisited, with an edge.
            "candidates": np.flatnonzero(ctx.local_graph.out_degree),
            # The owned frontier as bits, all clear between gathers.
            "bits": np.zeros(ctx.owned_count, dtype=bool),
            "spans": spans,
            "depth": 0,
        }

    def begin_step(self, state: dict, ctx, reduced: float) -> None:
        state["depth"] = state["depth"] + 1

    def frontier_from(self, state: dict, ctx) -> np.ndarray:
        return state["frontier"]

    def gen_messages(self, state: dict, ctx, frontier: np.ndarray):
        """Top-down: claim owned targets in place, route remote claims."""
        # repro: index-space: frontier=local, dst=global, src=global
        src, dst, _ = frontier_edges(ctx.local_graph, frontier)
        state["frontier"] = np.empty(0, dtype=np.int64)
        src = src + ctx.lo  # parents are global on the wire
        mine = (dst >= ctx.lo) & (dst < ctx.hi)
        self._claim(state, dst[mine] - ctx.lo, src[mine])
        # One claim per remote target (any parent is valid).
        targets, first = unique_first(dst[~mine], ctx.num_vertices)
        return targets, (src[~mine][first],), int(src.size)

    def apply_messages(self, state: dict, ctx, targets, values) -> None:
        (parents,) = values
        self._claim(state, targets, parents)

    def _claim(self, state: dict, targets: np.ndarray, parents: np.ndarray) -> None:
        """Claim the unvisited owned-local ``targets`` with global ``parents``."""
        # repro: index-space: targets=local, parents=global
        parent = state["parent"]
        unvisited = parent[targets] == _NO_PARENT
        t = targets[unvisited]
        if t.size == 0:
            return
        parent[t] = parents[unvisited]  # duplicate targets: last write wins, all valid
        state["level"][t] = state["depth"]
        state["frontier"] = np.concatenate([state["frontier"], _sorted_set(t, parent.size)])

    def gen_gather(self, state: dict, ctx) -> dict:
        """Bottom-up: this rank's frontier range, packed to bits."""
        bits = state["bits"]
        bits[state["frontier"]] = True
        packed = np.packbits(bits)
        bits.fill(False)
        return {"bitmap": packed}

    def apply_gathered(self, state: dict, ctx, gathered) -> int:
        """Scan the unvisited owned rows against the gathered frontier."""
        # repro: index-space: candidates=local, found=local
        in_frontier = bits = np.unpackbits(gathered["bitmap"]).view(bool)
        if len(state["spans"]) > 1:
            in_frontier = np.empty(ctx.num_vertices, dtype=bool)
            for lo, hi, at in state["spans"]:
                in_frontier[lo:hi] = bits[at : at + hi - lo]
        parent, candidates = state["parent"], state["candidates"]
        state["candidates"] = candidates = candidates[parent[candidates] == _NO_PARENT]
        found, scanned = _bottom_up_step(ctx.local_graph, candidates, in_frontier, parent)
        state["level"][found] = state["depth"]
        state["frontier"] = found
        return scanned

    def vote(self, state: dict, ctx) -> float:
        return float(state["frontier"].size)

    def stat(self, state: dict, ctx) -> float:
        """The owned frontier's out-edges."""
        return float(ctx.local_graph.degree_of(state["frontier"]).sum())

    def observe(self, reduced: float, total: float) -> None:
        """Beamer's switch, from the frontier's size and out-edge count."""
        self.unexplored -= total
        if self.direction == "auto":
            self.gathering = beamer_bottom_up(
                self.gathering, total, self.unexplored, reduced, self.num_vertices
            )
        self.levels_bottom_up += self.gathering
        self.levels_top_down += not self.gathering

    def done(self, reduced: float, steps: int) -> bool:
        return reduced == 0

    def export_state(self, state: dict, ctx) -> dict:
        return {"parent": state["parent"], "level": state["level"]}

    def finalize(self, graph: CSRGraph, exports: list[dict], steps: int) -> BFSResult:
        # The owned ranges tile [0, n) in rank order.
        parent, level = (np.concatenate([e[k] for e in exports]) for k in ("parent", "level"))
        result = BFSResult(source=self.source, parent=parent, level=level)
        result.counters.add("levels_top_down", self.levels_top_down)
        result.counters.add("levels_bottom_up", self.levels_bottom_up)
        result.meta["direction"] = self.direction
        return result
