"""Shared-memory direction-optimizing BFS.

Top-down expands the frontier's out-edges; bottom-up has every *unvisited*
vertex scan its neighbors for a frontier member.  On scale-free graphs the
middle levels hold most of the graph, and bottom-up wins there by
short-circuiting on the first frontier neighbor — the direction switch is
the single most important BFS optimization at Graph500 scale.  The scan
stops each row at that neighbor on the host too: it probes each row's
first neighbors one column at a time, then reads what is left in growing
chunks (:data:`BOTTOM_UP_CHUNKS`), so the edges gathered stay close to the
edges charged.  A BFS scans only the unvisited rows that have an edge, so
an isolated or already claimed vertex is never read again.

The switch follows Beamer's heuristic (:func:`beamer_bottom_up`, shared
with the distributed engine): go bottom-up when the frontier's out-edge
count exceeds ``1/BEAMER_ALPHA`` of the unexplored edge count; return
top-down when the frontier shrinks below ``1/BEAMER_BETA`` of the vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.relaxation import frontier_edges
from repro.graph.csr import CSRGraph, _ranges_to_indices
from repro.utils.timing import Counters

__all__ = [
    "BEAMER_ALPHA", "BEAMER_BETA", "BOTTOM_UP_CHUNKS", "BFSResult", "beamer_bottom_up", "bfs",
]

_NO_PARENT = np.int64(-1)

#: Beamer's direction-switch thresholds (top-down -> bottom-up, and back).
BEAMER_ALPHA = 15.0
BEAMER_BETA = 18.0

#: Bottom-up scan: a row's first 8 neighbors one at a time, then chunks 4x wider.
BOTTOM_UP_CHUNKS = (8, 4)


def beamer_bottom_up(
    bottom_up: bool,
    frontier_edges: float,
    unexplored_edges: float,
    frontier_size: float,
    num_vertices: int,
) -> bool:
    """The direction of the next level under Beamer's heuristic."""
    if not bottom_up and frontier_edges * BEAMER_ALPHA > max(unexplored_edges, 1):
        return True
    if bottom_up and frontier_size * BEAMER_BETA < num_vertices:
        return False
    return bottom_up


@dataclass
class BFSResult:
    """A BFS tree: per-vertex parent and hop level (-1 = unreached)."""

    source: int
    parent: np.ndarray
    level: np.ndarray
    counters: Counters = field(default_factory=Counters)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.parent = np.ascontiguousarray(self.parent, dtype=np.int64)
        self.level = np.ascontiguousarray(self.level, dtype=np.int64)
        if self.parent.shape != self.level.shape:
            raise ValueError("parent/level shape mismatch")

    @property
    def reached(self) -> np.ndarray:
        return self.level >= 0

    @property
    def num_reached(self) -> int:
        return int(np.count_nonzero(self.reached))

    def traversed_edges(self, graph: CSRGraph) -> int:
        """Graph500 TEPS numerator (same definition as SSSP)."""
        return int(graph.out_degree[self.reached].sum()) // 2

    def validate(self, graph: CSRGraph):
        """Run the spec's BFS tree checks; returns a ``ValidationReport``.

        The uniform hook every kernel-typed result implements.
        """
        from repro.graph500.validation import validate_bfs

        return validate_bfs(graph, self)


def _top_down_step(
    graph: CSRGraph, frontier: np.ndarray, parent: np.ndarray
) -> tuple[np.ndarray, int]:
    """Expand the frontier; claim unvisited targets.  Returns (next, edges)."""
    src, dst, _ = frontier_edges(graph, frontier)
    scanned = int(src.size)
    unvisited = parent[dst] == _NO_PARENT
    dst_u = dst[unvisited]
    src_u = src[unvisited]
    if dst_u.size == 0:
        return np.empty(0, dtype=np.int64), scanned
    # First-wins claim: later writes overwrite earlier, any is a valid parent.
    parent[dst_u] = src_u
    return _sorted_set(dst_u, parent.size), scanned


def _sorted_set(ids: np.ndarray, n: int) -> np.ndarray:
    """``np.unique(ids)`` for ids in ``[0, n)``: one bool mark, no sort."""
    mark = np.zeros(n, dtype=bool)
    mark[ids] = True
    return np.flatnonzero(mark)


def _bottom_up_step(
    graph: CSRGraph,
    unvisited: np.ndarray,
    in_frontier: np.ndarray,
    parent: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Every unvisited vertex scans its row for a frontier neighbor.

    Exact early exit, vectorized over rows: the first columns are probed
    one at a time — an ``adj`` and a frontier gather over the rows still
    alive — then each round reads the next, wider chunk of every surviving
    row (:data:`BOTTOM_UP_CHUNKS`).  A row leaves at its first frontier
    neighbor — its parent — or at its end.  Returns ``(found, scanned)``:
    the rows that found a parent, ascending in ``unvisited`` order, and
    ``Σ min(first_hit, deg)``, the edges a sequential scan inspects.
    """
    starts, stops = graph.indptr[unvisited], graph.indptr[unvisited + 1]
    hit_edge = np.full(unvisited.size, -1, dtype=np.int64)
    # The rows still alive, each with its next edge and its row end.
    rows = np.flatnonzero(stops > starts)
    edge, end = starts[rows], stops[rows]
    scanned = 0
    probes, growth = BOTTOM_UP_CHUNKS
    for _ in range(probes):
        if not rows.size:
            break
        scanned += rows.size
        hit = in_frontier[graph.adj[edge]]
        hit_edge[rows[hit]] = edge[hit]
        edge += 1
        hit |= edge == end
        alive = np.flatnonzero(~hit)
        rows, edge, end = rows[alive], edge[alive], end[alive]
    width = probes * growth
    while rows.size:
        stop = np.minimum(end, edge + width)
        lens = stop - edge
        take = _ranges_to_indices(edge, stop)
        hits = np.flatnonzero(in_frontier[graph.adj[take]])
        firsts = np.zeros(rows.size, dtype=np.int64)
        np.cumsum(lens[:-1], out=firsts[1:])
        # ``hits`` ascend, so each row's first hit opens its run in ``row_of``.
        row_of = np.searchsorted(firsts, hits, side="right") - 1
        first = np.ones(hits.size, dtype=bool)
        np.not_equal(row_of[1:], row_of[:-1], out=first[1:])
        hit_rows, hits = row_of[first], hits[first]
        hit_edge[rows[hit_rows]] = take[hits]
        lens[hit_rows] = hits - firsts[hit_rows] + 1
        scanned += int(lens.sum())
        alive = stop < end
        alive[hit_rows] = False
        rows, edge, end = rows[alive], stop[alive], end[alive]
        width *= growth
    found_mask = hit_edge >= 0
    parent[unvisited[found_mask]] = graph.adj[hit_edge[found_mask]]
    return unvisited[found_mask], scanned


def bfs(graph: CSRGraph, source: int, direction: str = "auto") -> BFSResult:
    """BFS from ``source``; ``direction`` is 'auto', 'top_down' or 'bottom_up'.

    'auto' is the direction-optimizing strategy; the pure strategies exist
    for the inspection-count comparison figure.
    """
    n = graph.num_vertices
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range [0, {n})")
    if direction not in ("auto", "top_down", "bottom_up"):
        raise ValueError(f"unknown direction {direction!r}")
    parent = np.full(n, _NO_PARENT, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    parent[source] = source
    level[source] = 0
    frontier = np.array([source], dtype=np.int64)
    counters = Counters()
    m = graph.num_edges
    unexplored_edges = m
    depth = 0
    bottom_up = direction == "bottom_up"
    # The rows a bottom-up level may still find: unvisited, with an edge.
    candidates = np.flatnonzero(graph.out_degree)
    while frontier.size:
        depth += 1
        frontier_edges_count = int(graph.degree_of(frontier).sum())
        unexplored_edges -= frontier_edges_count
        if direction == "auto":
            bottom_up = beamer_bottom_up(
                bottom_up, frontier_edges_count, unexplored_edges, frontier.size, n
            )
        if bottom_up:
            in_frontier = np.zeros(n, dtype=bool)
            in_frontier[frontier] = True
            candidates = candidates[parent[candidates] == _NO_PARENT]
            nxt, scanned = _bottom_up_step(graph, candidates, in_frontier, parent)
            counters.add("bottom_up_steps")
        else:
            nxt, scanned = _top_down_step(graph, frontier, parent)
            counters.add("top_down_steps")
        counters.add("edges_inspected", scanned)
        level[nxt] = depth
        frontier = nxt
    counters.add("levels", depth)
    result = BFSResult(source=source, parent=parent, level=level, counters=counters)
    result.meta["direction"] = direction
    return result
