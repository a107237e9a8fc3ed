"""Shared-memory direction-optimizing BFS.

Top-down expands the frontier's out-edges; bottom-up has every *unvisited*
vertex scan its neighbors for a frontier member.  On scale-free graphs the
middle levels hold most of the graph, and bottom-up wins there by
short-circuiting on the first frontier neighbor — the direction switch is
the single most important BFS optimization at Graph500 scale.

The switch follows Beamer's heuristic (:func:`beamer_bottom_up`, shared
with the distributed engine): go bottom-up when the frontier's out-edge
count exceeds ``1/BEAMER_ALPHA`` of the unexplored edge count; return
top-down when the frontier shrinks below ``1/BEAMER_BETA`` of the vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.relaxation import frontier_edges
from repro.graph.csr import CSRGraph
from repro.utils.timing import Counters

__all__ = ["BEAMER_ALPHA", "BEAMER_BETA", "BFSResult", "beamer_bottom_up", "bfs"]

_NO_PARENT = np.int64(-1)

#: Beamer's direction-switch thresholds (top-down -> bottom-up, and back).
BEAMER_ALPHA = 15.0
BEAMER_BETA = 18.0


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
    return np.unique(dst_u), scanned


def _bottom_up_step(
    graph: CSRGraph,
    unvisited: np.ndarray,
    in_frontier: np.ndarray,
    parent: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Every unvisited vertex scans its row for a frontier neighbor.

    Vectorized over all unvisited rows; the short-circuit of a sequential
    implementation is approximated by counting only edges up to (and
    including) the first hit per row when charging work.
    """
    src, dst, _ = frontier_edges(graph, unvisited)
    if src.size == 0:
        return np.empty(0, dtype=np.int64), 0
    deg = graph.degree_of(unvisited)
    row_of_edge = np.repeat(np.arange(unvisited.size, dtype=np.int64), deg)
    offsets = np.zeros(unvisited.size, dtype=np.int64)
    np.cumsum(deg[:-1], out=offsets[1:])
    within_row = np.arange(src.size, dtype=np.int64) - offsets[row_of_edge]
    hits = in_frontier[dst]
    # Short-circuit accounting: a sequential bottom-up stops a row at its
    # first frontier neighbor; rows without one scan fully.
    first_hit = deg.copy()  # sentinel: full row scanned
    np.minimum.at(first_hit, row_of_edge[hits], within_row[hits] + 1)
    scanned = int(np.minimum(first_hit, deg).sum())
    found_mask = np.zeros(unvisited.size, dtype=bool)
    found_mask[row_of_edge[hits]] = True
    found = unvisited[found_mask]
    if found.size == 0:
        return np.empty(0, dtype=np.int64), scanned
    # Parent = the first frontier neighbor in row order.
    hit_pos = offsets[found_mask] + first_hit[found_mask] - 1
    parent[found] = dst[hit_pos]
    return found, scanned


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
    while frontier.size:
        depth += 1
        frontier_edges_count = int(graph.out_degree[frontier].sum())
        unexplored_edges -= frontier_edges_count
        if direction == "auto":
            bottom_up = beamer_bottom_up(
                bottom_up, frontier_edges_count, unexplored_edges, frontier.size, n
            )
        if bottom_up:
            in_frontier = np.zeros(n, dtype=bool)
            in_frontier[frontier] = True
            unvisited = np.flatnonzero(parent == _NO_PARENT)
            nxt, scanned = _bottom_up_step(graph, unvisited, in_frontier, parent)
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
