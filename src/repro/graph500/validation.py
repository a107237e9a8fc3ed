"""Graph500 result validation: SSSP (kernel 3) and BFS (kernel 2) trees.

Every benchmark run must be validated; a record submission with an invalid
tree is void.  The spec's five checks, on distances for SSSP and on hop
levels for BFS:

1. the root's parent is the root and its distance / level is zero;
2. every reached vertex has a reached parent, connected by a real graph
   edge that closes the tree exactly: ``dist[p] + w(p, v) == dist[v]``
   (SSSP), ``level[v] == level[p] + 1`` (BFS);
3. no graph edge violates the kernel's slack rule: ``dist[v] <= dist[u] +
   w(u, v)`` for every edge with ``u`` reached (SSSP), levels across an
   edge differ by at most one (BFS);
4. reached and unreached vertices are never adjacent, and unreached
   vertices carry the sentinel state;
5. the parent pointers form a forest rooted at the source: following them
   terminates at the root (SSSP additionally requires the distance to
   strictly decrease, which is what makes the jump acyclic there; BFS
   gets that from rule 2).

Rules 1, 4 and 5, and the structural half of rule 2, read only ``(root,
parent, reached)`` and are one shared core (:class:`_TreeCheck`); each
validator keeps its own closure and per-edge slack rule.  All checks are
whole-array vectorized; the validator runs comfortably on every benchmark
run rather than on samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.result import UNREACHABLE_PARENT, SSSPResult
from repro.graph.csr import CSRGraph

if TYPE_CHECKING:
    from repro.bfs.kernel import BFSResult

__all__ = ["ValidationReport", "validate_bfs", "validate_sssp"]


@dataclass
class ValidationReport:
    """Outcome of validating one run."""

    ok: bool
    failures: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


class _TreeCheck:
    """The spec checks that read only ``(root, parent, reached)``.

    Collects failure messages in call order; the edge-source array every
    per-edge rule needs is built once here.
    """

    def __init__(
        self, graph: CSRGraph, root: int, parent: np.ndarray, reached: np.ndarray
    ) -> None:
        self.graph, self.root, self.parent, self.reached = graph, root, parent, reached
        self.failures: list[str] = []
        n = graph.num_vertices
        self.src = np.repeat(np.arange(n, dtype=np.int64), graph.out_degree)
        tree_vs = np.flatnonzero(reached & (parent >= 0))
        #: Every reached non-root vertex with a parent, and those parents.
        self.tree_vs = tree_vs[tree_vs != root]
        self.ps = parent[self.tree_vs]

    def root_and_parents(self, name: str, value) -> None:
        """Rule 1: the root sits at zero and is its own parent; rule 2's
        bookkeeping: every other reached vertex names a parent."""
        root = self.root
        if value != 0:
            self.failures.append(f"rule 1: {name}[root]={value}, expected 0")
        if self.parent[root] != root:
            self.failures.append(
                f"rule 1: parent[root]={self.parent[root]}, expected {root}"
            )
        bad_parent = self.reached & (self.parent < 0)
        bad_parent[root] = False
        if np.any(bad_parent):
            self.failures.append(
                f"rule 2: {np.count_nonzero(bad_parent)} reached vertices without a parent"
            )

    def tree_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Rule 2, structural half: parents are reached, tree edges exist.

        Returns ``(loc, ok)``: the CSR position of each ``(parent, v)``
        tree edge and whether it was found there.
        """
        n = self.graph.num_vertices
        if np.any(~self.reached[self.ps]):
            self.failures.append("rule 2: some parents are unreached")
        # Locate each (p, v) tree edge with one vectorized binary search:
        # encode (row, col) as row * n + col — CSR order makes the key array
        # globally sorted.  n is bounded well below 2^31 in practice, so the
        # product cannot overflow int64; guard anyway.
        if n >= np.iinfo(np.int64).max // max(n, 1):
            raise ValueError("graph too large for vectorized edge validation")
        key_all = self.src * n + self.graph.adj
        key_tree = self.ps * n + self.tree_vs
        loc = np.searchsorted(key_all, key_tree)
        valid = loc < key_all.size
        ok = np.zeros(self.tree_vs.size, dtype=bool)
        ok[valid] = key_all[loc[valid]] == key_tree[valid]
        if np.any(~ok):
            self.failures.append(
                f"rule 2: {np.count_nonzero(~ok)} tree edges missing from graph"
            )
        return loc, ok

    def adjacency(self, what: str) -> np.ndarray:
        """Rule 4: no edge joins a reached and an unreached vertex.

        Returns the mask of edges with both endpoints reached, which is
        where the kernel's slack rule (rule 3) applies.
        """
        u_reached = self.reached[self.src]
        v_reached = self.reached[self.graph.adj]
        mixed = u_reached != v_reached
        if np.any(mixed):
            self.failures.append(
                f"rule 4: {np.count_nonzero(mixed)} edges connect reached and {what}"
            )
        return u_reached & v_reached

    def reaches_root(self) -> None:
        """Rule 5: pointer-jump every tree vertex to the root, O(log n) rounds."""
        hop = self.parent.copy()
        hop[self.root] = self.root
        for _ in range(int(np.ceil(np.log2(max(self.graph.num_vertices, 2)))) + 1):
            hop[self.tree_vs] = hop[hop[self.tree_vs]]
        if np.any(hop[self.tree_vs] != self.root):
            self.failures.append("rule 5: some tree paths do not terminate at the root")

    def report(self) -> ValidationReport:
        return ValidationReport(ok=not self.failures, failures=self.failures)


def validate_sssp(
    graph: CSRGraph,
    result: SSSPResult,
    tolerance: float = 0.0,
) -> ValidationReport:
    """Run all five spec checks on ``result``.

    ``tolerance`` relaxes the float comparisons; the library's own
    implementations pass with the default exact comparison because every
    distance is literally produced as ``dist[parent] + weight``.
    """
    dist = result.dist
    parent = result.parent
    reached = np.isfinite(dist)
    tree = _TreeCheck(graph, result.source, parent, reached)
    failures, tree_vs, ps = tree.failures, tree.tree_vs, tree.ps

    tree.root_and_parents("dist", dist[result.source])
    unreached_with_parent = ~reached & (parent != UNREACHABLE_PARENT)
    if np.any(unreached_with_parent):
        failures.append(
            f"rule 4: {np.count_nonzero(unreached_with_parent)} unreached vertices "
            "carry a parent"
        )

    # -- check 2: tree edges exist and close distances exactly ---------------
    if tree_vs.size:
        loc, ok_edge = tree.tree_edges()
        w_edge = np.full(tree_vs.size, np.nan)
        w_edge[ok_edge] = graph.weight[loc[ok_edge]]
        tight = np.abs(dist[ps] + w_edge - dist[tree_vs]) <= tolerance
        tight |= ~ok_edge  # missing edges already reported above
        if np.any(~tight):
            failures.append(
                f"rule 2: {np.count_nonzero(~tight)} tree edges do not close "
                "the distance"
            )

    # -- checks 3 and 4: per-edge conditions ---------------------------------
    both = tree.adjacency("unreached vertices")
    slack = dist[graph.adj[both]] - (dist[tree.src[both]] + graph.weight[both])
    if np.any(slack > tolerance):
        failures.append(
            f"rule 3: {np.count_nonzero(slack > tolerance)} edges violate the "
            "relaxation condition"
        )

    # -- check 5: forest structure -------------------------------------------
    if tree_vs.size:
        decreasing = dist[ps] < dist[tree_vs]
        if np.any(~decreasing):
            failures.append(
                f"rule 5: {np.count_nonzero(~decreasing)} parent pointers do not "
                "decrease distance (cycle risk)"
            )
        else:
            # Strict decrease guarantees acyclicity; verify reachability of
            # the root.
            tree.reaches_root()

    return tree.report()


def validate_bfs(graph: CSRGraph, result: BFSResult) -> ValidationReport:
    """Run all five BFS checks; see module docstring."""
    level = result.level
    parent = result.parent
    reached = level >= 0
    tree = _TreeCheck(graph, result.source, parent, reached)
    failures, tree_vs, ps = tree.failures, tree.tree_vs, tree.ps

    tree.root_and_parents("level", level[result.source])
    unreached_bad = ~reached & ((parent != -1) | (level != -1))
    if np.any(unreached_bad):
        failures.append(
            f"rule 4: {np.count_nonzero(unreached_bad)} unreached vertices carry state"
        )

    if tree_vs.size:
        tree.tree_edges()
        off = level[tree_vs] - level[ps]
        if np.any(off != 1):
            failures.append(
                f"rule 2: {np.count_nonzero(off != 1)} tree edges do not step one level"
            )
        tree.reaches_root()

    both = tree.adjacency("unreached")
    skew = np.abs(level[tree.src[both]] - level[graph.adj[both]])
    if np.any(skew > 1):
        failures.append(
            f"rule 3: {np.count_nonzero(skew > 1)} edges span more than one level"
        )

    return tree.report()
