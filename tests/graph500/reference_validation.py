"""The Graph500 validators as they were before the row-local rewrite.

Kept verbatim as an oracle: ``repro.graph500.validation`` must return the
same ``ok`` and the same failure list, message for message and in order,
on every genuine and tampered answer (``test_validation.py``).  This
version gathers ``tree_parent[adj]`` for the tree edges, ``reached[adj]``
for rule 4 and ``level[adj]`` / ``dist[adj]`` for rule 3, and always runs
the rule-5 pointer jump.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.result import UNREACHABLE_PARENT, SSSPResult
from repro.graph.csr import CSRGraph
from repro.graph500.validation import ValidationReport

if TYPE_CHECKING:
    from repro.bfs.kernel import BFSResult

__all__ = ["validate_bfs", "validate_sssp"]


class _TreeCheck:
    """The spec checks that read only ``(root, parent, reached)``.

    Collects failure messages in call order.  A per-edge rule reads its
    source-side state as ``np.repeat(state, graph.out_degree)`` — sequential,
    in edge order — and gathers only the target side through ``graph.adj``.
    """

    def __init__(
        self,
        graph: CSRGraph,
        root: int,
        parent: np.ndarray,
        reached: np.ndarray,
        name: str,
        state: np.ndarray,
    ) -> None:
        """Rule 1: the root sits at zero and is its own parent; rule 2's
        bookkeeping: every other reached vertex names a parent, in range."""
        n = graph.num_vertices
        # An answer shaped for another graph is a caller error, not a tree failure.
        for field_name, arr in (("parent", parent), (name, state)):
            if arr.shape != (n,):
                raise ValueError(
                    f"{field_name} has length {arr.size}, expected {n} (num_vertices)"
                )
        if not 0 <= root < n:
            raise ValueError(f"source {root} out of range for {n} vertices")
        self.graph, self.root, self.reached = graph, root, reached
        self.failures: list[str] = []
        if state[root] != 0:
            self.failures.append(f"rule 1: {name}[root]={state[root]}, expected 0")
        if parent[root] != root:
            self.failures.append(f"rule 1: parent[root]={parent[root]}, expected {root}")
        others = reached.copy()
        others[root] = False
        for bad, what in (
            (others & (parent < 0), "reached vertices without a parent"),
            (others & (parent >= n), "parent pointers out of range"),
        ):
            if np.any(bad):
                self.failures.append(f"rule 2: {np.count_nonzero(bad)} {what}")
        #: Every reached non-root vertex whose parent is a vertex, and those
        #: parents; a pointer out of range is reported above and goes no further.
        self.tree_vs = np.flatnonzero(others & (parent >= 0) & (parent < n))
        self.ps = parent[self.tree_vs]

    def tree_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rule 2, structural half: parents are reached, tree edges exist.

        One test in edge order, ``parent[adj] == source of the edge``, marks
        the CSR entries that are some vertex's tree edge — a run of them
        where parallel edges were kept.  Returns ``(hit, at, ok)``: those CSR
        positions, the index into ``tree_vs`` each belongs to, and per tree
        vertex whether it has one.
        """
        n, adj = self.graph.num_vertices, self.graph.adj
        if np.any(~self.reached[self.ps]):
            self.failures.append("rule 2: some parents are unreached")
        # Ids are compared in 32 bits where the range check allows it; a
        # vertex outside the tree carries -1, which matches no edge source.
        ids = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        tree_parent = np.full(n, -1, dtype=ids)
        tree_parent[self.tree_vs] = self.ps
        source = np.repeat(np.arange(n, dtype=ids), self.graph.out_degree)
        hit = np.flatnonzero(tree_parent[adj] == source)
        slot = np.empty(n, dtype=np.int64)  # read at tree vertices only
        slot[self.tree_vs] = np.arange(self.tree_vs.size)
        at = slot[adj[hit]]
        ok = np.zeros(self.tree_vs.size, dtype=bool)
        ok[at] = True
        if np.any(~ok):
            self.failures.append(
                f"rule 2: {np.count_nonzero(~ok)} tree edges missing from graph"
            )
        return hit, at, ok

    def adjacency(self, what: str) -> np.ndarray:
        """Rule 4: no edge joins a reached and an unreached vertex.

        Returns the mask of edges with both endpoints reached, which is
        where the kernel's slack rule (rule 3) applies.
        """
        u_reached = np.repeat(self.reached, self.graph.out_degree)
        v_reached = self.reached[self.graph.adj]
        mixed = u_reached != v_reached
        if np.any(mixed):
            self.failures.append(
                f"rule 4: {np.count_nonzero(mixed)} edges connect reached and {what}"
            )
        return u_reached & v_reached

    def reaches_root(self) -> None:
        """Rule 5: pointer-jump every tree vertex to the root, O(log n) rounds.

        Every other vertex is its own fixed point, so a path that runs into
        an unreached or parentless vertex ends there and not at the root.
        The loop stops at its fixed point — further rounds are no-ops; only
        a cycle longer than two keeps moving and runs all the rounds.
        """
        n = self.graph.num_vertices
        hop = np.arange(n)
        hop[self.tree_vs] = self.ps
        for _ in range(int(np.ceil(np.log2(max(n, 2)))) + 1):
            hop, last = hop[hop], hop
            if np.array_equal(hop, last):
                break
        if np.any(hop[self.tree_vs] != self.root):
            self.failures.append("rule 5: some tree paths do not terminate at the root")

    def report(self) -> ValidationReport:
        return ValidationReport(ok=not self.failures, failures=self.failures)


@np.errstate(invalid="ignore")  # inf - inf on an edge neither end of which is reached
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
    tree = _TreeCheck(graph, result.source, parent, reached, "dist", dist)
    failures, tree_vs, ps = tree.failures, tree.tree_vs, tree.ps

    unreached_with_parent = ~reached & (parent != UNREACHABLE_PARENT)
    if np.any(unreached_with_parent):
        failures.append(
            f"rule 4: {np.count_nonzero(unreached_with_parent)} unreached vertices "
            "carry a parent"
        )

    # -- check 2: tree edges exist and close distances exactly ---------------
    if tree_vs.size:
        # A tree edge closes when any of its parallel (p, v) entries does;
        # rule 3 forbids one that undercuts, so the lightest decides.
        hit, at, ok_edge = tree.tree_edges()
        w_edge = np.full(tree_vs.size, np.inf)
        np.minimum.at(w_edge, at, graph.weight[hit])
        tight = np.abs(dist[ps] + w_edge - dist[tree_vs]) <= tolerance
        tight |= ~ok_edge  # missing edges already reported above
        if np.any(~tight):
            failures.append(
                f"rule 2: {np.count_nonzero(~tight)} tree edges do not close "
                "the distance"
            )

    # -- checks 3 and 4: per-edge conditions ---------------------------------
    both = tree.adjacency("unreached vertices")
    slack = dist[graph.adj] - (np.repeat(dist, graph.out_degree) + graph.weight)
    relaxable = np.count_nonzero((slack > tolerance) & both)
    if relaxable:
        failures.append(f"rule 3: {relaxable} edges violate the relaxation condition")

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
    tree = _TreeCheck(graph, result.source, parent, reached, "level", level)
    failures, tree_vs, ps = tree.failures, tree.tree_vs, tree.ps

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
    # Levels are values, not ids: compare them in the narrowest signed dtype
    # whose half-range holds every value present, so no difference can wrap.
    extent = max(int(level.max()), -int(level.min()))
    fits = (t for t in (np.int8, np.int16, np.int32) if extent <= np.iinfo(t).max // 2)
    lv = level.astype(next(fits, np.int64))
    skew = np.abs(np.repeat(lv, graph.out_degree) - lv[graph.adj])
    skewed = np.count_nonzero((skew > 1) & both)
    if skewed:
        failures.append(f"rule 3: {skewed} edges span more than one level")

    return tree.report()
