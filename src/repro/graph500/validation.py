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

The per-edge passes have the shape of GBBS's dense ``edgeMap``: source-side
state is ``np.repeat(state, out_degree)``, read sequentially, and only the
target side is gathered through ``adj``, in blocks of whole rows of about
``2**15`` entries, so temporaries are O(n) plus one cache-sized block.  One
answer costs one gather and two repeats per edge:

- Rules 3 and 4 share the gather: SSSP counts both off it; BFS gives
  unreached vertices the level ``max + 2``, so a reached-unreached edge
  spans more than one level too, and further passes split the count only
  when that fused test fires.
- A tree edge ``(v, parent[v])`` is found in the child's own row,
  ``np.repeat(parent, out_degree) == adj``.  That needs the mirror of every
  entry at the same weight, which only a :attr:`CSRGraph.symmetric` graph
  promises; any other keeps the parent-row test ``parent[adj] == source``.
  Both see every parallel entry of a multigraph and need no sorted rows.
- BFS rule 5 needs no pointer jump if rules 1 and 2 found nothing: then
  every reached non-root vertex has a reached parent one level lower, so
  the walk up from ``v`` stops within ``level[v]`` steps at a reached
  vertex of level 0, the root (any other sits at ``level[p] + 1 >= 1``).
  The jump runs whenever a failure is already recorded, so the failure
  list is what an unconditional jump gives.

Nothing is kept between calls.  A prototype that parked its per-graph
edge keys on the ``CSRGraph`` read, on ``bfs_s17`` (scale 17, 64 answers),
``validate_s`` 6.94 / 5.51 / 6.87 s against 7.55 / 7.18 / 7.28 s for the
stateless pass (16.55 / 14.75 / 16.05 s before either), but ``peak_rss_mb``
above its paired parent in 7 of 7 runs, by 6-21% (481 -> 578 MB) against a
0.20 bound, and ``solve_s`` above it in 6 of 7 (median +7%): one second is
not worth a cache and its invalidation on a mutable dataclass.
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

    Collects failure messages in call order, and walks the graph's edges a
    block of rows at a time for the per-edge rules (:meth:`edge_sum`).
    """

    #: CSR entries per block of a per-edge pass: its int64 temporaries fit in L2.
    BLOCK = 1 << 15

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
        self.out_degree = graph.out_degree
        # Blocks of whole rows, cut at the rows holding every BLOCK-th entry.
        firsts = np.arange(self.BLOCK, graph.num_edges, self.BLOCK)
        ip = graph.indptr
        cuts = np.unique(np.r_[0, np.searchsorted(ip, firsts, "right") - 1, n]).tolist()
        self.blocks = [(slice(a, b), slice(ip[a], ip[b])) for a, b in zip(cuts, cuts[1:])]
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

    def edge_sum(self, state: np.ndarray, count):
        """Sum ``count(state[u], state[v], entries)`` over the blocks, for the
        edges ``(u, v)`` at CSR positions ``entries``; one block is alive at a time."""
        adj, deg = self.graph.adj, self.out_degree
        return sum(
            count(np.repeat(state[rows], deg[rows]), np.take(state, adj[entries]), entries)
            for rows, entries in self.blocks
        )

    def tree_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rule 2, structural half: parents are reached, tree edges exist.

        Marks the CSR entries that are some vertex's tree edge — a run of
        them where parallel edges were kept — in the child's own row on a
        symmetric graph, else in the parent's (module docstring).  Returns
        ``(hit, at, ok)``: those CSR positions, the index into ``tree_vs``
        each belongs to, and per tree vertex whether it has one.
        """
        graph, deg = self.graph, self.out_degree
        if np.any(~self.reached[self.ps]):
            self.failures.append("rule 2: some parents are unreached")
        # A vertex outside the tree carries -1, which matches no edge.
        tree_parent = np.full(graph.num_vertices, -1)
        tree_parent[self.tree_vs] = self.ps
        hits = []
        for rows, entries in self.blocks:
            adj = graph.adj[entries]
            if graph.symmetric:
                tree = np.repeat(tree_parent[rows], deg[rows]) == adj
            else:
                source = np.repeat(np.arange(rows.start, rows.stop), deg[rows])
                tree = np.take(tree_parent, adj) == source
            hits.append(np.flatnonzero(tree) + entries.start)
        hit = np.concatenate(hits)
        if graph.symmetric:  # the row a hit lies in is its tree vertex
            at = np.searchsorted(graph.indptr[self.tree_vs], hit, side="right") - 1
        else:
            at = np.searchsorted(self.tree_vs, graph.adj[hit])
        ok = np.zeros(self.tree_vs.size, dtype=bool)
        ok[at] = True
        if np.any(~ok):
            self.failures.append(
                f"rule 2: {np.count_nonzero(~ok)} tree edges missing from graph"
            )
        return hit, at, ok

    def adjacency(self, mixed: int, what: str) -> None:
        """Rule 4: ``mixed`` edges join a reached and an unreached vertex."""
        if mixed:
            self.failures.append(f"rule 4: {mixed} edges connect reached and {what}")

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

    # -- checks 3 and 4: per-edge conditions, off one gather -----------------
    def rules_3_and_4(du, dv, entries):
        u_in, v_in = np.isfinite(du), np.isfinite(dv)
        du += graph.weight[entries]
        slack = (np.subtract(dv, du, out=du) > tolerance) & u_in & v_in
        return np.array([np.count_nonzero(u_in != v_in), np.count_nonzero(slack)])

    mixed, relaxable = tree.edge_sum(dist, rules_3_and_4)
    tree.adjacency(mixed, "unreached vertices")
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
        if failures:  # else rules 1 and 2 prove rule 5 (module docstring)
            tree.reaches_root()

    # Rules 3 and 4 fused: unreached vertices sit at level top, two past the
    # deepest reached one, in the narrowest signed dtype that holds top, so
    # no difference can wrap.
    top = int(level.max(initial=0)) + 2
    fits = (t for t in (np.int8, np.int16, np.int32) if top <= np.iinfo(t).max)
    lv = np.where(reached, level, top).astype(next(fits, np.int64))

    if tree.edge_sum(lv, lambda u, v, _: np.abs(u - v).max(initial=0) > 1):
        mixed = tree.edge_sum(lv, lambda u, v, _: np.count_nonzero((u == top) != (v == top)))
        tree.adjacency(mixed, "unreached")
        skewed = tree.edge_sum(lv, lambda u, v, _: np.count_nonzero(np.abs(u - v) > 1)) - mixed
        if skewed:
            failures.append(f"rule 3: {skewed} edges span more than one level")

    return tree.report()
