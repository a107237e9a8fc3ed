"""Multi-source BFS result: one tree per root lane.

The bit-parallel batched kernel answers up to 64 roots in one sweep and
returns a :class:`MultiBFSResult` holding lane-major ``parent``/``level``
matrices.  ``lane(i)`` copies the i-th root's contiguous columns into a
:class:`~repro.bfs.kernel.BFSResult` (same dataclass single-root callers
get), and ``validate`` runs the spec's tree checks on every lane — a
batched answer is only as good as its worst lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bfs.kernel import BFSResult
from repro.graph.csr import CSRGraph
from repro.utils.timing import Counters

__all__ = ["MultiBFSResult"]


@dataclass
class MultiBFSResult:
    """BFS trees from a batch of roots, lane-indexed.

    ``parent``/``level`` are ``(num_vertices, num_lanes)`` int64 matrices
    in Fortran order; column ``i`` — contiguous — is the tree from
    ``roots[i]`` (-1 = unreached, the root its own parent — the Graph500
    convention, per lane).
    """

    roots: np.ndarray
    # repro: index-space: parent[vertex,lane]=global, level[vertex,lane]=local
    parent: np.ndarray
    level: np.ndarray
    counters: Counters = field(default_factory=Counters)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.roots = np.ascontiguousarray(self.roots, dtype=np.int64)
        self.parent = np.asfortranarray(self.parent, dtype=np.int64)
        self.level = np.asfortranarray(self.level, dtype=np.int64)
        if self.parent.shape != self.level.shape:
            raise ValueError("parent/level shape mismatch")
        if self.parent.ndim != 2 or self.parent.shape[1] != self.roots.size:
            raise ValueError(
                f"expected (n, {self.roots.size}) lane matrices, "
                f"got {self.parent.shape}"
            )

    @property
    def num_vertices(self) -> int:
        return int(self.parent.shape[0])

    @property
    def num_lanes(self) -> int:
        return int(self.roots.size)

    def lane(self, i: int) -> BFSResult:
        """The i-th root's tree as a single-root :class:`BFSResult`."""
        if not 0 <= i < self.num_lanes:
            raise IndexError(f"lane {i} out of range [0, {self.num_lanes})")
        result = BFSResult(
            source=int(self.roots[i]),
            parent=self.parent[:, i].copy(),
            level=self.level[:, i].copy(),
        )
        # Same convention as the shared kernel's counter: the number of
        # expansion rounds, i.e. the deepest level plus one.
        result.counters.add("levels", int(result.level.max()) + 1)
        result.meta["lane"] = i
        result.meta["batched"] = True
        return result

    def traversed_edges(self, graph: CSRGraph) -> int:
        """Sum of the per-lane Graph500 TEPS numerators."""
        reached = self.level >= 0  # (n, L)
        per_lane = graph.out_degree @ reached  # (L,)
        return int((per_lane // 2).sum())

    def validate(self, graph: CSRGraph):
        """Spec tree checks on every lane; failures are lane-prefixed."""
        from repro.graph500.validation import ValidationReport, validate_bfs

        failures: list[str] = []
        for i in range(self.num_lanes):
            report = validate_bfs(graph, self.lane(i))
            failures.extend(f"lane {i}: {msg}" for msg in report.failures)
        return ValidationReport(ok=not failures, failures=failures)
