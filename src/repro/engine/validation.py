"""Centralized parameter validation shared by every engine and kernel.

Before the superstep substrate existed, each engine re-implemented its own
checks for the same parameters — the shared-memory kernel and the 1-D
engine validated ∆ with different wording, and a user flipping ``engine=``
saw the error message change shape for the same mistake.  Every check
lives here now, so the messages agree by construction and a new kernel
inherits them by calling one function.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition import RUN_PARTITIONS, Partition1D, block1d, block1d_edge_balanced

__all__ = [
    "check_source",
    "check_integral_roots",
    "check_roots",
    "check_num_ranks",
    "check_delta",
    "check_direction",
    "check_grid",
    "check_partition",
    "check_weights",
    "make_partition",
]


def check_source(graph: CSRGraph, source: int) -> None:
    """Reject an out-of-range source vertex."""
    n = graph.num_vertices
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range [0, {n})")


def check_integral_roots(kernel: str, source) -> None:
    """Reject root ids that are not integers (a scalar or a sequence).

    A float root is never rounded to a neighbouring vertex: ``1.7`` names
    no vertex, and answering it as vertex 1 is a silently wrong answer.
    """
    roots = np.asarray(source)
    if roots.size and roots.dtype.kind not in "iu":
        raise ValueError(
            f"kernel {kernel!r} needs integer vertex ids as source=; got {source!r}"
        )


def check_roots(kernel: str, roots, num_vertices: int | None = None) -> np.ndarray:
    """A batched kernel's roots as a non-empty 1-D int64 array.

    ``num_vertices`` adds the range check, once the graph is known.
    """
    roots = np.ascontiguousarray(roots, dtype=np.int64).ravel()
    if roots.size == 0:
        raise ValueError(f"{kernel} needs at least one root")
    if num_vertices is not None and (np.any(roots < 0) or np.any(roots >= num_vertices)):
        raise ValueError(f"{kernel} roots out of range [0, {num_vertices})")
    return roots


def check_num_ranks(num_ranks: int) -> None:
    """Reject a non-positive rank count."""
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")


def check_delta(delta: float, adaptive: bool) -> float:
    """Validate a ∆-stepping bucket width, however it was chosen.

    ``adaptive=True`` marks a value produced by
    :func:`repro.core.adaptive.choose_delta` rather than the caller — a
    degenerate weight distribution can push the heuristic to 0 or NaN,
    and :class:`~repro.core.buckets.BucketQueue` would spin forever on a
    non-positive bucket width, so the *chosen* value is what gets checked.
    """
    if not np.isfinite(delta) or delta <= 0:
        origin = "choose_delta(graph) returned" if adaptive else "got"
        raise ValueError(f"delta must be positive and finite; {origin} {delta!r}")
    return float(delta)


def check_direction(direction: str) -> None:
    """Reject an unknown BFS direction strategy."""
    if direction not in ("auto", "top_down", "bottom_up"):
        raise ValueError(f"unknown direction {direction!r}")


def check_grid(rows: int, cols: int, num_ranks: int) -> None:
    """Reject a process grid that does not tile the rank count."""
    if rows * cols != num_ranks:
        raise ValueError(f"grid {rows}x{cols} does not match {num_ranks} ranks")


def check_weights(graph: CSRGraph, kernel: str) -> None:
    """Reject edge weights a shortest-path kernel cannot answer.

    A negative weight on a symmetric graph is a negative 2-cycle, so
    ∆-stepping never settles; NaN and ±inf poison the ∆ heuristic and
    every comparison.  One min/max pass; the first bad edge in CSR order
    is located only on failure and named as ``(u, v, w)``.
    """
    w = graph.weight
    if w.size == 0 or (w.min() >= 0 and np.isfinite(w.max())):
        return
    bad = int(np.flatnonzero(~(np.isfinite(w) & (w >= 0)))[0])
    u = int(np.searchsorted(graph.indptr, bad, side="right")) - 1
    raise ValueError(
        f"kernel {kernel!r} needs finite edge weights >= 0; "
        f"edge ({u}, {int(graph.adj[bad])}, {float(w[bad])!r}) is not"
    )


def check_partition(kind: str) -> None:
    """Reject a partition kind a run cannot use (see ``RUN_PARTITIONS``)."""
    if kind not in RUN_PARTITIONS:
        raise ValueError(
            f"partition must be one of {RUN_PARTITIONS} (each rank owns one "
            f"contiguous id range); got {kind!r}"
        )


def make_partition(graph: CSRGraph, kind: str, num_ranks: int) -> Partition1D:
    """Build a run partition by name: rank ``r`` owns one contiguous id range."""
    check_partition(kind)
    if kind == "block":
        return block1d(graph.num_vertices, num_ranks)
    return block1d_edge_balanced(graph, num_ranks)
