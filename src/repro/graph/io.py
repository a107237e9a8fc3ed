"""Graph persistence (npz).

Benchmark sweeps re-use the same generated graphs across runs; persisting
the CSR form avoids regenerating and rebuilding.  The format is a plain
``.npz`` with the three CSR arrays plus a format version for forward
compatibility.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["save_graph", "load_graph"]

_FORMAT_VERSION = 1


def save_graph(graph: CSRGraph, path: str | Path) -> None:
    """Serialize a CSR graph to ``path`` (compressed npz)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        num_vertices=np.int64(graph.num_vertices),
        indptr=graph.indptr,
        adj=graph.adj,
        weight=graph.weight,
    )


def load_graph(path: str | Path) -> CSRGraph:
    """Load a CSR graph written by :func:`save_graph`.

    A file is input from outside the program, so an adjacency id outside
    ``[0, num_vertices)`` is rejected here, naming the file.  (The
    ``CSRGraph`` constructor cannot check it: the local CSRs of
    ``extract_rows`` and the 2-D block build hold global ids.)
    """
    with np.load(Path(path)) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported graph format version {version}")
        graph = CSRGraph(
            indptr=data["indptr"],
            adj=data["adj"],
            weight=data["weight"],
            num_vertices=int(data["num_vertices"]),
        )
    n = graph.num_vertices
    if graph.adj.size:
        lo, hi = int(graph.adj.min()), int(graph.adj.max())
        if lo < 0 or hi >= n:
            bad = lo if lo < 0 else hi
            raise ValueError(
                f"{path}: adjacency holds vertex id {bad}, outside [0, {n})"
            )
    return graph
