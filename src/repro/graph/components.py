"""Connected components by vectorized label propagation.

The sequential oracle of the ``cc`` kernel.  Labels start as vertex ids
and are repeatedly lowered to the minimum over each vertex's neighborhood
(one whole-edge scatter-min per round) with pointer-jumping compression,
converging in O(log n) rounds on typical graphs.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["connected_components"]


def connected_components(graph: CSRGraph, max_rounds: int | None = None) -> np.ndarray:
    """Return per-vertex component labels (the minimum vertex id inside).

    Treats the graph as undirected (the CSR is expected to be symmetric, as
    all benchmark graphs here are).
    """
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.int64)
    if graph.num_edges == 0 or n == 0:
        return labels
    src = np.repeat(np.arange(n, dtype=np.int64), graph.out_degree)
    dst = graph.adj
    if max_rounds is None:
        max_rounds = 2 * int(np.ceil(np.log2(max(n, 2)))) + 4
    for _ in range(max_rounds):
        before = labels.copy()
        # Hook: pull the smaller label across every edge, both directions.
        np.minimum.at(labels, dst, labels[src])
        np.minimum.at(labels, src, labels[dst])
        # Compress: pointer-jump labels toward their roots.
        labels = labels[labels]
        labels = labels[labels]
        if np.array_equal(labels, before):
            break
    else:
        raise RuntimeError("label propagation did not converge")
    # Final full compression so every label is a fixed point.
    while True:
        jumped = labels[labels]
        if np.array_equal(jumped, labels):
            return labels
        labels = jumped

