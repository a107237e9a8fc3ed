"""Adaptive ∆ selection.

∆-stepping's single tuning knob trades ordering work against wasted
relaxations: ∆ too small degenerates toward Dijkstra (many epochs, many
global synchronizations); ∆ too large degenerates toward Bellman-Ford
(vertices relaxed with non-final distances and re-relaxed later).  The
standard heuristic — used by the Graph500 reference and by every production
∆-stepping code — sets ∆ proportional to ``w_max / mean_degree``: a light
phase then relaxes about one out-edge per frontier vertex per sub-step.

The ∆-sensitivity experiment (F4) sweeps ∆ and checks this choice lands
near the bottom of the U-shaped cost curve.
"""

from __future__ import annotations

from repro.core.config import SSSPConfig
from repro.engine.validation import check_delta
from repro.graph.csr import CSRGraph

__all__ = ["choose_batch_delta", "choose_delta", "resolve_delta"]

# Relaxations-per-vertex budget per light phase; 3-4 is the usual sweet spot
# for uniform weights (validated by the F4 sweep).
_DELTA_SCALE = 4.0

# Batched sweeps run their bucket machinery once for all lanes, so the
# per-epoch overhead that pushes single-root ∆ upward is amortized 64x.
# 1/8 of the single-root ∆ was the bottom of the U-curve measured for
# 64-lane sweeps on Kronecker graphs (B1 protocol) when sssp_batch had no
# light/heavy split and re-sent every edge of a re-improved pair; with
# the split a coarser ∆ is faster but holds a whole epoch's heavy
# candidates at once (EXPERIMENTS.md B1), so the factor waits for chunked
# heavy emission.
_BATCH_DELTA_FACTOR = 0.125


def choose_delta(graph: CSRGraph) -> float:
    """Pick ∆ from the weight distribution and mean degree.

    ``∆ = 4 * w_max / mean_degree``, clamped to ``(0, w_max]``.  Falls
    back to 1.0 on degenerate graphs (no edges).
    """
    m = graph.num_edges
    if m == 0 or graph.num_vertices == 0:
        return 1.0
    w_max = float(graph.weight.max())
    if w_max <= 0:
        raise ValueError("choose_delta requires positive weights")
    mean_degree = m / graph.num_vertices
    delta = _DELTA_SCALE * w_max / max(mean_degree, 1.0)
    return float(min(max(delta, 1e-9), w_max))


def choose_batch_delta(graph: CSRGraph) -> float:
    """Pick ∆ for a batched multi-root sweep (``sssp_batch``).

    The per-lane fixed point is the exact shortest distance for any ∆
    (min over float64 path sums is order-free), so a batched sweep is
    free to bucket more finely than the single-root heuristic without
    perturbing results: epoch overhead is shared by all lanes.
    """
    return float(max(choose_delta(graph) * _BATCH_DELTA_FACTOR, 1e-9))


def resolve_delta(
    graph: CSRGraph,
    config: SSSPConfig | None = None,
    delta: float | None = None,
    batch: bool = False,
) -> float:
    """The bucket width a run uses: ``delta``, else ``config.delta``, else
    the adaptive choice (:func:`choose_batch_delta` for a batched sweep,
    :func:`choose_delta` otherwise) — checked by ``check_delta`` either
    way."""
    config = config if config is not None else SSSPConfig()
    if delta is None:
        delta = config.delta
    adaptive = delta is None
    if adaptive:
        delta = (choose_batch_delta if batch else choose_delta)(graph)
    return check_delta(delta, adaptive)
