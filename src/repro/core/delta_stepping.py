"""Shared-memory ∆-stepping (Meyer & Sanders 2003), fully vectorized.

The algorithm the distributed engine parallelizes.  Work proceeds in
*epochs* (one per non-empty bucket, in index order); inside an epoch, the
current bucket is drained through *light phases* — each relaxes only edges
with ``w < ∆``, which may re-insert vertices into the same bucket — until
the bucket stays empty, after which all *heavy* edges (``w >= ∆``) of every
vertex settled this epoch are relaxed once.

Each light phase maps to one global synchronization in the distributed
version, so the counters recorded here (epochs, phases, relaxations,
re-insertions) are exactly the quantities the paper's optimizations attack.
"""

from __future__ import annotations

import numpy as np

from repro.core.adaptive import resolve_delta
from repro.core.buckets import BucketQueue
from repro.core.relaxation import expand, scatter_min
from repro.core.result import SSSPResult, derive_parents
from repro.engine.validation import check_source
from repro.graph.csr import CSRGraph
from repro.obs.tracer import NULL_TRACER, Tracer

def _delta_stepping(
    graph: CSRGraph,
    source: int,
    delta: float | None = None,
    max_phases: int | None = None,
    tracer: Tracer | None = None,
) -> SSSPResult:
    """Exact SSSP from ``source`` by bucketed ∆-stepping.

    ``delta=None`` selects ∆ adaptively (:func:`repro.core.adaptive.resolve_delta`).
    ``max_phases`` is a safety valve for tests; the algorithm terminates on
    its own for positive weights.

    ``tracer`` (optional) receives one wall-clock ``epoch`` span per bucket
    (there is no simulated clock in the shared-memory kernel).
    """
    if tracer is None:
        tracer = NULL_TRACER
    n = graph.num_vertices
    check_source(graph, source)
    delta = resolve_delta(graph, delta=delta)

    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    buckets = BucketQueue(dist, delta)
    buckets.insert(np.array([source], dtype=np.int64))

    epochs = 0
    phases = 0
    relaxed = 0
    reinsertions = 0
    in_epoch = np.zeros(n, dtype=bool)  # members of R, the epoch's settled set

    while True:
        k = buckets.min_live_bucket()
        if k is None:
            break
        epochs += 1
        in_epoch[:] = False
        settled_parts: list[np.ndarray] = []
        with tracer.span("epoch", cat="engine", epoch=epochs, bucket=k) as ep:
            epoch_relaxed = relaxed
            epoch_phases = phases
            # -- light phases: drain bucket k to empty.  A vertex whose
            # distance improves while still in bucket k is drained *again* so
            # its light edges see the smaller distance (Meyer-Sanders
            # re-processing).
            while True:
                frontier = buckets.drain(k)
                if frontier.size == 0:
                    break
                if max_phases is not None and phases >= max_phases:
                    raise RuntimeError(f"exceeded max_phases={max_phases}")
                phases += 1
                fresh = frontier[~in_epoch[frontier]]
                in_epoch[fresh] = True
                if fresh.size:
                    settled_parts.append(fresh)
                targets, cands, scanned = expand(
                    graph, frontier, dist, weight_max=delta
                )
                relaxed += scanned
                improved = scatter_min(dist, targets, cands)
                if improved.size:
                    idx = buckets.bucket_index(improved)
                    reinsertions += int(np.count_nonzero(idx == k))
                    buckets.insert(improved)
            # -- heavy phase: settled vertices relax their heavy edges once --
            if settled_parts:
                settled = np.concatenate(settled_parts)
                targets, cands, scanned = expand(
                    graph, settled, dist, weight_min=delta
                )
                relaxed += scanned
                improved = scatter_min(dist, targets, cands)
                buckets.insert(improved)
            ep.tag(
                edges=relaxed - epoch_relaxed,
                phases=phases - epoch_phases,
                settled=int(sum(p.size for p in settled_parts)),
            )

    result = SSSPResult(
        source=source,
        dist=dist,
        parent=derive_parents(graph, dist, source),
    )
    result.counters.add("epochs", epochs)
    result.counters.add("phases", phases)
    result.counters.add("edges_relaxed", relaxed)
    result.counters.add("reinsertions", reinsertions)
    result.counters.add("bucket_ops", buckets.ops)
    result.meta["algorithm"] = "delta_stepping"
    result.meta["delta"] = float(delta)
    return result
