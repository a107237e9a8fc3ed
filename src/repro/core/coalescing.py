"""Message coalescing: the sender-side reduction.

On a scale-free graph a single light phase can generate many updates for
the *same* remote vertex (every frontier vertex adjacent to it produces
one).  Sending them all wastes bandwidth; only the minimum can win at the
receiver.  :func:`dedup_min` reduces a batch of ``(target, dist)`` updates
to one entry per target — the send-side half of the paper-style coalescing,
whose receive-side half is the owner's scatter-min.  The 2-D engine, the
cc kernel and the ∆-stepping and ``bfs64`` kernels' ``(vertex, lane)``
folds reduce with it; the best-sent filter on top of the fold is
:mod:`repro.core.ghost_cache`.  The wire format itself (columns, counts,
the optional uint32 index compression) is the outbox's,
:mod:`repro.engine.rank`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dedup_min"]


def dedup_min(targets: np.ndarray, dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce updates to one minimum-value entry per target.

    Returns ``(unique_targets, min_values)`` with targets sorted ascending;
    both keep their dtype (int32 or int64 keys, float64 distances, int64
    labels).
    """
    targets = np.asarray(targets)
    dists = np.asarray(dists)
    if targets.shape != dists.shape:
        raise ValueError("targets/dists length mismatch")
    if targets.size == 0:
        return targets, dists
    # Introsort, not stable: ``min`` per target group is independent of
    # within-group order, and stable (timsort) costs ~5x more on int64.
    order = np.argsort(targets)
    st = targets[order]
    sd = dists[order]
    starts = np.empty(st.size, dtype=bool)
    starts[0] = True
    np.not_equal(st[1:], st[:-1], out=starts[1:])
    idx = np.flatnonzero(starts)
    return st[idx], np.minimum.reduceat(sd, idx)
