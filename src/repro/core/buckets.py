"""The ∆-stepping bucket structure.

Vertices are grouped by ``floor(dist / delta)``.  The structure is lazy, the
way high-performance implementations are: insertions append vertex ids to a
per-bucket list of numpy arrays without removing stale entries; staleness is
resolved when a bucket is drained, by re-checking each entry's *current*
bucket index against the bucket it sits in.  This avoids per-insert random
access entirely — inserts are O(1) array appends, drains are one vectorized
filter.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BucketQueue"]


class BucketQueue:
    """Lazy bucket priority structure over tentative distances."""

    __slots__ = ("delta", "_buckets", "_dist", "ops")

    def __init__(self, dist: np.ndarray, delta: float) -> None:
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = float(delta)
        self._dist = dist  # shared, live view of the algorithm's distances
        self._buckets: dict[int, list[np.ndarray]] = {}
        self.ops = 0  # bucket maintenance operations, charged to the cost model

    def bucket_index(self, vertices: np.ndarray) -> np.ndarray:
        """Current bucket of each vertex; -1 for non-finite distances."""
        d = self._dist[vertices]
        finite = np.isfinite(d)
        out = np.full(d.shape, -1, dtype=np.int64)
        out[finite] = np.floor_divide(d[finite], self.delta).astype(np.int64)
        return out

    def insert(self, vertices: np.ndarray) -> None:
        """Append vertices to the buckets their current distances select."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return
        idx = self.bucket_index(vertices)
        self.ops += int(vertices.size)
        if idx.min() == idx.max():
            self._buckets.setdefault(int(idx[0]), []).append(vertices)
            return
        order = np.argsort(idx, kind="stable")
        sidx = idx[order]
        sv = vertices[order]
        cuts = np.flatnonzero(np.diff(sidx)) + 1
        for chunk_idx, chunk in zip(
            sidx[np.concatenate(([0], cuts))], np.split(sv, cuts)
        ):
            self._buckets.setdefault(int(chunk_idx), []).append(chunk)

    def min_bucket(self) -> int | None:
        """Smallest bucket index that may contain live entries."""
        while self._buckets:
            k = min(self._buckets)
            if any(a.size for a in self._buckets[k]):
                return k
            del self._buckets[k]
        return None

    def drain(self, k: int) -> np.ndarray:
        """Remove and return the *live* members of bucket ``k``.

        Live means: finite distance whose current bucket index is still
        ``k``, deduplicated.  Stale entries are discarded for good.
        """
        parts = self._buckets.pop(k, [])
        if not parts:
            return np.empty(0, dtype=np.int64)
        cand = np.unique(np.concatenate(parts))
        self.ops += int(sum(a.size for a in parts))
        live = np.isfinite(self._dist[cand])
        live &= self.bucket_index(cand) == k
        return cand[live]

    def min_live_bucket(self) -> int | None:
        """Smallest bucket with at least one live entry; drops dead buckets.

        A bucket can hold only stale entries (vertices whose distance
        improved into a later... earlier bucket is impossible, so: into a
        *different* bucket since insertion).  Processing such a bucket would
        waste a whole epoch of global synchronization, so it is skipped —
        the skip scan is charged as bucket maintenance work.
        """
        while self._buckets:
            k = min(self._buckets)
            parts = self._buckets[k]
            size = int(sum(a.size for a in parts))
            if size and self.has_live(k):
                return k
            self.ops += size
            del self._buckets[k]
        return None

    def has_live(self, k: int) -> bool:
        """``live_count(k) > 0`` without the dedup: ``floor(d / delta)``
        of an infinite ``d`` is never ``k``, so no finiteness mask either."""
        return any(
            bool(np.any(np.floor_divide(self._dist[part], self.delta) == k))
            for part in self._buckets.get(k, [])
        )

    def live_count(self, k: int) -> int:
        """Number of live entries in bucket ``k`` without draining it."""
        parts = self._buckets.get(k, [])
        if not parts:
            return 0
        cand = np.unique(np.concatenate(parts))
        live = np.isfinite(self._dist[cand])
        live &= self.bucket_index(cand) == k
        return int(np.count_nonzero(live))

    def empty(self) -> bool:
        return self.min_bucket() is None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        sizes = {k: sum(a.size for a in v) for k, v in sorted(self._buckets.items())}
        return f"BucketQueue(delta={self.delta}, raw_sizes={sizes})"
