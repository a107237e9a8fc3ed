"""Global ↔ owned-local vertex index translation.

The owned-local engines store per-rank state (distances, bucket
membership, epoch flags) in arrays indexed by *local* vertex id — the
position of a vertex in the rank's sorted owned list — instead of dense
O(num_vertices) arrays.  :class:`LocalIndexMap` is the translation layer:
``to_local`` maps global ids of owned vertices to their local slot,
``to_global`` inverts it.

Contiguous partitions (``block``, ``edge_balanced``) translate with one
offset subtraction; scattered partitions (``hashed``) fall back to a
binary search over the sorted owned list.  Both directions preserve
order: owned vertices are sorted ascending, so sorting by local id is
the same order as sorting by global id — which is what keeps owned-local
engines byte-identical to their dense predecessors on the wire.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LocalIndexMap"]


class LocalIndexMap:
    """Bidirectional map between global vertex ids and owned-local slots.

    ``owned`` must be sorted ascending and unique (the contract of
    :meth:`repro.partition.Partition1D.vertices_of`).  Local id ``i``
    denotes global vertex ``owned[i]``.
    """

    __slots__ = ("owned", "size", "_lo", "_contiguous")

    # repro: index-space: self.owned[local]=global

    def __init__(self, owned: np.ndarray) -> None:
        owned = np.ascontiguousarray(owned, dtype=np.int64)
        if owned.size and np.any(np.diff(owned) <= 0):
            raise ValueError("owned vertex list must be sorted ascending and unique")
        self.owned = owned
        self.size = int(owned.size)
        self._lo = int(owned[0]) if owned.size else 0
        self._contiguous = (
            owned.size == 0 or int(owned[-1]) - self._lo + 1 == owned.size
        )

    @property
    def contiguous(self) -> bool:
        """Whether the owned set is one contiguous global range."""
        return self._contiguous

    def to_local(self, vertices: np.ndarray) -> np.ndarray:
        """Local slot of each (owned) global vertex id.

        The caller guarantees every input vertex is owned; feeding
        non-owned ids returns garbage slots.
        """
        # repro: index-space: vertices=global
        vertices = np.asarray(vertices, dtype=np.int64)
        if self._contiguous:
            return vertices - self._lo
        return np.searchsorted(self.owned, vertices)

    def to_global(self, local_ids: np.ndarray) -> np.ndarray:
        """Global id of each local slot."""
        # repro: index-space: local_ids=local
        local_ids = np.asarray(local_ids, dtype=np.int64)
        if self._contiguous:
            return local_ids + self._lo
        return self.owned[local_ids]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "contiguous" if self._contiguous else "scattered"
        return f"LocalIndexMap(size={self.size}, {kind})"
