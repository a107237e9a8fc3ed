"""Compact ghost-vertex cache for the remote coalescing filter.

The ∆-stepping kernel's send-side coalescing filter remembers, per remote
("ghost") vertex and lane, the best candidate distance this rank has ever
sent toward the owner; a new candidate is transmitted only if it beats
that.
The dense implementation paid O(num_vertices) memory per rank to store
the cache inside the tentative-distance array.  :class:`GhostMinCache`
replaces it with a sorted key array sized by the rank's halo, not by the
whole vertex set, with zero slack (no hash-table load factor), and
``uint32`` keys when the vertex ids fit.

A cache is used in one of two ways:

* **fixed keys** (:meth:`GhostMinCache.fixed`) — the kernel's hot path.
  The keys are the fold keys (pre-routed target code times lanes plus
  lane) that reach the filter, known when the rank is built, so a folded
  record names its slot directly.
  :meth:`lower` scatter-mins a batch into its slots and marks the slots
  whose value dropped; :meth:`take_dirty` hands those back, ascending,
  once per exchange.  No batch is sorted or searched.
* **growing keys** — batches of global ids; lookups are one vectorized
  ``searchsorted`` and new keys go in with one merge.  :meth:`get` reads
  the current best value per key (``inf`` for absent keys),
  :meth:`update_min` folds ``min`` per key in, and :meth:`coalesce_batch`
  dedups a batch, returns the entries that beat the cached view and
  folds them in, all in one pass.

Over one exchange the two agree: a key comes out of :meth:`take_dirty`
iff some :meth:`coalesce_batch` of that exchange would have passed it,
with the minimum of the passed values.  Everything is deterministic: the
layout is the sorted key order.
"""

from __future__ import annotations

import numpy as np

from repro.core.coalescing import dedup_min

__all__ = ["GhostMinCache"]

_INF = np.inf


class GhostMinCache:
    """Sorted-array map ``vertex id -> float64 running minimum``.

    ``key_dtype`` picks the stored id width; callers pass ``uint32``
    when ``num_vertices`` fits, halving key bytes.  Keys must be
    non-negative vertex ids representable in that dtype.
    """

    __slots__ = ("_keys", "_vals", "_dirty")

    def __init__(self, key_dtype: np.dtype | type = np.int64) -> None:
        self._keys = np.empty(0, dtype=key_dtype)
        self._vals = np.empty(0, dtype=np.float64)
        self._dirty: np.ndarray | None = None

    @classmethod
    def fixed(cls, keys: np.ndarray) -> GhostMinCache:
        """A cache over ``keys`` (sorted, unique; held, not copied), every
        value ``inf``, written through the slot path only."""
        cache = cls(keys.dtype)
        cache._keys = keys
        cache._vals = np.full(keys.size, _INF, dtype=np.float64)
        cache._dirty = np.zeros(keys.size, dtype=bool)
        return cache

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return int(self._keys.size)

    def resident(self) -> dict[str, np.ndarray]:
        """The arrays the cache holds, by name — exact-fit, ``len`` entries each."""
        held = {"ghost_keys": self._keys, "ghost_vals": self._vals}
        if self._dirty is not None:
            held["ghost_dirty"] = self._dirty
        return held

    # -- lookup ------------------------------------------------------------

    def _locate(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(insertion positions, hit mask) for ``keys`` (any int dtype)."""
        if keys.dtype != self._keys.dtype:
            keys = keys.astype(self._keys.dtype)
        pos = np.searchsorted(self._keys, keys)
        hit = np.zeros(keys.shape, dtype=bool)
        inb = pos < self._keys.size
        hit[inb] = self._keys[pos[inb]] == keys[inb]
        return pos, hit

    def get(self, keys: np.ndarray) -> np.ndarray:
        """Current best value per key; ``inf`` where the key is absent."""
        keys = np.asarray(keys, dtype=np.int64)
        out = np.full(keys.shape, _INF, dtype=np.float64)
        if keys.size == 0 or self._keys.size == 0:
            return out
        pos, hit = self._locate(keys)
        out[hit] = self._vals[pos[hit]]
        return out

    # -- the slot path (fixed keys) -----------------------------------------

    def lower(self, slots: np.ndarray, values: np.ndarray) -> None:
        """Fold ``min`` of each value into its slot; mark the slots whose
        value dropped.  ``slots`` may repeat and come in any order."""
        before = self._vals[slots]
        np.minimum.at(self._vals, slots, values)
        self._dirty[slots[self._vals[slots] < before]] = True

    def take_dirty(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, values)`` of the slots lowered since the last call,
        ascending by key; clears the marks."""
        slots = np.flatnonzero(self._dirty)
        self._dirty[slots] = False
        return self._keys[slots], self._vals[slots]

    # -- writes ------------------------------------------------------------

    def update_min(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Fold ``min(values)`` per key into the cache (inserting new keys)."""
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if keys.size == 0:
            return
        uniq, batch_min = dedup_min(keys, values)
        self._fold(uniq, batch_min)

    def coalesce_batch(
        self, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dedup, filter against the cached view, and fold — one pass.

        Returns ``(kept_keys, kept_vals)``: one entry per distinct key
        whose batch minimum beats the value previously cached for it
        (``inf`` when absent) — exactly the entries worth transmitting,
        sorted by key.  The cache is left holding ``min(old, batch_min)``
        per key, the same state ``get`` + filter + ``update_min`` on the
        passing entries would leave: a batch entry failing the filter is
        ``>=`` the stored minimum and cannot lower it.
        """
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if keys.size == 0:
            return keys, values
        uniq, batch_min = dedup_min(keys, values)
        old = self._fold(uniq, batch_min)
        keep = batch_min < old
        return uniq[keep], batch_min[keep]

    def _fold(self, uniq: np.ndarray, batch_min: np.ndarray) -> np.ndarray:
        """Fold sorted-unique (key, min) pairs in; return pre-fold values."""
        if self._keys.size == 0:
            self._keys = uniq.astype(self._keys.dtype)
            self._vals = batch_min.copy()
            return np.full(uniq.shape, _INF, dtype=np.float64)
        pos, hit = self._locate(uniq)
        old = np.full(uniq.shape, _INF, dtype=np.float64)
        old[hit] = self._vals[pos[hit]]
        if hit.any():
            ph = pos[hit]
            self._vals[ph] = np.minimum(self._vals[ph], batch_min[hit])
        if not hit.all():
            new = ~hit
            # One merge: np.insert places each new key before its
            # insertion position, preserving sorted order.
            self._keys = np.insert(
                self._keys, pos[new], uniq[new].astype(self._keys.dtype)
            )
            self._vals = np.insert(self._vals, pos[new], batch_min[new])
        return old
