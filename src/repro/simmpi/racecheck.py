"""Runtime race & arena-lifetime checker for the parallel backends.

Where :mod:`repro.lint`'s ``shm`` pack checks the *source* for ownership
hazards, this module checks the *running* backends: the invariants the
PR 8 zero-copy transport and the parked thread crew silently depend on
are instrumented and verified while a run executes —

* **arena generations (process backend)** — the
  :class:`~repro.simmpi.fabric.Wire` a rank returns from any team call
  reaches the parent as a handle into a double-buffered per-worker out
  arena, one per rank per call.  A handle minted at flip ``f`` is valid
  only while the worker's flip counter is below ``f + 2``; one more
  parked reply recycles the arena underneath it.  Each minted handle
  carries its generation, and reading (or re-shipping, inside an inbox
  that holds a run of it) a handle past its window raises
  :class:`StaleViewError` instead of silently reading bytes the next
  phase already overwrote.
* **arena lifetime (always on)** — closing the team invalidates every
  live handle it minted.  Touching one afterwards raises
  :class:`ArenaClosedError` — a clear diagnosis where the raw
  ``multiprocessing.shared_memory`` failure mode is a ``BufferError``
  during interpreter shutdown or a read from an unlinked mapping.
* **shared-write intervals (thread backend)** — rank objects share
  read-only arrays by identity (the owner map, partition boundaries).
  The tracker finds every ndarray reachable from two or more ranks'
  attributes at team construction, then block-checksums them around each
  ``parallel=True`` phase.  A changed block means a rank task wrote
  memory another concurrently running task can read, with no fabric
  barrier in between — the lockset-lite definition of a data race here,
  because phases are exactly the barrier-delimited regions.

Violations raise immediately (fail-fast, like the fabric sanitizer) and
are mirrored as ``cat="racecheck"`` tracer events; a completed run's
``report()`` lands in ``result.meta["racecheck"]`` with zero violations
by construction.
"""

from __future__ import annotations

import numpy as np

from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "ArenaClosedError",
    "RaceCheckViolation",
    "RaceChecker",
    "SharedArrayTracker",
    "StaleViewError",
]


class RaceCheckViolation(RuntimeError):
    """A runtime race-check invariant was broken; the run cannot be trusted."""


class StaleViewError(RaceCheckViolation):
    """A shared-memory wire handle was read after its arena generation
    was recycled by a later call on the same team."""


class ArenaClosedError(RuntimeError):
    """A shared-memory wire handle was read after the owning team closed
    and released its arenas.

    Deliberately *not* a :class:`RaceCheckViolation`: the lifetime guard
    is always on (it replaces a crash), while generation checks only run
    under ``racecheck=True``.
    """


class RaceChecker:
    """Violation plumbing + audit counters for one team (one run).

    One instance lives for one :class:`~repro.simmpi.executor.RankTeam`.
    The team's instrumentation increments the counters and calls
    :meth:`_violate` on a broken invariant; ``report()`` summarizes what
    was verified.  Any violation raises before the offending bytes are
    used, so a completed run audited by a checker has zero violations by
    construction.
    """

    def __init__(self, backend: str, tracer: Tracer | None = None) -> None:
        self.backend = backend
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.handles_minted = 0
        self.handles_checked = 0
        self.shared_arrays = 0
        self.regions_checked = 0
        if self.tracer.enabled:
            self.tracer.event("enabled", cat="racecheck", backend=backend)

    def _violate(self, kind: str, detail: str, **tags) -> None:
        if self.tracer.enabled:
            self.tracer.event(
                "violation", cat="racecheck", kind=kind, detail=detail, **tags
            )
        exc = StaleViewError if kind == "stale-view" else RaceCheckViolation
        raise exc(f"racecheck [{kind}]: {detail}")

    def report(self) -> dict:
        """Summary for engine meta / telemetry: what was verified."""
        return {
            "backend": self.backend,
            "handles_minted": self.handles_minted,
            "handles_checked": self.handles_checked,
            "shared_arrays": self.shared_arrays,
            "regions_checked": self.regions_checked,
            "violations": 0,  # violations raise; a report implies none
        }


class SharedArrayTracker:
    """Write-interval detector for identity-shared arrays (thread backend).

    At construction it scans every rank object's attributes for ndarrays
    reachable from two or more ranks — those are the arrays the executor
    contract declares read-only during parallel phases (the static-side
    analogue is the ``# repro: shared-ro:`` annotation).  Around each
    ``parallel=True`` call the team snapshots per-block checksums of
    every shared array; a block that changed across the phase is a write
    from inside a concurrent rank task with no intervening fabric
    barrier, reported with the array's attribute name and the
    approximate byte interval the write landed in.

    Checksums are block sums (``np.add.reduceat`` over a uint8 view), so
    a write that preserves a block's byte sum can in principle slip
    through — this is a race *detector*, not a memory model proof.
    """

    def __init__(self, checker: RaceChecker, ranks, blocks: int = 64) -> None:
        self.checker = checker
        seen: dict[int, list] = {}
        for rank_idx, rank in enumerate(ranks):
            for attr, value in vars(rank).items():
                if isinstance(value, np.ndarray) and value.nbytes > 0:
                    entry = seen.setdefault(id(value), [attr, value, []])
                    entry[2].append(rank_idx)
        self.arrays = []
        for attr, arr, rank_ids in seen.values():
            if len(rank_ids) < 2:
                continue
            n = arr.nbytes
            nblocks = min(blocks, n)
            # Block start offsets for reduceat: strictly increasing since
            # nblocks <= n, so every block is non-empty.
            edges = (np.arange(nblocks, dtype=np.int64) * n) // nblocks
            self.arrays.append((attr, arr, tuple(rank_ids), edges, n))
        checker.shared_arrays = len(self.arrays)
        self._snapshot: list[np.ndarray] | None = None

    def _checksums(self, arr: np.ndarray, edges: np.ndarray) -> np.ndarray:
        flat = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        return np.add.reduceat(flat.reshape(-1).view(np.uint8), edges, dtype=np.int64)

    def before_parallel(self) -> None:
        self._snapshot = [
            self._checksums(arr, edges) for _, arr, _, edges, _ in self.arrays
        ]

    def after_parallel(self, method: str) -> None:
        snapshot, self._snapshot = self._snapshot, None
        if snapshot is None:
            return
        self.checker.regions_checked += 1
        for before, (attr, arr, rank_ids, edges, nbytes) in zip(snapshot, self.arrays):
            after = self._checksums(arr, edges)
            changed = np.flatnonzero(before != after)
            if changed.size == 0:
                continue
            lo = int(edges[changed[0]])
            last = int(changed[-1])
            hi = int(edges[last + 1]) if last + 1 < len(edges) else nbytes
            self.checker._violate(
                "shared-write",
                f"parallel phase {method!r} wrote shared array {attr!r} "
                f"(reachable from ranks {list(rank_ids)}) in byte interval "
                f"~[{lo}, {hi}) with no intervening fabric barrier — "
                f"concurrent rank tasks may observe the torn write",
                method=method,
                attr=attr,
                lo=lo,
                hi=hi,
            )
