"""The rank substrate: what every simulated rank does besides its algorithm.

Two rank classes run on the superstep driver — the 2-D grid and the
vertex-kernel substrate (whose kernels include 1-D ∆-stepping and
direction-optimizing BFS) — and both do the same four things around their
algorithm.  Each lives here once:

* :class:`OwnerRouter` — who owns a vertex, and the arrangement of a
  record batch into destination order, which is the wire byte order;
* :class:`Outbox` — record batches queued until the next exchange and
  flushed as one :class:`~repro.simmpi.fabric.Wire`: one send buffer with
  a count per destination (the fabric, not the rank, counts its bytes);
* :meth:`Rank.take_step_work` — the edge readout the cost model charges
  per superstep, next to the bytes the fabric saw the rank pack;
* :meth:`Rank.export_final` — the answer arrays plus the memory
  accounting (``nbytes`` / ``graph_nbytes`` / ``lengths``), derived from
  the one dict of resident arrays a rank declares.
"""

from __future__ import annotations

import numpy as np

from repro.partition import Partition1D
from repro.simmpi.fabric import Wire

__all__ = ["Outbox", "OwnerRouter", "Rank", "wire_id_dtype"]

Columns = tuple[np.ndarray, ...]


def wire_id_dtype(num_vertices: int, compress: bool) -> np.dtype:
    """The dtype vertex ids travel in: ``uint32`` iff index compression is
    on and every id of the graph fits, ``int64`` otherwise.

    A third of an update record is its index, so halving it saves ~17% of
    the bytes; at paper scale (2^42 vertices) ids do not fit and the rule
    refuses.  An :class:`Outbox` is declared with the result and narrows
    at the flush.
    """
    if compress and num_vertices <= np.iinfo(np.uint32).max:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


class OwnerRouter:
    """Owner lookup of a run partition plus the destination-order sort.

    Built once per run and shared read-only by every rank.  Rank ``r``
    owns the ids ``[starts[r], starts[r + 1])`` (``starts`` holds the
    ``P + 1`` boundaries), so the owner of an id is a binary search over
    the inner boundaries.  The keys come back in the narrowest unsigned
    dtype that holds a rank, so the stable sort in :meth:`split` is a
    radix pass.
    """

    def __init__(self, partition: Partition1D) -> None:
        self.num_ranks = partition.num_ranks
        self._key = np.min_scalar_type(self.num_ranks - 1)
        # repro: index-space: self.starts[rank]=global
        self.starts = partition.starts
        self._inner = self.starts[1:-1]

    def owners(self, targets: np.ndarray) -> np.ndarray:
        """Owner rank of each global vertex id, as narrow unsigned keys."""
        # repro: index-space: targets=global
        return np.searchsorted(self._inner, targets, side="right").astype(self._key)

    def split(self, columns: Columns) -> tuple[Columns, np.ndarray]:
        """Arrange one batch of records in destination order.

        ``columns[0]`` holds the global target ids.  Returns the columns
        sorted stably by owner — ranks ascending, each rank's records in
        batch order, which is the wire byte order — and ``counts``, how
        many records each rank receives.

        A batch whose owners never decrease (the ghost cache's flush leaves
        its records sorted by target) is already that sort's output, so it
        is returned as it stands.  Any other batch is permuted first.
        """
        # repro: wire-path
        # repro: index-space: targets=global
        targets = columns[0]
        if self.num_ranks == 1:
            return columns, np.array([targets.size], dtype=np.int64)
        owners = self.owners(targets)
        if np.any(owners[1:] < owners[:-1]):
            order = np.argsort(owners, kind="stable")
            owners = owners[order]
            columns = tuple(c[order] for c in columns)
        # Where each rank's run begins and the last one ends; keys of the
        # owners' own dtype keep searchsorted from widening the whole batch.
        bounds = np.empty(self.num_ranks + 1, dtype=np.int64)
        bounds[0] = 0
        bounds[1:-1] = np.searchsorted(
            owners, np.arange(1, self.num_ranks, dtype=owners.dtype)
        )
        bounds[-1] = targets.size
        return columns, bounds[1:] - bounds[:-1]


class Outbox:
    """Records queued until the next exchange, flushed as one wire.

    ``fields`` names the columns of one record, the id column first.
    Batches are laid end to end in the order they were routed, so within
    a destination the wire byte order is the order the algorithm produced
    the records in.  ``id_dtype`` (see :func:`wire_id_dtype`) is the wire
    dtype of the id column; the other columns travel as routed.
    """

    def __init__(
        self,
        router: OwnerRouter,
        fields: tuple[str, ...],
        id_dtype: np.dtype | None = None,
    ) -> None:
        self.router = router
        self.fields = fields
        self.id_dtype = id_dtype
        self._batches: list[Columns] = []

    def route(self, targets: np.ndarray, *values: np.ndarray) -> None:
        """Queue a batch of records keyed by global id."""
        if targets.size:
            self._batches.append((targets, *values))

    def flush(self, to: np.ndarray | None = None) -> Wire | None:
        """Pack what is queued into one wire; ``None`` when that is nothing.

        By default every record goes to the owner of its id.  ``to``
        (an array of ranks) broadcasts instead: the buffer holds one copy
        of the records and every rank in ``to`` receives all of them.
        """
        batches, self._batches = self._batches, []
        if not batches or (to is not None and to.size == 0):
            return None
        if len(batches) == 1:
            columns = batches[0]
        else:
            columns = tuple(np.concatenate(c) for c in zip(*batches))
        if to is None:
            columns, counts = self.router.split(columns)
            displs = None
        else:
            counts = np.zeros(self.router.num_ranks, dtype=np.int64)
            counts[to] = columns[0].size
            displs = np.zeros_like(counts)
        if self.id_dtype is not None:
            columns = (columns[0].astype(self.id_dtype, copy=False), *columns[1:])
        return Wire(self.fields, columns, counts, displs)


class Rank:
    """Base of every per-rank state object the superstep driver runs.

    Subclasses keep their algorithm; this class keeps the owned range, the
    step-work counter the cost model reads and the final export.  The
    rank owns the global ids ``[lo, hi)``: owned-local slot ``i`` is
    global id ``lo + i``.  A subclass declares :meth:`resident` and
    :meth:`answer` and bumps ``step_edges`` as it scans edges.
    """

    def __init__(self, rank: int, router: OwnerRouter) -> None:
        self.rank = rank
        # repro: shared-ro: self.router, self.owner_table
        self.router = router
        # The one array all ranks share, held as a direct attribute because
        # that is where the thread backend's race checker looks for arrays
        # reachable from two ranks.
        self.owner_table = router.starts
        self.lo = int(router.starts[rank])
        self.hi = int(router.starts[rank + 1])
        self.step_edges = 0

    def to_local(self, ids: np.ndarray) -> np.ndarray:
        """Owned-local slot of each owned global id."""
        # repro: index-space: ids=global
        return ids - self.lo

    def take_step_work(self) -> int:
        """Return and reset the edges scanned since the last call."""
        edges, self.step_edges = self.step_edges, 0
        return edges

    def resident(self) -> dict[str, dict[str, np.ndarray]]:
        """Every array this rank keeps resident, by name, grouped by role.

        ``vertex`` arrays size with the owned vertices (the lengths the
        owned-local memory gate checks), ``halo`` arrays (optional group)
        with the remote targets of the rank's edges, fixed at build,
        ``edges`` are the rank's share of the input adjacency and weights,
        ``other`` is everything else.
        """
        raise NotImplementedError

    def answer(self) -> dict:
        """The arrays the engine assembles the global answer from."""
        raise NotImplementedError

    def export_final(self) -> dict:
        """Final read-out: the answer plus the driver's memory accounting.

        Rank state may live in a worker process, so this is a team call
        like any other phase.
        """
        groups = self.resident()
        out = self.answer()
        out["nbytes"] = sum(
            int(a.nbytes) for group in groups.values() for a in group.values()
        )
        out["graph_nbytes"] = sum(int(a.nbytes) for a in groups["edges"].values())
        out["lengths"] = {k: int(a.size) for k, a in groups["vertex"].items()}
        if "halo" in groups:
            out["halo_lengths"] = {k: int(a.size) for k, a in groups["halo"].items()}
        return out
