"""The rank substrate: what every simulated rank does besides its algorithm.

Four rank classes run on the superstep driver — 1-D ∆-stepping, the 2-D
grid, distributed BFS and the vertex-kernel substrate — and all four do
the same four things around their algorithm.  Each lives here once:

* :class:`OwnerRouter` — who owns a vertex, and the cut of a record batch
  into per-destination pieces in wire byte order;
* :class:`Outbox` — per-destination part lists packed into one
  :class:`~repro.simmpi.fabric.Message` per destination, bytes counted at
  the flush;
* :meth:`Rank.take_step_work` — the ``(edges, bytes)`` readout the cost
  model charges per superstep;
* :meth:`Rank.export_final` — the answer arrays plus the memory
  accounting (``nbytes`` / ``graph_nbytes`` / ``lengths``), derived from
  the one dict of resident arrays a rank declares.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.partition import Partition1D
from repro.simmpi.fabric import Message

__all__ = ["Outbox", "OwnerRouter", "Rank"]

Columns = tuple[np.ndarray, ...]


class OwnerRouter:
    """Owner lookup of a 1-D partition plus the per-destination split.

    Built once per run and shared read-only by every rank.  The lookup is
    decided by the partition: when its owner array never decreases, every
    rank owns one contiguous id range (``starts`` holds the ``P + 1``
    boundaries) and the owner is a binary search over the inner ones; any
    other partition (``hashed``) gathers from the dense owner array.
    Either way the keys come back in the narrowest unsigned dtype that
    holds a rank, so the stable sort in :meth:`split` is a radix pass.
    ``table`` is whichever array the lookup reads.
    """

    def __init__(self, partition: Partition1D) -> None:
        self.num_ranks = partition.num_ranks
        self._key = np.min_scalar_type(self.num_ranks - 1)
        owner = partition.owner_array
        self.starts: np.ndarray | None = None
        if not np.any(owner[1:] < owner[:-1]):
            # repro: index-space: self.starts[rank]=global
            self.starts = np.concatenate(([0], np.cumsum(partition.counts())))
            self._inner = self.starts[1:-1]
            self.table = self.starts
        else:
            self.table = owner.astype(self._key)

    def owners(self, targets: np.ndarray) -> np.ndarray:
        """Owner rank of each global vertex id, as narrow unsigned keys."""
        # repro: index-space: targets=global
        if self.starts is None:
            return self.table[targets]
        return np.searchsorted(self._inner, targets, side="right").astype(self._key)

    def split(
        self, targets: np.ndarray, values: Columns
    ) -> list[tuple[int, np.ndarray, Columns]]:
        """Cut one batch of records into per-destination pieces.

        Returns ``(rank, targets, values)`` for every rank that receives
        something, ranks ascending, each piece in batch order — the slices
        a stable sort by owner would produce, which is the wire byte
        order.

        A batch whose owners never decrease (a sender-side fold leaves its
        records sorted by target) is already that sort's output, so it is
        cut where it stands and the pieces are views.  Any other batch is
        permuted first.
        """
        # repro: wire-path
        # repro: index-space: targets=global
        if targets.size == 0:
            return []
        if self.num_ranks == 1:
            return [(0, targets, values)]
        owners = self.owners(targets)
        if np.any(owners[1:] < owners[:-1]):
            order = np.argsort(owners, kind="stable")
            owners = owners[order]
            targets = targets[order]
            values = tuple(v[order] for v in values)
        first, last = int(owners[0]), int(owners[-1])
        if first == last:
            return [(first, targets, values)]
        # Where each later rank's run begins; keys of the owners' own dtype
        # keep searchsorted from widening the whole batch.
        cuts = np.searchsorted(
            owners, np.arange(first + 1, last + 1, dtype=owners.dtype)
        )
        bounds = [0, *cuts.tolist(), targets.size]
        return [
            (dst, targets[b:e], tuple(v[b:e] for v in values))
            for dst, (b, e) in enumerate(zip(bounds, bounds[1:]), first)
            if e > b
        ]


class Outbox:
    """Records queued per destination until the next exchange.

    ``fields`` names the columns of one record (``vertex`` first).  Parts
    for one destination are concatenated in insertion order at the flush,
    so the wire byte order is the order the algorithm produced them in.
    """

    def __init__(self, router: OwnerRouter, fields: tuple[str, ...]) -> None:
        self.router = router
        self.fields = fields
        self._parts: dict[int, list[Columns]] = {}

    def put(self, dst: int, columns: Columns) -> None:
        """Queue one part (a tuple of equal-length columns) for ``dst``."""
        self._parts.setdefault(dst, []).append(columns)

    def route(self, targets: np.ndarray, *values: np.ndarray) -> None:
        """Queue a batch keyed by global target id, split by owner."""
        for dst, part, part_values in self.router.split(targets, values):
            self.put(dst, (part, *part_values))

    def flush(
        self, pack: Callable[[Columns, int], Message] | None = None
    ) -> tuple[dict[int, Message], int]:
        """Pack what is queued: ``({dst: message}, wire bytes)``, dst ascending.

        ``pack(columns, num_parts)`` builds the message from a
        destination's concatenated columns — the place for a sender-side
        fold or an index narrowing; the default names the columns after
        ``fields`` as they are.
        """
        parts, self._parts = self._parts, {}
        out: dict[int, Message] = {}
        nbytes = 0
        for dst in sorted(parts):
            queued = parts[dst]
            if len(queued) == 1:
                columns = queued[0]
            else:
                columns = tuple(np.concatenate(c) for c in zip(*queued))
            if pack is None:
                msg = Message(**dict(zip(self.fields, columns)))
            else:
                msg = pack(columns, len(queued))
            nbytes += msg.nbytes
            out[dst] = msg
        return out, nbytes


class Rank:
    """Base of every per-rank state object the superstep driver runs.

    Subclasses keep their algorithm; this class keeps the step-work
    counters the cost model reads and the final export.  A subclass
    declares :meth:`resident` and :meth:`answer` and bumps ``step_edges``
    as it scans edges; ``step_bytes`` grows at every outbox flush.
    """

    def __init__(self, rank: int, router: OwnerRouter) -> None:
        self.rank = rank
        # repro: shared-ro: self.router, self.owner_table
        self.router = router
        # The one array all ranks share, held as a direct attribute because
        # that is where the thread backend's race checker looks for arrays
        # reachable from two ranks.
        self.owner_table = router.table
        self.step_edges = 0
        self.step_bytes = 0

    def flush_outbox(
        self, outbox: Outbox, pack: Callable[[Columns, int], Message] | None = None
    ) -> dict[int, Message]:
        """Flush ``outbox`` for the next exchange, charging its wire bytes."""
        out, nbytes = outbox.flush(pack)
        self.step_bytes += nbytes
        return out

    def take_step_work(self) -> tuple[int, int]:
        """Return and reset ``(edges, bytes)`` since the last call."""
        work = (self.step_edges, self.step_bytes)
        self.step_edges = 0
        self.step_bytes = 0
        return work

    def resident(self) -> dict[str, dict[str, np.ndarray]]:
        """Every array this rank keeps resident, by name, grouped by role.

        ``vertex`` arrays size with the owned vertices (the lengths the
        owned-local memory gate checks), ``halo`` arrays (optional group)
        with the remote vertices touched, ``edges`` are the rank's share
        of the input adjacency and weights, ``other`` is everything else.
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
