"""Distributed graph construction (Graph500 kernel 1, distributed form).

At record scale the edge list never exists in one memory: every rank
generates its deterministic slice of the Kronecker stream
(:func:`repro.graph.kronecker.kronecker_edge_slice`), symmetrizes locally,
and shuffles each directed edge to the rank owning its source vertex; each
rank then builds CSR rows for its owned range.  The shuffle is the
all-to-all that dominates kernel-1 time on a real machine, so it runs
through the SimMPI fabric and is measured/charged like any other exchange.

The result is bit-identical to the shared-memory
:func:`repro.graph.csr.build_csr` of the full generator output — verified
by tests — which is exactly the property that lets record submissions
validate kernel 1 distributedly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.rank import Outbox, OwnerRouter
from repro.graph.csr import CSRGraph, build_csr
from repro.graph.kronecker import KroneckerSpec, _permutation, kronecker_edge_slice
from repro.graph.types import EdgeList
from repro.partition import block1d
from repro.simmpi.fabric import Fabric
from repro.simmpi.machine import MachineSpec, small_cluster
from repro.utils.timing import Timer

__all__ = ["distributed_construction", "DistBuildResult"]


@dataclass
class DistBuildResult:
    """Outcome of distributed kernel 1."""

    graph: CSRGraph  # assembled global CSR (identical to shared-memory build)
    num_ranks: int
    simulated_seconds: float
    shuffle_bytes: int
    wall_seconds: float
    edges_per_rank: np.ndarray

    @property
    def edge_imbalance(self) -> float:
        mean = self.edges_per_rank.mean()
        return float(self.edges_per_rank.max() / mean) if mean else 1.0


def distributed_construction(
    spec: KroneckerSpec,
    num_ranks: int = 8,
    machine: MachineSpec | None = None,
    hierarchical: bool = False,
) -> DistBuildResult:
    """Generate + shuffle + build the benchmark graph across ranks."""
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    machine = machine or small_cluster(max(num_ranks, 1))
    fabric = Fabric(machine, num_ranks, hierarchical=hierarchical)
    part = block1d(spec.num_vertices, num_ranks)
    router = OwnerRouter(part)
    wall = Timer()
    with wall:
        # 1. Each rank generates its slice (no communication: the stream is
        # a pure function of (seed, edge index)).  The vertex relabeling
        # permutation is shared across all slices — on a real machine every
        # rank derives the identical permutation from the seed; recomputing
        # the O(n log n) argsort per rank would charge P times the work.
        permutation = _permutation(spec)
        bounds = np.linspace(0, spec.num_edges, num_ranks + 1).astype(np.int64)
        slices = [
            kronecker_edge_slice(
                spec, int(bounds[r]), int(bounds[r + 1]), permutation=permutation
            )
            for r in range(num_ranks)
        ]
        # 2. Symmetrize locally and shuffle by source-vertex owner.
        wires = []
        gen_edges = np.zeros(num_ranks, dtype=np.float64)
        for r, sl in enumerate(slices):
            src = np.concatenate([sl.src, sl.dst])
            dst = np.concatenate([sl.dst, sl.src])
            w = np.concatenate([sl.weight, sl.weight])
            gen_edges[r] = src.size
            # The router's stable owner split is the wire byte order, which
            # is also the CSR build order: the dense build reproduces.
            shuffle = Outbox(router, ("src", "dst", "weight"))
            shuffle.route(src, dst, w)
            wires.append(shuffle.flush())
        inboxes = fabric.exchange(wires)
        # The fabric's ledger holds what each rank packed, self-records too.
        fabric.charge_compute(edges=gen_edges, bytes=fabric.take_packed())
        # 3. Each rank builds CSR rows for its owned contiguous range.
        local_graphs: list[CSRGraph] = []
        edges_per_rank = np.zeros(num_ranks, dtype=np.int64)
        for r, inbox in enumerate(inboxes):
            if inbox is None:
                el = EdgeList(
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64),
                    spec.num_vertices,
                )
            else:
                el = EdgeList(inbox["src"], inbox["dst"], inbox["weight"], spec.num_vertices)
            local = build_csr(el, symmetrize=False)
            local_graphs.append(local)
            edges_per_rank[r] = local.num_edges
        fabric.charge_compute(
            edges=edges_per_rank.astype(np.float64),
            bytes=np.zeros(num_ranks),
        )
        # 4. Assemble the global CSR (owned ranges are contiguous).
        indptr = np.zeros(spec.num_vertices + 1, dtype=np.int64)
        adj_parts: list[np.ndarray] = []
        w_parts: list[np.ndarray] = []
        offset = 0
        for r, local in enumerate(local_graphs):
            lo, hi = int(router.starts[r]), int(router.starts[r + 1])
            if lo == hi:
                continue
            counts = np.diff(local.indptr)[lo:hi]
            indptr[lo + 1 : hi + 1] = offset + np.cumsum(counts)
            take_lo, take_hi = local.indptr[lo], local.indptr[hi]
            adj_parts.append(local.adj[take_lo:take_hi])
            w_parts.append(local.weight[take_lo:take_hi])
            offset += int(counts.sum())
        # Fill gaps for empty ranks (indptr must be non-decreasing).
        indptr = np.maximum.accumulate(indptr)
        graph = CSRGraph(
            indptr,
            np.concatenate(adj_parts) if adj_parts else np.empty(0, dtype=np.int64),
            np.concatenate(w_parts) if w_parts else np.empty(0, dtype=np.float64),
            spec.num_vertices,
        )
    return DistBuildResult(
        graph=graph,
        num_ranks=num_ranks,
        simulated_seconds=fabric.clock.total,
        shuffle_bytes=fabric.trace.total_bytes,
        wall_seconds=wall.seconds,
        edges_per_rank=edges_per_rank,
    )
