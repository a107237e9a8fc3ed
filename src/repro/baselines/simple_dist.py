"""The reference-style distributed baseline.

This is the distributed ∆-stepping engine with every extreme-scale
optimization disabled — naive vertex-balanced block partition, one update
per relaxed edge on the wire, no hub delegation, one global exchange per
light sub-iteration, uncompressed indices.  It plays the role of the
"reference code" every Graph500 paper compares against: identical answers,
very different simulated cost.
"""

from __future__ import annotations

from repro import api
from repro.core.config import SSSPConfig
from repro.engine.driver import RunSummary
from repro.graph.csr import CSRGraph
from repro.simmpi.machine import MachineSpec

__all__ = ["simple_distributed_sssp"]


def simple_distributed_sssp(
    graph: CSRGraph,
    source: int,
    num_ranks: int = 8,
    machine: MachineSpec | None = None,
    delta: float | None = None,
) -> RunSummary:
    """Distributed ∆-stepping with the baseline (unoptimized) configuration."""
    config = SSSPConfig.baseline()
    if delta is not None:
        config = SSSPConfig(
            delta=delta,
            partition=config.partition,
            coalesce=config.coalesce,
            delegate_hubs=config.delegate_hubs,
            fuse_buckets=config.fuse_buckets,
            compressed_indices=config.compressed_indices,
        )
    return api.run(graph, source, engine="dist1d", num_ranks=num_ranks, machine=machine, config=config)
