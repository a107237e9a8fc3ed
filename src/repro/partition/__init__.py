"""Graph partitioning for the distributed SSSP engine.

Scale-free graphs defeat naive vertex-balanced 1-D partitioning: a rank that
happens to own a hub vertex also owns a constant fraction of all edges.  The
partitioners here reproduce the progression an extreme-scale Graph500 code
goes through:

* :func:`block1d` — contiguous, vertex-balanced (the naive baseline);
* :func:`block1d_edge_balanced` — contiguous, boundaries placed on the
  degree prefix-sum so *edge work* is balanced;
* :func:`hashed1d` — ownership by vertex hash (destroys locality, balances
  ownership in expectation); measured in F6a's partition-quality table
  only, never run;
* :class:`TwoDPartition` — 2-D decomposition of the adjacency matrix over a
  process grid (used for partition-quality analysis figures).

Hub *delegation* — splitting a hub's adjacency list across all ranks — is an
algorithmic concern and lives in :mod:`repro.core.delegation`; the
partitioners only expose the degree information it needs.
"""

from repro.partition.metrics import PartitionMetrics, evaluate_partition
from repro.partition.oned import (
    RUN_PARTITIONS,
    Partition1D,
    block1d,
    block1d_edge_balanced,
    hashed1d,
)
from repro.partition.twod import TwoDPartition, make_grid

__all__ = [
    "RUN_PARTITIONS",
    "Partition1D",
    "PartitionMetrics",
    "TwoDPartition",
    "block1d",
    "block1d_edge_balanced",
    "evaluate_partition",
    "hashed1d",
    "make_grid",
]
