"""The shipped vertex kernels.

Whole-graph: connected components, PageRank, k-core — each ~100 lines
on the :class:`repro.engine.protocol.Kernel` interface with a sequential
oracle its result's ``validate()`` hook checks against exactly.

Batched multi-source: ``bfs64`` (bit-parallel BFS, one uint64 lane per
root) and ``sssp_batch`` (multi-root ∆-stepping over a distance matrix)
— constructed with a ``roots`` batch, validated per lane against the
single-root ``BFS`` (direction-optimizing) and one-lane ``sssp_batch``.
"""

from repro.engine.kernels.bfs import BFS
from repro.engine.kernels.bfs64 import BFS64
from repro.engine.kernels.cc import ConnectedComponents
from repro.engine.kernels.kcore import KCore, kcore_reference
from repro.engine.kernels.pagerank import PageRank, pagerank_reference
from repro.engine.kernels.sssp_batch import SSSPBatch

__all__ = [
    "BFS",
    "BFS64",
    "ConnectedComponents",
    "KCore",
    "PageRank",
    "SSSPBatch",
    "KERNEL_NAMES",
    "make_kernel",
    "kcore_reference",
    "pagerank_reference",
]

#: Registered kernel names, in presentation order.
KERNEL_NAMES = ("cc", "pagerank", "kcore", "bfs64", "sssp_batch")


def make_kernel(name: str, **params):
    """Construct a registered kernel by name; reject unknown names/params."""
    ctor = {
        "cc": ConnectedComponents,
        "pagerank": PageRank,
        "kcore": KCore,
        "bfs64": BFS64,
        "sssp_batch": SSSPBatch,
    }.get(name)
    if ctor is None:
        raise ValueError(
            f"unknown kernel {name!r}; registered kernels: "
            f"{', '.join(KERNEL_NAMES)}"
        )
    try:
        return ctor(**params)
    except TypeError:
        raise TypeError(
            f"kernel {name!r} got unexpected keyword arguments: "
            f"{sorted(params)}"
        ) from None
