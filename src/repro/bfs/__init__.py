"""Graph500 kernel 2: breadth-first search (extension).

The same research group's companion record ("Scaling graph traversal to
281 trillion edges with 40 million cores") is BFS on the same machine and
substrate.  This package implements the kernel on the library's existing
infrastructure: a direction-optimizing shared-memory BFS (Beamer's
top-down/bottom-up switch) and the spec's BFS validator.  The distributed
BFS is the vertex kernel :mod:`repro.engine.kernels.bfs` (bottom-up levels
allgather the frontier bitmap), run by ``repro.run(..., kernel="bfs")``.
"""

from repro.bfs.kernel import BFSResult, bfs
from repro.graph500.validation import validate_bfs

__all__ = ["BFSResult", "bfs", "validate_bfs"]
