"""Baseline SSSP algorithms the paper's contribution is measured against.

* :func:`dijkstra` — the sequential oracle (binary heap); exact and simple,
  but inherently serial.
* :func:`bellman_ford` — full-edge-sweep relaxation; embarrassingly parallel
  per round but does ``O(diameter)`` rounds over *all* edges.
* :func:`frontier_bellman_ford` — "chaotic relaxation": only out-edges of
  vertices whose distance changed are re-relaxed; the round structure of an
  unbucketed asynchronous code.

The reference-style distributed baseline — ∆-stepping with every
optimization disabled, what the optimized engine is compared to in the
ablation — is a configuration, not a function:
``repro.run(graph, source, config=SSSPConfig.baseline())``.
"""

from repro.baselines.bellman_ford import bellman_ford, frontier_bellman_ford
from repro.baselines.dijkstra import dijkstra

__all__ = [
    "bellman_ford",
    "dijkstra",
    "frontier_bellman_ford",
]
