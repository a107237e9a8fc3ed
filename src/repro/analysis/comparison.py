"""Engine comparison driver: every distributed layout on one workload.

Ties the evaluation together: the 1-D engine (optimized and baseline), the
1-D engine with hierarchical supernode aggregation, and the 2-D
checkerboard — identical answers, very different communication structure.
"""

from __future__ import annotations

import numpy as np

from repro import api
from repro.core.config import SSSPConfig
from repro.graph.csr import CSRGraph
from repro.graph500.roots import sample_roots
from repro.simmpi.machine import MachineSpec, small_cluster

__all__ = ["engine_comparison"]


def engine_comparison(
    graph: CSRGraph,
    num_ranks: int,
    num_roots: int = 2,
    seed: int = 2022,
    machine: MachineSpec | None = None,
) -> list[dict[str, object]]:
    """One row per engine; all runs verified identical before reporting."""
    machine = machine or small_cluster(num_ranks)
    roots = sample_roots(graph, num_roots, seed=seed)

    def _oned(config: SSSPConfig):
        return [
            api.run(graph, int(r), engine="dist1d", num_ranks=num_ranks, machine=machine, config=config)
            for r in roots
        ]

    engines: dict[str, list] = {
        "1-D optimized": _oned(SSSPConfig.optimized()),
        "1-D baseline": _oned(SSSPConfig.baseline()),
        "1-D hierarchical": _oned(SSSPConfig(hierarchical_aggregation=True)),
        "2-D checkerboard": [
            api.run(graph, int(r), engine="dist2d", num_ranks=num_ranks, machine=machine)
            for r in roots
        ],
    }
    reference = engines["1-D optimized"]
    for name, runs in engines.items():
        for ref_run, run in zip(reference, runs):
            if not np.array_equal(ref_run.result.dist, run.result.dist):
                raise AssertionError(f"engine {name!r} diverged from the reference")
    rows = []
    for name, runs in engines.items():
        rows.append(
            {
                "engine": name,
                "mean_sim_s": float(np.mean([r.modeled_time for r in runs])),
                "bytes": int(np.mean([r.comm["total_bytes"] for r in runs])),
                "supersteps": int(np.mean([r.comm["supersteps"] for r in runs])),
                "sync_s": float(
                    np.mean([r.time_breakdown.get("sync", 0.0) for r in runs])
                ),
            }
        )
    return rows
