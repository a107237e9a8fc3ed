"""Optimization ablation driver (experiments F3 and F5).

Runs the same roots on the same graph under a family of configurations —
the full stack, each optimization removed individually, and the bare
baseline — and reports per-variant simulated time, traffic, sync rounds and
work imbalance.  This is the quantitative decomposition of where the
paper-class speedup comes from.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SSSPConfig
from repro.graph.csr import CSRGraph
from repro.graph500.harness import run_roots
from repro.graph500.roots import sample_roots
from repro.simmpi.machine import MachineSpec, small_cluster

__all__ = ["ablation_study", "default_ablation_variants"]


def default_ablation_variants() -> dict[str, SSSPConfig]:
    """The standard ablation family: full stack minus one at a time."""
    full = SSSPConfig.optimized()
    return {
        "optimized": full,
        "-coalescing": full.without("coalesce"),
        "-delegation": full.without("delegate_hubs"),
        "-fusion": full.without("fuse_buckets"),
        "-compression": full.without("compressed_indices"),
        "-edge_balance": full.without("edge_balanced"),
        "baseline": SSSPConfig.baseline(),
    }


def ablation_study(
    graph: CSRGraph,
    num_ranks: int,
    num_roots: int = 4,
    seed: int = 2022,
    machine: MachineSpec | None = None,
    variants: dict[str, SSSPConfig] | None = None,
    validate: bool = True,
) -> list[dict[str, object]]:
    """Run every variant on identical roots; rows sorted as given.

    ``speedup`` is relative to the ``baseline`` variant when present,
    otherwise to the slowest variant.
    """
    if variants is None:
        variants = default_ablation_variants()
    machine = machine or small_cluster(num_ranks)
    roots = sample_roots(graph, num_roots, seed=seed)
    raw: dict[str, dict[str, object]] = {}
    for name, config in variants.items():
        runs = run_roots(graph, roots, num_ranks, machine, config, validate)
        sim = float(np.mean([r.simulated_seconds for r in runs]))
        raw[name] = {
            "variant": name,
            "mean_sim_s": sim,
            "bytes": int(np.mean([r.trace["total_bytes"] for r in runs])),
            "supersteps": int(np.mean([r.trace["supersteps"] for r in runs])),
            "allreduces": int(np.mean([r.trace["allreduces"] for r in runs])),
            "work_imbalance": float(np.mean([r.work_imbalance for r in runs])),
            "valid": all(r.validation.ok for r in runs),
        }
    reference = raw.get("baseline") or max(raw.values(), key=lambda r: r["mean_sim_s"])
    ref_time = float(reference["mean_sim_s"])
    rows = []
    for name in variants:
        row = raw[name]
        row["speedup_vs_baseline"] = ref_time / float(row["mean_sim_s"])
        rows.append(row)
    return rows
