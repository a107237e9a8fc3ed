"""∆-parameter sensitivity sweep (experiment F4).

Sweeps ∆ over a log grid and records the cost drivers at each point: too
small and the epoch/superstep count explodes (synchronization-bound); too
large and relaxations are wasted on re-improved vertices
(computation-bound).  The adaptive choice is run alongside and should land
near the bottom of the U.
"""

from __future__ import annotations

import numpy as np

from repro.core.adaptive import choose_delta
from repro.core.config import SSSPConfig
from repro.graph.csr import CSRGraph
from repro.graph500.harness import run_roots
from repro.graph500.roots import sample_roots
from repro.simmpi.machine import MachineSpec, small_cluster

__all__ = [
    "delta_sweep",
    "default_delta_grid",
    "hub_threshold_sweep",
    "fusion_cap_sweep",
]


def default_delta_grid(graph: CSRGraph, points: int = 7) -> list[float]:
    """Log-spaced ∆ grid spanning two decades around the adaptive choice."""
    if points < 2:
        raise ValueError("need at least 2 grid points")
    center = choose_delta(graph)
    lo, hi = center / 10.0, min(center * 10.0, float(graph.weight.max()))
    return list(np.geomspace(lo, hi, points))


def delta_sweep(
    graph: CSRGraph,
    num_ranks: int,
    deltas: list[float] | None = None,
    num_roots: int = 4,
    seed: int = 2022,
    machine: MachineSpec | None = None,
    validate: bool = False,
) -> list[dict[str, object]]:
    """One row per ∆ (plus the adaptive choice, tagged)."""
    machine = machine or small_cluster(num_ranks)
    if deltas is None:
        deltas = default_delta_grid(graph)
    adaptive = choose_delta(graph)
    roots = sample_roots(graph, num_roots, seed=seed)
    rows: list[dict[str, object]] = []
    for delta, tag in [(d, "") for d in deltas] + [(adaptive, "adaptive")]:
        config = SSSPConfig(delta=float(delta))
        runs = run_roots(graph, roots, num_ranks, machine, config, validate)
        rows.append(
            {
                "delta": float(delta),
                "tag": tag,
                "mean_sim_s": float(np.mean([r.simulated_seconds for r in runs])),
                # .get with 0: batched lanes carry sweep counters, not the
                # full single-root relaxation detail (see
                # BenchmarkResult.total_counters for the same tolerance).
                "epochs": int(np.mean([r.counters.get("epochs", 0) for r in runs])),
                "supersteps": int(np.mean([r.trace["supersteps"] for r in runs])),
                "edges_relaxed": int(
                    np.mean([r.counters.get("edges_relaxed", 0) for r in runs])
                ),
                "bytes": int(np.mean([r.trace["total_bytes"] for r in runs])),
            }
        )
    return rows


def hub_threshold_sweep(
    graph: CSRGraph,
    num_ranks: int,
    thresholds: list[int],
    num_roots: int = 2,
    seed: int = 2022,
    machine: MachineSpec | None = None,
) -> list[dict[str, object]]:
    """Design-choice ablation: how aggressive should delegation be?

    Lower thresholds delegate more vertices — better balance, more
    broadcast rounds.  One row per threshold plus the no-delegation and
    auto-threshold references.
    """
    from repro.core.delegation import auto_hub_threshold, select_hubs

    machine = machine or small_cluster(num_ranks)
    roots = sample_roots(graph, num_roots, seed=seed)
    configs: list[tuple[str, SSSPConfig]] = [
        ("off", SSSPConfig(delegate_hubs=False)),
        (f"auto ({auto_hub_threshold(graph, num_ranks)})", SSSPConfig()),
    ] + [(str(t), SSSPConfig(hub_degree_threshold=t)) for t in thresholds]
    rows = []
    for label, config in configs:
        runs = run_roots(graph, roots, num_ranks, machine, config, False)
        threshold = (
            config.hub_degree_threshold
            if config.hub_degree_threshold
            else (auto_hub_threshold(graph, num_ranks) if config.delegate_hubs else 0)
        )
        num_hubs = int(select_hubs(graph, threshold).size) if threshold else 0
        rows.append(
            {
                "threshold": label,
                "hubs": num_hubs,
                "mean_sim_s": float(np.mean([r.simulated_seconds for r in runs])),
                "work_imbalance": round(float(np.mean([r.work_imbalance for r in runs])), 3),
                "bytes": int(np.mean([r.trace["total_bytes"] for r in runs])),
                "supersteps": int(np.mean([r.trace["supersteps"] for r in runs])),
            }
        )
    return rows


def fusion_cap_sweep(
    graph: CSRGraph,
    num_ranks: int,
    caps: list[int],
    num_roots: int = 2,
    seed: int = 2022,
    machine: MachineSpec | None = None,
) -> list[dict[str, object]]:
    """Design-choice ablation: how deep should local bucket draining go?

    Cap 1 is equivalent to fusion off; large caps drain local chains fully.
    """
    machine = machine or small_cluster(num_ranks)
    roots = sample_roots(graph, num_roots, seed=seed)
    rows = []
    for cap in caps:
        config = SSSPConfig(fusion_cap=cap)
        runs = run_roots(graph, roots, num_ranks, machine, config, False)
        rows.append(
            {
                "fusion_cap": cap,
                "supersteps": int(np.mean([r.trace["supersteps"] for r in runs])),
                "allreduces": int(np.mean([r.trace["allreduces"] for r in runs])),
                "mean_sim_s": float(np.mean([r.simulated_seconds for r in runs])),
            }
        )
    return rows
