"""The parametric studies: the same roots under every variant.

Every study of the reconstructed evaluation that answers one root sample
under several configurations (the ablation, the ∆ and design-choice
sweeps, the engine comparison, the communication, load-balance,
resilience and decomposition tables of :mod:`repro.analysis.experiments`)
goes through one loop, :func:`variant_rows`, which names every reading
once (:data:`READINGS`) and asserts that no variant changes an answer.
The builders here are parametric; the experiment registry calls them at
fixed parameters.  The two scaling studies vary the graph with the
machine, so they run the whole benchmark protocol per point instead.

Each builder returns plain row dictionaries, printable with
:func:`repro.graph500.report.render_table`.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.core.adaptive import choose_delta
from repro.core.config import SSSPConfig
from repro.core.delegation import auto_hub_threshold, select_hubs
from repro.graph.csr import CSRGraph
from repro.graph500.harness import RootRun, run_graph500_sssp, run_roots
from repro.graph500.roots import sample_roots
from repro.graph500.validation import ValidationReport, validate_sssp
from repro.simmpi.machine import MachineSpec, small_cluster

__all__ = [
    "READINGS", "ablation_study", "default_ablation_variants", "default_delta_grid",
    "delta_sweep", "engine_comparison", "fusion_cap_sweep", "hub_threshold_sweep",
    "strong_scaling", "variant_rows", "weak_scaling",
]

# -- the one variant x root loop ---------------------------------------------

#: Every reading a study row reports, by column name: the :class:`RootRun`
#: field it reads, the key inside that field (``None``: the field itself)
#: and the type of its mean over the roots.  An absent key reads 0: batched
#: lanes carry sweep counters, not the single-root relaxation detail (as
#: in ``BenchmarkResult.totals``).
READINGS: dict[str, tuple[str, str | None, type]] = {
    "mean_sim_s": ("simulated_seconds", None, float),
    "bytes": ("trace", "total_bytes", int),
    "messages": ("trace", "messages", int),
    "supersteps": ("trace", "supersteps", int),
    "allreduces": ("trace", "allreduces", int),
    "retry_bytes": ("trace", "bytes_retransmitted", int),
    "retries": ("trace", "retries", int),
    "comm_s": ("time_breakdown", "comm", float),
    "sync_s": ("time_breakdown", "sync", float),
    "work_imbalance": ("work_imbalance", None, float),
    "epochs": ("counters", "epochs", int),
    "edges_relaxed": ("counters", "edges_relaxed", int),
    "valid": ("validation", None, bool),  # every root's report ok, not a mean
}


def _reading(runs: list[RootRun], column: str) -> Any:
    field, key, kind = READINGS[column]
    values = [getattr(run, field) for run in runs]
    if kind is bool:
        return all(values)
    return kind(np.mean(values if key is None else [value.get(key, 0) for value in values]))


def variant_rows(
    graph: CSRGraph, roots: np.ndarray, variants: Iterable[SSSPConfig | dict[str, Any]],
    readings: Iterable[str], num_ranks: int, machine: MachineSpec | None = None,
    validate: bool = False,
) -> list[dict[str, Any]]:
    """Answer the same roots under every variant: one row of readings each.

    A variant is an :class:`SSSPConfig` or a dict of
    :func:`~repro.graph500.harness.run_roots` keywords (``engine=``,
    ``faults=``); ``readings`` names columns of :data:`READINGS`.  Rows come
    back in variant order, unlabelled.  Every variant must reproduce the
    first one's distances root for root: an optimization, a layout or a
    fault schedule changes cost, never answers.
    """
    machine = machine or small_cluster(num_ranks)
    reference: list[np.ndarray] | None = None
    rows = []
    for variant in variants:
        opts = {"config": variant} if isinstance(variant, SSSPConfig) else variant
        dists: list[np.ndarray] = []

        def witness(graph, answer):
            dists.append(answer.dist)
            return validate_sssp(graph, answer) if validate else ValidationReport(ok=True)

        runs = run_roots(graph, roots, num_ranks, machine, validate=witness, **opts)
        if reference is None:
            reference = dists
        elif not all(np.array_equal(a, b) for a, b in zip(reference, dists)):
            raise AssertionError(f"variant {variant!r} changed the distances")
        rows.append({column: _reading(runs, column) for column in readings})
    return rows


# -- the parametric study builders -------------------------------------------


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
    graph: CSRGraph, num_ranks: int, num_roots: int = 4, seed: int = 2022,
    machine: MachineSpec | None = None, variants: dict[str, SSSPConfig] | None = None,
    validate: bool = True,
) -> list[dict[str, object]]:
    """Every variant on identical roots, rows as given (F3).

    ``speedup_vs_baseline`` is relative to the ``baseline`` variant when
    present, otherwise to the slowest variant.
    """
    if variants is None:
        variants = default_ablation_variants()
    measured = variant_rows(
        graph, sample_roots(graph, num_roots, seed=seed), variants.values(),
        ("mean_sim_s", "bytes", "supersteps", "allreduces", "work_imbalance", "valid"),
        num_ranks, machine, validate,
    )
    rows = [{"variant": name, **row} for name, row in zip(variants, measured)]
    by_name = dict(zip(variants, rows))
    reference = by_name.get("baseline") or max(rows, key=lambda r: r["mean_sim_s"])
    for row in rows:
        row["speedup_vs_baseline"] = reference["mean_sim_s"] / row["mean_sim_s"]
    return rows


def default_delta_grid(graph: CSRGraph, points: int = 7) -> list[float]:
    """Log-spaced ∆ grid spanning two decades around the adaptive choice."""
    if points < 2:
        raise ValueError("need at least 2 grid points")
    center = choose_delta(graph)
    lo, hi = center / 10.0, min(center * 10.0, float(graph.weight.max()))
    return list(np.geomspace(lo, hi, points))


def delta_sweep(
    graph: CSRGraph, num_ranks: int, deltas: list[float] | None = None, num_roots: int = 4,
    seed: int = 2022, machine: MachineSpec | None = None, validate: bool = False,
) -> list[dict[str, object]]:
    """One row per ∆, plus the adaptive choice, tagged (F4).

    Too small and the superstep count explodes (synchronization-bound); too
    large and relaxations are wasted on re-improved vertices.
    """
    if deltas is None:
        deltas = default_delta_grid(graph)
    points = [(float(d), "") for d in deltas] + [(float(choose_delta(graph)), "adaptive")]
    measured = variant_rows(
        graph, sample_roots(graph, num_roots, seed=seed),
        [SSSPConfig(delta=delta) for delta, _ in points],
        ("mean_sim_s", "epochs", "supersteps", "edges_relaxed", "bytes"),
        num_ranks, machine, validate,
    )
    return [{"delta": d, "tag": tag, **row} for (d, tag), row in zip(points, measured)]


def hub_threshold_sweep(
    graph: CSRGraph, num_ranks: int, thresholds: list[int], num_roots: int = 2,
    seed: int = 2022, machine: MachineSpec | None = None,
) -> list[dict[str, object]]:
    """How aggressive should delegation be? (E3a)

    Lower thresholds delegate more vertices: better balance, more broadcast
    rounds.  One row per threshold plus the no-delegation and auto references.
    """
    auto = auto_hub_threshold(graph, num_ranks)
    # label -> (degree threshold in effect, config); 0 delegates nothing.
    configs = {
        "off": (0, SSSPConfig(delegate_hubs=False)),
        f"auto ({auto})": (auto, SSSPConfig()),
        **{str(t): (t, SSSPConfig(hub_degree_threshold=t)) for t in thresholds},
    }
    measured = variant_rows(
        graph, sample_roots(graph, num_roots, seed=seed), [c for _, c in configs.values()],
        ("mean_sim_s", "work_imbalance", "bytes", "supersteps"), num_ranks, machine,
    )
    return [
        {
            "threshold": label,
            "hubs": int(select_hubs(graph, threshold).size) if threshold else 0,
            **row,
            "work_imbalance": round(row["work_imbalance"], 3),
        }
        for (label, (threshold, _)), row in zip(configs.items(), measured)
    ]


def fusion_cap_sweep(
    graph: CSRGraph, num_ranks: int, caps: list[int], num_roots: int = 2,
    seed: int = 2022, machine: MachineSpec | None = None,
) -> list[dict[str, object]]:
    """How deep should local bucket draining go? (E3b)  Cap 1 is fusion off."""
    measured = variant_rows(
        graph, sample_roots(graph, num_roots, seed=seed),
        [SSSPConfig(fusion_cap=cap) for cap in caps],
        ("supersteps", "allreduces", "mean_sim_s"), num_ranks, machine,
    )
    return [{"fusion_cap": cap, **row} for cap, row in zip(caps, measured)]


def engine_comparison(
    graph: CSRGraph, num_ranks: int, num_roots: int = 2, seed: int = 2022,
    machine: MachineSpec | None = None,
) -> list[dict[str, object]]:
    """One row per distributed layout, identical answers asserted (E3c)."""
    engines = {
        "1-D optimized": SSSPConfig.optimized(),
        "1-D baseline": SSSPConfig.baseline(),
        "1-D hierarchical": SSSPConfig(hierarchical_aggregation=True),
        "2-D checkerboard": {"engine": "dist2d"},
    }
    measured = variant_rows(
        graph, sample_roots(graph, num_roots, seed=seed), engines.values(),
        ("mean_sim_s", "bytes", "supersteps", "sync_s"), num_ranks, machine,
    )
    return [{"engine": name, **row} for name, row in zip(engines, measured)]


def _scaling(weak, base_scale, node_counts, num_roots, seed, machine, configs, validate, row):
    """Both scaling studies: the whole protocol per (variant, node count).

    ``row(name, nodes, result, first)`` makes the table row; ``first`` is
    the variant's result at the first node count.
    """
    study = "weak" if weak else "strong"
    if not node_counts:
        raise ValueError(f"{study} scaling needs at least one node count, got {node_counts!r}")
    for nodes in node_counts:
        if nodes < 1 or (weak and nodes & (nodes - 1)):
            kind = "power-of-two" if weak else "positive"
            raise ValueError(f"{study} scaling needs {kind} node counts, got {nodes}")
    if configs is None:
        configs = {"optimized": SSSPConfig.optimized(), "baseline": SSSPConfig.baseline()}
    machine = machine or small_cluster(max(node_counts))
    rows = []
    for name, config in configs.items():
        first = None
        for nodes in node_counts:
            result = run_graph500_sssp(
                base_scale + (int(np.log2(nodes)) if weak else 0), num_ranks=nodes, seed=seed,
                num_roots=num_roots, machine=machine, config=config, validate=validate,
            )
            first = result if first is None else first
            rows.append(row(name, nodes, result, first))
    return rows


def weak_scaling(
    scale_per_node: int, node_counts: list[int], num_roots: int = 4, seed: int = 2022,
    machine: MachineSpec | None = None, configs: dict[str, SSSPConfig] | None = None,
    validate: bool = False,
) -> list[dict[str, object]]:
    """Grow the machine with the problem: scale = scale_per_node + log2(P) (F1).

    One row per (variant, node count): harmonic-mean simulated TEPS and the
    parallel efficiency relative to the first node count.
    """
    return _scaling(
        True, scale_per_node, node_counts, num_roots, seed, machine, configs, validate,
        lambda name, nodes, result, first: {
            "variant": name, "nodes": nodes, "scale": result.scale,
            "hmean_TEPS": result.teps.hmean,
            "efficiency": result.teps.hmean / (first.teps.hmean * nodes),
            "mean_sim_s": result.mean_simulated_seconds,
            # The first sampled root's traffic, not the mean over roots.
            "bytes": result.roots[0].trace["total_bytes"],
            "supersteps": result.roots[0].trace["supersteps"],
        },
    )


def strong_scaling(
    scale: int, node_counts: list[int], num_roots: int = 4, seed: int = 2022,
    machine: MachineSpec | None = None, configs: dict[str, SSSPConfig] | None = None,
    validate: bool = False,
) -> list[dict[str, object]]:
    """Fix the problem, grow the machine; speedup is against the first node count (F2)."""
    return _scaling(
        False, scale, node_counts, num_roots, seed, machine, configs, validate,
        lambda name, nodes, result, first: {
            "variant": name, "nodes": nodes, "scale": scale,
            "mean_sim_s": result.mean_simulated_seconds,
            "speedup": first.mean_simulated_seconds / result.mean_simulated_seconds,
            "ideal": nodes / node_counts[0],
            "hmean_TEPS": result.teps.hmean,
        },
    )
