"""The reconstructed evaluation: one registry of experiments.

Every table and figure of DESIGN.md §4 (T1-T3, F1-F11, E1-E3) is one entry
of :data:`EXPERIMENTS`: an id, a title, a builder of ``{table name: rows}``
run at a full or a smoke profile, and a check returning ``{claim: held}``,
the expected shape of the result.  :func:`run_experiment` makes an entry one
strict-JSON document; ``repro experiment <id>`` prints and writes it, and the
full-scale documents are ``benchmarks/results/<ID>.json``.  The parametric
builders and their one variant x root loop are :mod:`repro.analysis.studies`.

The tables are exact functions of the code (modeled time, counted bytes; only
F8 and F9 carry host wall-clock columns, named per entry), so their gate is
equality: ``tests/analysis/test_experiments.py`` pins every smoke build row
for row.  Shape claims hold at the full profile only and are checked there.
A table is a list of row dicts, one row as a dict (a ``key: value`` block) or
a caption string: :func:`repro.graph500.report.render_tables` prints them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from repro import api
from repro.analysis.attribution import PhaseAttribution
from repro.analysis.memory import estimate_memory, max_feasible_scale
from repro.analysis.projection import fit_projection_model
from repro.analysis import studies
from repro.baselines import bellman_ford, dijkstra, frontier_bellman_ford
from repro.bfs import bfs
from repro.core.config import SSSPConfig
from repro.graph.csr import CSRGraph, build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph.synth import grid_graph, random_graph, star_graph
from repro.graph.types import EdgeList
from repro.graph500.harness import run_graph500_sssp
from repro.graph500.report import render_output_block
from repro.graph500.roots import sample_roots
from repro.graph500.validation import validate_bfs, validate_sssp
from repro.obs import Tracer
from repro.partition import TwoDPartition, block1d, block1d_edge_balanced, evaluate_partition
from repro.partition import hashed1d, make_grid
from repro.simmpi.machine import laptop_machine, small_cluster, sunway_exascale
from repro.utils.timing import Timer

__all__ = ["EXPERIMENTS", "Experiment", "run_experiment"]

SEED = 2022  #: Kronecker seed of every experiment
ROOT_SEED = 7  #: root sample of the studies built here (the builders of studies.py default to 2022)


@dataclass(frozen=True)
class Experiment:
    """One table or figure of the reconstructed evaluation (DESIGN.md §4)."""

    id: str
    title: str
    build: Callable[..., dict[str, Any]]  #: ``build(*profile)`` -> ``{table name: table}``
    check: Callable[..., dict[str, bool]]  #: ``check(*tables)`` -> ``{claim: held}``, at ``full``
    full: tuple = ()  #: the parameters EXPERIMENTS.md reports
    smoke: tuple = ()  #: seconds-long (scale <= 10, <= 4 ranks); pinned by tier-1
    wall_columns: tuple[str, ...] = ()  #: host wall-clock readings, not reproducible


def _kron(scale: int) -> CSRGraph:
    return build_csr(generate_kronecker(scale, seed=SEED))


def _by(rows: list[dict], key: str, column: str | None = None, **where: Any) -> dict:
    """``{row[key]: row}``, or ``row[column]``, over the rows whose cells equal ``where``."""
    rows = [r for r in rows if all(r[k] == v for k, v in where.items())]
    return {r[key]: r if column is None else r[column] for r in rows}


def _t1(scales, ranks, num_roots):
    machine = sunway_exascale()
    model, _ = fit_projection_model(scales=scales, num_ranks=ranks, num_roots=num_roots)
    raw = partial(model.project, machine=machine, efficiency=1.0)
    derated = partial(model.project, machine=machine, efficiency=0.25)
    feasible = max_feasible_scale(machine.max_nodes, machine)
    return {
        "T1: projected Graph500 SSSP runs (modeled, sunway-exascale)": [
            {**raw(s, nodes).row(), "GTEPS (derated 25%)": round(float(derated(s, nodes).gteps), 1)}
            for s, nodes in [(32, 4096), (36, 16384), (39, 65536), (42, machine.max_nodes)]
        ],
        "T1 fit": (
            f"fitted coefficients: relax/edge={model.relax_per_edge:.2f}, "
            f"bytes/edge={model.bytes_per_edge:.2f}, "
            f"supersteps(s)={model.steps_intercept:.1f}+{model.steps_slope:.2f}*s, "
            f"imbalance={model.work_imbalance:.2f} (measured at scales {scales}, {ranks} ranks)"
        ),
        f"T1b: memory feasibility (max feasible scale = {feasible}; record ran at 42)": [
            estimate_memory(s, machine.max_nodes, machine).row() for s in (41, 42, 43, 44)
        ],
    }


def _t1_check(rows, _, memory):
    return {
        "the headline run uses over 40 million cores": rows[-1]["cores"] > 40_000_000,
        "it holds at least 1.4e14 directed edges": float(rows[-1]["edges"]) >= 1.4e14,
        "scale 42 fits the full machine's memory": _by(memory, "scale", "fits")[42],
    }


def _t2():
    machines = (sunway_exascale(), small_cluster(64), laptop_machine())
    return {"T2: machine models": [machine.describe() for machine in machines]}


def _t2_check(rows):
    return {"the Sunway-class model has over 40 million cores": rows[0]["total cores"] > 40_000_000}


def _t3(kscale, side, n, size, ranks):
    graphs = {
        f"kronecker-{kscale}": _kron(kscale),
        f"grid-{side}x{side}": build_csr(grid_graph(side, side, seed=1)),
        f"random-{size}": build_csr(random_graph(n, 10 * n, seed=1)),
        f"star-{size}": build_csr(star_graph(n, weight=0.5)),
    }
    algorithms = {
        "dijkstra": dijkstra,
        "bellman_ford": bellman_ford,
        "delta_stepping": lambda g, r: api.run(g, r, engine="shared").result,
        f"distributed({ranks})": lambda g, r: api.run(g, r, num_ranks=ranks).result,
    }
    verdicts = []  # (graph, algorithm, validates)
    for gname, graph in graphs.items():
        root = int(np.argmax(graph.out_degree))
        for aname, algorithm in algorithms.items():
            verdicts.append((gname, aname, validate_sssp(graph, algorithm(graph, root)).ok))
        answer = api.run(graph, root, kernel="bfs", num_ranks=ranks).result
        verdicts.append((gname, f"bfs({ranks})", validate_bfs(graph, answer).ok))
    # A tree edge closes over the lightest of its parallel CSR entries.
    multi = build_csr(random_graph(n, 10 * n, seed=1), dedup=False)
    answer = api.run(multi, int(np.argmax(multi.out_degree)), engine="shared").result
    gname = f"random-{size}, parallel edges kept"
    verdicts.append((gname, "delta_stepping", validate_sssp(multi, answer).ok))
    # Rejection half: one corrupted cell per validation rule.
    gname, kron = next(iter(graphs.items()))
    src = int(np.argmax(kron.out_degree))
    good = api.run(kron, src, engine="shared").result
    reached = np.flatnonzero(good.reached)
    v = int(reached[reached != src][4])
    stranger = int(np.setdiff1d(reached, np.append(kron.neighbors(v), v))[0])
    for name, (field, index, value) in {
        "root dist nonzero": ("dist", src, 0.25),
        "vertex dist lowered": ("dist", v, good.dist[v] * 0.5),
        "vertex dist raised": ("dist", v, good.dist[v] + 0.9),
        "parent dropped": ("parent", v, -1),
        "parent to non-neighbor": ("parent", v, stranger),
        "parent out of range": ("parent", v, kron.num_vertices + 7),
    }.items():
        bad = api.run(kron, src, engine="shared").result
        getattr(bad, field)[index] = value
        verdicts.append((gname, f"CORRUPTED: {name}", validate_sssp(kron, bad).ok))
    columns = ("graph", "algorithm", "validates")
    return {"T3: validation coverage": [dict(zip(columns, verdict)) for verdict in verdicts]}


def _t3_check(rows):
    verdicts = {corrupt: [] for corrupt in (False, True)}
    for row in rows:
        verdicts[row["algorithm"].startswith("CORRUPTED")].append(row["validates"])
    return {
        "every correct answer validates": all(verdicts[False]),
        "each of the six corruptions is rejected": verdicts[True] == [False] * 6,
    }


def _f1(per_node, nodes, num_roots):
    rows = studies.weak_scaling(per_node, nodes, num_roots=num_roots)
    return {f"F1: weak scaling (scale {per_node} per node, simulated)": rows}


def _f1_check(rows):
    opt, base = (_by(rows, "nodes", variant=v)[16] for v in ("optimized", "baseline"))
    return {
        "at 16 nodes optimized moves fewer bytes than baseline": opt["bytes"] < base["bytes"],
        "and sustains at least 0.8x its TEPS": opt["hmean_TEPS"] >= 0.8 * base["hmean_TEPS"],
    }


def _f2(scale, nodes, num_roots):
    rows = studies.strong_scaling(scale, nodes, num_roots=num_roots)
    return {f"F2: strong scaling (scale {scale}, simulated)": rows}


def _f2_check(rows):
    speedup = _by(rows, "nodes", "speedup", variant="optimized")
    # One lane scans each edge about once, so one node is cheap and the
    # curve turns over early: communication dominates from 8 nodes.
    return {
        "4 nodes speed the optimized variant up by over 1.25x": speedup[4] > 1.25,
        "32 nodes may turn over but do not collapse (speedup > 0.4)": speedup[32] > 0.4,
    }


def _f3(scale, ranks, num_roots):
    rows = studies.ablation_study(_kron(scale), num_ranks=ranks, num_roots=num_roots, validate=True)
    return {f"F3: optimization ablation (scale {scale}, {ranks} ranks)": rows}


def _f3_check(rows):
    wire, skew = _by(rows, "variant", "bytes"), _by(rows, "variant", "work_imbalance")
    return {
        "every variant's answers validate": all(r["valid"] for r in rows),
        # Every pass already folds one record per (vertex, lane); the
        # best-sent filter is what coalescing adds on top.
        "the best-sent filter cuts a third of the traffic":
            wire["optimized"] * 1.5 < wire["-coalescing"],
        # Announcement rounds cost supersteps and buy no balance back
        # until hub state travels by collective (ROADMAP item 3).
        "delegation leaves the balance within 0.01 of none":
            abs(skew["optimized"] - skew["-delegation"]) <= 0.01,
        "the baseline moves the most data": wire["baseline"] >= wire["optimized"],
    }


def _f4(scale, ranks, num_roots):
    rows = studies.delta_sweep(_kron(scale), num_ranks=ranks, num_roots=num_roots)
    return {f"F4: delta sweep (scale {scale}, {ranks} ranks, simulated)": rows}


def _f4_check(rows):
    *grid, adaptive = rows
    small, large, fastest = grid[0], grid[-1], min(r["mean_sim_s"] for r in grid)
    return {
        "the smallest delta takes the most supersteps": small["supersteps"] > large["supersteps"],
        "the largest relaxes the most edges": large["edges_relaxed"] > small["edges_relaxed"],
        "adaptive is within 2x of the best grid point": adaptive["mean_sim_s"] <= 2.0 * fastest,
    }


def _f5(scales, ranks, num_roots):
    family = studies.default_ablation_variants()
    names = ("optimized", "-coalescing", "-compression", "-fusion", "baseline")
    rows = []
    for scale in scales:
        graph = _kron(scale)
        measured = studies.variant_rows(
            graph, sample_roots(graph, num_roots, seed=ROOT_SEED), [family[n] for n in names],
            ("bytes", "messages", "supersteps", "allreduces", "comm_s", "sync_s"), ranks,
        )
        rows += [{"scale": scale, "variant": n, **row} for n, row in zip(names, measured)]
    return {f"F5: measured communication breakdown ({ranks} ranks)": rows}


def _f5_check(rows):
    claims = {}
    for scale in (14, 16):
        wire, steps = (_by(rows, "variant", c, scale=scale) for c in ("bytes", "supersteps"))
        claims |= {
            f"scale {scale}: the best-sent filter cuts a third of the bytes":
                wire["optimized"] * 1.5 <= wire["-coalescing"],
            f"scale {scale}: compression shaves bytes": wire["optimized"] < wire["-compression"],
            f"scale {scale}: fusion adds no superstep": steps["optimized"] <= steps["-fusion"],
        }
    return claims


def _f6(scale, ranks, num_roots):
    graph = _kron(scale)
    n = graph.num_vertices
    static = [
        evaluate_partition(graph, part).row()
        for part in (block1d(n, ranks), block1d_edge_balanced(graph, ranks), hashed1d(n, ranks))
    ]
    # 2-D reference point: edge-granularity balance (the vertex metrics do not apply).
    grid = make_grid(ranks)
    edges = EdgeList(np.repeat(np.arange(n), graph.out_degree), graph.adj, graph.weight, n)
    counts = TwoDPartition(n, *grid).edge_counts(edges)
    static.append({
        "partition": "2d ({}x{})".format(*grid), "ranks": ranks, "vertex_imbalance": None,
        "edge_imbalance": round(float(counts.max() / counts.mean()), 3), "cut_fraction": None,
    })
    configs = {
        "block + no delegation": SSSPConfig(partition="block", delegate_hubs=False),
        "edge_balanced + no delegation": SSSPConfig(delegate_hubs=False),
        "edge_balanced + delegation": SSSPConfig(),
    }
    roots = sample_roots(graph, num_roots, seed=ROOT_SEED)
    measured = studies.variant_rows(graph, roots, configs.values(), ("work_imbalance",), ranks)
    return {
        f"F6a: static partition quality (scale {scale}, {ranks} ranks)": static,
        "F6b: dynamic relaxation-work imbalance": [
            {"configuration": name, "work_imbalance": round(row["work_imbalance"], 3)}
            for name, row in zip(configs, measured)
        ],
    }


def _f6_check(static, dynamic):
    edges = _by(static, "partition", "edge_imbalance")
    work = _by(dynamic, "configuration", "work_imbalance")
    return {
        "edge-balanced blocks fix the static edge imbalance":
            edges["block1d_edge_balanced"] < edges["block1d"],
        "edge balance plus delegation balances the relaxation work":
            work["edge_balanced + delegation"] <= work["block + no delegation"],
    }


def _f7(scale, ranks):
    graph = _kron(scale)
    src = int(np.argmax(graph.out_degree))
    algorithms = {
        "dijkstra (oracle)": dijkstra(graph, src),
        "bellman_ford": bellman_ford(graph, src),
        "chaotic (frontier BF)": frontier_bellman_ford(graph, src),
        "delta_stepping": api.run(graph, src, engine="shared").result,
    }
    engines = {
        "optimized distributed": api.run(graph, src, num_ranks=ranks),
        "reference-style distributed": api.run(
            graph, src, num_ranks=ranks, config=SSSPConfig.baseline()
        ),
    }
    oracle = algorithms["dijkstra (oracle)"].dist
    answers = {**algorithms, **{name: run.result for name, run in engines.items()}}
    for name, answer in answers.items():
        if not np.array_equal(answer.dist, oracle):
            raise AssertionError(f"{name} disagrees with Dijkstra")
    return {
        f"F7a: shared-memory algorithm comparison (scale {scale})": [
            {
                "algorithm": name, "edges_relaxed": c["edges_relaxed"],
                "rounds/phases": c.get("rounds") or c.get("phases") or c.get("settled"),
            }
            for name, c in ((name, answer.counters) for name, answer in algorithms.items())
        ],
        f"F7b: distributed engines (scale {scale}, {ranks} ranks)": [
            {
                "engine": name, "sim_s": run.modeled_time, "bytes": run.comm["total_bytes"],
                "supersteps": run.comm["supersteps"],
            }
            for name, run in engines.items()
        ],
    }


def _f7_check(shared, engines):
    relaxed, wire = _by(shared, "algorithm", "edges_relaxed"), _by(engines, "engine", "bytes")
    return {
        "delta-stepping relaxes fewer edges than Bellman-Ford":
            relaxed["delta_stepping"] < relaxed["bellman_ford"],
        "the optimized engine moves fewer bytes than the reference-style one":
            wire["optimized distributed"] < wire["reference-style distributed"],
    }


def _f8(scales):
    rows = []
    for scale in scales:
        generation, construction = Timer(), Timer()
        with generation:
            edges = generate_kronecker(scale, seed=SEED)
        with construction:
            graph = build_csr(edges)
        rows.append({
            "scale": scale, "edges": edges.num_edges,
            "gen_s": round(generation.seconds, 3),
            "gen_Medges/s": round(edges.num_edges / generation.seconds / 1e6, 1),
            "build_s": round(construction.seconds, 3),
            "build_Medges/s": round(edges.num_edges / construction.seconds / 1e6, 1),
            "csr_edges": graph.num_edges,
        })
    return {"F8: kernel-1 throughput (wall time, this host)": rows}


def _f8_check(rows):
    small, large = rows[0]["gen_Medges/s"], rows[-1]["gen_Medges/s"]
    return {
        "near-linear generation: the largest scale runs within 10x of the smallest's rate":
            large > small / 10,
    }


def _f9(scale, ranks, num_roots):
    result = run_graph500_sssp(scale=scale, num_ranks=ranks, num_roots=num_roots)
    points = (0, 10, 25, 50, 75, 90, 100)
    deciles = np.percentile([r.teps for r in result.roots], points)
    block = render_output_block(result).splitlines()
    return {
        "F9 output block": dict(line.split(": ", 1) for line in block),
        f"F9: per-root simulated TEPS deciles (scale {scale}, {ranks} ranks)": [{
            **{f"p{p}": value for p, value in zip(points, deciles)},
            "mean": result.teps.mean, "stddev": result.teps.stddev,
        }],
    }


def _f9_check(block, deciles):
    (spread,) = (row["stddev"] / row["mean"] for row in deciles)
    return {
        "all 64 roots validate": (block["NBFS"], block["validation"]) == ("64", "PASSED"),
        "one giant component: low TEPS spread across roots (stddev/mean < 0.5)": spread < 0.5,
    }


def _f10(scale, ranks):
    graph = _kron(scale)
    tracer = Tracer()
    root = int(sample_roots(graph, 1, seed=ROOT_SEED)[0])
    run = api.run(graph, root, num_ranks=ranks, tracer=tracer)
    # Timeline and CommTrace are fed by the same fabric call sites: equal byte for byte.
    series = np.array(PhaseAttribution.from_records(tracer.events).wavefront(), dtype=np.int64)
    total = series.sum()
    if total != run.comm["total_bytes"]:
        raise AssertionError("telemetry timeline and CommTrace disagree on wire bytes")
    return {
        f"F10: wire bytes per superstep (scale {scale}, {ranks} ranks)": [
            {
                "step": step, "bytes": int(b), "share_%": round(100.0 * b / max(total, 1), 1),
                "bar": "#" * int(40 * b / max(series.max(), 1)),
            }
            for step, b in enumerate(series)
        ],
        "F10 peak": f"peak at step {int(np.argmax(series))} of {series.size}",
    }


def _f10_check(rows, _):
    series = np.array([r["bytes"] for r in rows])
    top = np.sort(series)[-max(series.size // 4, 1):]
    return {
        "one dominant wave: the top quarter of steps carries over 60% of the bytes":
            top.sum() > 0.6 * series.sum(),
        "the peak is neither the first nor the last step": 0 < np.argmax(series) < series.size - 1,
    }


def _f11(scale, ranks, num_roots):
    levels = {
        "none": None,
        **{f"drop {p}%": f"drop={p / 100},seed=11" for p in (1, 5, 10, 20)},
        "mixed": "drop=0.05,delay=5us,jitter=2us,stall=0.05,degraded=0.2,seed=11",
    }
    graph = _kron(scale)
    # variant_rows asserts the resilience invariant: faults never change a distance.
    measured = studies.variant_rows(
        graph, sample_roots(graph, num_roots, seed=ROOT_SEED),
        [{"faults": spec} for spec in levels.values()],
        ("mean_sim_s", "bytes", "retry_bytes", "retries"), ranks,
    )
    return {
        f"F11: modeled slowdown vs fault rate (scale {scale}, {ranks} ranks)": [
            {
                "faults": name, "sim_s": row["mean_sim_s"],
                "slowdown": row["mean_sim_s"] / measured[0]["mean_sim_s"],
                "retry_bytes": row["retry_bytes"], "retry_frac": row["retry_bytes"] / row["bytes"],
                "retries": row["retries"],
            }
            for name, row in zip(levels, measured)
        ]
    }


def _f11_check(rows):
    none, *_ = drops = rows[:5]  # "none", then drop 1% .. 20%; "mixed" is last
    pairs = list(zip(drops, drops[1:]))
    return {
        "fault-free: slowdown exactly 1, nothing retried":
            (none["slowdown"], none["retry_bytes"]) == (1.0, 0),
        "slowdown grows with the drop rate": all(a["slowdown"] <= b["slowdown"] for a, b in pairs),
        "so do the retried bytes": all(a["retry_bytes"] <= b["retry_bytes"] for a, b in pairs),
        "which are nonzero at 20%": drops[-1]["retry_bytes"] > 0,
    }


def _e1(scale, ranks):
    graph = _kron(scale)
    src = int(np.argmax(graph.out_degree))
    shared, distributed = [], []
    for direction in ("top_down", "bottom_up", "auto"):
        c = bfs(graph, src, direction=direction).counters
        shared.append({
            "direction": direction, "edges_inspected": c["edges_inspected"], "levels": c["levels"],
            "td_steps": c.get("top_down_steps"), "bu_steps": c.get("bottom_up_steps"),
        })
    for direction in ("top_down", "auto"):
        run = api.run(graph, src, kernel="bfs", num_ranks=ranks, direction=direction)
        if not validate_bfs(graph, run.result).ok:
            raise AssertionError(f"distributed BFS ({direction}) failed validation")
        distributed.append({
            "direction": direction, "edges_inspected": run.result.counters["edges_inspected"],
            "bytes": run.comm["total_bytes"], "sim_s": run.modeled_time, "TEPS": run.teps(graph),
        })
    return {
        f"E1a: BFS edge inspections by direction (scale {scale})": shared,
        f"E1b: distributed BFS (scale {scale}, {ranks} ranks)": distributed,
    }


def _e1_check(shared, distributed):
    inspected = _by(shared, "direction", "edges_inspected")
    auto, top_down = (_by(distributed, "direction")[d] for d in ("auto", "top_down"))
    return {
        "direction optimization inspects over 5x fewer edges than top-down":
            inspected["auto"] * 5 < inspected["top_down"],
        "the distributed engine keeps the win in edges":
            auto["edges_inspected"] < top_down["edges_inspected"],
        "and in modeled time": auto["sim_s"] < top_down["sim_s"],
    }


def _e2(scale, rank_counts, num_roots):
    graph = _kron(scale)
    roots = sample_roots(graph, num_roots, seed=ROOT_SEED)
    machine = small_cluster(64)
    rows = []
    for ranks in rank_counts:
        oned, twod = studies.variant_rows(
            graph, roots, [{"engine": "dist1d"}, {"engine": "dist2d"}], ("bytes", "mean_sim_s"),
            ranks, machine,
        )
        # The measured partner count lives in the run's meta, which the root
        # loop does not keep: read it off one more run of the first root.
        meta = api.run(graph, int(roots[0]), engine="dist2d", num_ranks=ranks, machine=machine).meta
        twod_layout = "2-D ({}x{})".format(*meta["grid"])
        layouts = {"1-D": ranks - 1, twod_layout: meta["max_partners_per_rank"]}
        rows += [
            {"ranks": ranks, "layout": layout, "max_partners": partners, "bytes": row["bytes"],
             "sim_s": row["mean_sim_s"]}
            for (layout, partners), row in zip(layouts.items(), (oned, twod))
        ]
    return {f"E2: 1-D vs 2-D decomposition (scale {scale})": rows}


def _e2_check(rows):
    oned, twod = (r["max_partners"] for r in rows if r["ranks"] == 64)
    return {"at 64 ranks a 2-D rank has under a quarter of a 1-D rank's partners": twod < oned / 4}


def _e3(scale, ranks, num_roots):
    graph, thresholds, caps = _kron(scale), [64, 128, 256, 512, 1024], [1, 2, 4, 16, 64]
    return {
        f"E3a: hub delegation threshold (scale {scale}, {ranks} ranks)":
            studies.hub_threshold_sweep(graph, ranks, thresholds, num_roots),
        "E3b: bucket fusion cap": studies.fusion_cap_sweep(graph, ranks, caps, num_roots),
        "E3c: engine comparison (identical answers)":
            studies.engine_comparison(graph, ranks, num_roots),
    }


def _e3_check(thresholds, caps, _):
    skew = _by(thresholds, "threshold", "work_imbalance")
    return {
        "more delegation balances at least as well as none (within 0.05)":
            skew["64"] <= skew["off"] + 0.05,
        "the deepest fusion cap adds no superstep": caps[0]["supersteps"] >= caps[-1]["supersteps"],
    }


_E = Experiment
#: The registry, in DESIGN.md §4 order: id, title, build, check, full profile, smoke profile.
EXPERIMENTS: dict[str, Experiment] = {e.id: e for e in (
    _E("T1", "headline projection", _t1, _t1_check, ([12, 13, 14], 16, 3), ([8, 9, 10], 4, 1)),
    _E("T2", "machine configuration table", _t2, _t2_check),
    _E("T3", "validation coverage", _t3, _t3_check, (12, 32, 2000, "2k", 8), (8, 8, 200, "200", 4)),
    _E("F1", "weak scaling", _f1, _f1_check, (12, [1, 2, 4, 8, 16], 2), (8, [1, 2, 4], 1)),
    _E("F2", "strong scaling", _f2, _f2_check, (15, [1, 2, 4, 8, 16, 32], 2), (10, [1, 2, 4], 1)),
    _E("F3", "optimization ablation", _f3, _f3_check, (16, 16, 2), (10, 4, 1)),
    _E("F4", "delta sensitivity sweep", _f4, _f4_check, (14, 8, 2), (10, 4, 1)),
    _E("F5", "communication breakdown", _f5, _f5_check, ((14, 16), 16, 2), ((9, 10), 4, 1)),
    _E("F6", "load balance by partitioning strategy", _f6, _f6_check, (16, 16, 2), (10, 4, 1)),
    _E("F7", "algorithm comparison", _f7, _f7_check, (14, 16), (10, 4)),
    _E("F8", "kernel-1 throughput", _f8, _f8_check, ((12, 14, 16, 18),), ((8, 10),),
       ("gen_s", "gen_Medges/s", "build_s", "build_Medges/s")),
    _E("F9", "TEPS distribution over the 64-root sample", _f9, _f9_check, (12, 8, 64), (8, 4, 2),
       ("construction_time", "generation_time")),
    _E("F10", "traffic wavefront per superstep", _f10, _f10_check, (15, 16), (10, 4)),
    _E("F11", "resilience: slowdown vs fault rate", _f11, _f11_check, (14, 16, 2), (10, 4, 1)),
    _E("E1", "BFS direction optimization", _e1, _e1_check, (16, 16), (10, 4)),
    _E("E2", "1-D vs 2-D decomposition", _e2, _e2_check, (14, (16, 64), 2), (10, (4,), 1)),
    _E("E3", "design-choice ablations", _e3, _e3_check, (14, 16, 2), (10, 4, 1)),
)}


def run_experiment(exp_id: str, smoke: bool = False) -> dict[str, Any]:
    """Build one experiment at its full or smoke profile; returns its document.

    ``checks`` is ``None`` on a smoke document: its rows are pinned by equality.
    """
    experiment = EXPERIMENTS[exp_id]
    timer = Timer()
    with timer:
        tables = experiment.build(*(experiment.smoke if smoke else experiment.full))
    # Through JSON once: numpy scalars become plain numbers, a NaN refuses to be a document.
    tables = json.loads(json.dumps(tables, default=lambda v: v.item(), allow_nan=False))
    checks = None
    if not smoke:
        checks = {c: bool(held) for c, held in experiment.check(*tables.values()).items()}
    return {
        "benchmark": experiment.id, "title": experiment.title, "smoke": smoke, "seed": SEED,
        "host_cpus": os.cpu_count(), "wall_seconds": timer.seconds,
        "wall_columns": list(experiment.wall_columns), "tables": tables, "checks": checks,
    }
