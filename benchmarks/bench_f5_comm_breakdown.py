"""F5 — communication volume and synchronization-round reduction.

Measured (not modeled) traffic: wire bytes, messages and supersteps with
each communication optimization on and off, at two scales.  Expected
shape: coalescing cuts bytes by >=2x; compression shaves a further ~17%;
fusion can only reduce supersteps (it never adds any).

Traffic numbers come from the run-telemetry layer (``repro.obs``): each
run is traced, and the figure reads the :class:`RunReport` timeline — the
same single source of truth the ``--report-out`` artifact exposes — rather
than reaching into ``CommTrace`` internals.
"""

import numpy as np

import repro
from repro.core.config import SSSPConfig
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph500.report import render_table
from repro.graph500.roots import sample_roots
from repro.obs import RunReport, Tracer


def _run(graph, config, roots, num_ranks=16):
    reports = []
    runs = []
    for root in roots:
        tracer = Tracer()
        run = repro.run(
            graph, int(root), num_ranks=num_ranks, config=config, tracer=tracer
        )
        runs.append(run)
        reports.append(RunReport.from_events(tracer.events))
    return {
        "bytes": int(np.mean([r.total_bytes for r in reports])),
        "messages": int(np.mean([r.total_messages for r in reports])),
        "supersteps": int(np.mean([r.num_steps for r in reports])),
        "allreduces": int(np.mean([r.allreduces for r in reports])),
        "comm_s": float(np.mean([t.time_breakdown.get("comm", 0) for t in runs])),
        "sync_s": float(np.mean([t.time_breakdown.get("sync", 0) for t in runs])),
    }


def test_f5_comm_breakdown(benchmark, write_result):
    variants = {
        "optimized": SSSPConfig.optimized(),
        "-coalescing": SSSPConfig().without("coalesce"),
        "-compression": SSSPConfig().without("compressed_indices"),
        "-fusion": SSSPConfig().without("fuse_buckets"),
        "baseline": SSSPConfig.baseline(),
    }

    def run_all():
        rows = []
        for scale in (14, 16):
            graph = build_csr(generate_kronecker(scale, seed=2022))
            roots = sample_roots(graph, 2, seed=7)
            for name, config in variants.items():
                stats = _run(graph, config, roots)
                rows.append({"scale": scale, "variant": name, **stats})
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    write_result(
        "F5_comm_breakdown",
        render_table(rows, title="F5: measured communication breakdown (16 ranks)"),
    )
    for scale in (14, 16):
        by = {r["variant"]: r for r in rows if r["scale"] == scale}
        assert by["optimized"]["bytes"] * 2 <= by["-coalescing"]["bytes"]
        assert by["optimized"]["bytes"] < by["-compression"]["bytes"]
        assert by["optimized"]["supersteps"] <= by["-fusion"]["supersteps"]
