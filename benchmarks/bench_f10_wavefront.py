"""F10 — traffic wavefront: wire bytes per superstep over a run's lifetime.

The ∆-stepping wavefront is a standard paper figure: traffic ramps up as
the expanding frontier hits the dense middle buckets, peaks, and decays
through the long-distance tail.  Expected shape: the peak step carries the
large majority of bytes, and the peak sits in the middle third of the run.

The series is read from the run-telemetry timeline
(``RunReport.wavefront()``) and cross-checked against the engine's
``CommTrace`` summary — both are fed by the same fabric call sites, so the
totals must agree byte for byte.
"""

import numpy as np

import repro
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph500.report import render_table
from repro.graph500.roots import sample_roots
from repro.obs import RunReport, Tracer


def test_f10_traffic_wavefront(benchmark, write_result):
    graph = build_csr(generate_kronecker(15, seed=2022))
    root = int(sample_roots(graph, 1, seed=7)[0])

    tracer = Tracer()
    run = benchmark.pedantic(
        lambda: repro.run(graph, root, num_ranks=16, tracer=tracer),
        rounds=1,
        iterations=1,
    )
    report = RunReport.from_events(tracer.events)
    series = np.array(report.wavefront(), dtype=np.int64)
    assert series.size > 0
    assert series.sum() == run.comm["total_bytes"]

    peak_step = int(np.argmax(series))
    rows = [
        {
            "step": i,
            "bytes": int(b),
            "share_%": round(100.0 * b / max(series.sum(), 1), 1),
            "bar": "#" * int(40 * b / max(series.max(), 1)),
        }
        for i, b in enumerate(series)
    ]
    write_result(
        "F10_wavefront",
        render_table(rows, title="F10: wire bytes per superstep (scale 15, 16 ranks)")
        + f"\npeak at step {peak_step} of {series.size}",
    )
    # Shape: a single dominant wave — the top 25% of steps carry >60% of bytes.
    top = np.sort(series)[-max(series.size // 4, 1) :]
    assert top.sum() > 0.6 * series.sum()
    # The peak is not at the very start or the very end.
    assert 0 < peak_step < series.size - 1
