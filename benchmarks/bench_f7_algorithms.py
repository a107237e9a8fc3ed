"""F7 — algorithm comparison: why ∆-stepping, and why the optimized engine.

Shared-memory round/relaxation counts for Bellman-Ford, chaotic relaxation
and ∆-stepping on the same graph and root, plus the simulated-time
comparison of the reference-style distributed baseline against the
optimized engine.  Expected shape: ∆-stepping needs far fewer relaxations
than Bellman-Ford and far fewer rounds than Dijkstra would allow in
parallel; the optimized engine beats the simple one on traffic.
"""

import numpy as np

import repro
from repro.baselines import bellman_ford, dijkstra, frontier_bellman_ford, simple_distributed_sssp
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph500.report import render_table


def test_f7_algorithm_comparison(benchmark, write_result):
    graph = build_csr(generate_kronecker(14, seed=2022))
    src = int(np.argmax(graph.out_degree))

    # Timed kernel: the core contribution's shared-memory form.
    result = benchmark(lambda: repro.run(graph, src, engine="shared").result)
    assert result.num_reached > 1

    ref = dijkstra(graph, src)
    rows = []
    for name, res in [
        ("dijkstra (oracle)", ref),
        ("bellman_ford", bellman_ford(graph, src)),
        ("chaotic (frontier BF)", frontier_bellman_ford(graph, src)),
        ("delta_stepping", repro.run(graph, src, engine="shared").result),
    ]:
        assert np.array_equal(res.dist, ref.dist), name
        c = res.counters
        rows.append(
            {
                "algorithm": name,
                "edges_relaxed": c["edges_relaxed"],
                "rounds/phases": c.get("rounds") or c.get("phases") or c.get("settled"),
            }
        )

    opt = repro.run(graph, src, num_ranks=16)
    simple = simple_distributed_sssp(graph, src, num_ranks=16)
    assert np.array_equal(opt.result.dist, ref.dist)
    assert np.array_equal(simple.result.dist, ref.dist)
    dist_rows = [
        {
            "engine": "optimized distributed",
            "sim_s": opt.modeled_time,
            "bytes": opt.comm["total_bytes"],
            "supersteps": opt.comm["supersteps"],
        },
        {
            "engine": "reference-style distributed",
            "sim_s": simple.modeled_time,
            "bytes": simple.comm["total_bytes"],
            "supersteps": simple.comm["supersteps"],
        },
    ]
    write_result(
        "F7_algorithms",
        render_table(rows, title="F7a: shared-memory algorithm comparison (scale 14)")
        + "\n\n"
        + render_table(dist_rows, title="F7b: distributed engines (scale 14, 16 ranks)"),
    )
    by = {r["algorithm"]: r for r in rows}
    assert by["delta_stepping"]["edges_relaxed"] < by["bellman_ford"]["edges_relaxed"]
    assert dist_rows[0]["bytes"] < dist_rows[1]["bytes"]
