"""E2 (extension) — 1-D vs 2-D decomposition communication structure.

The 2-D checkerboard bounds per-rank partners at ~2*sqrt(P) per superstep
(why record codes use it at 10^5 ranks) at the price of frontier
replication.  Expected shape: partners drop by the grid factor; bytes grow;
at toy rank counts the direct 1-D alltoallv remains competitive in
simulated time — the crossover is a fan-out effect that grows with P.
"""

import numpy as np

import repro
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph500.report import render_table
from repro.graph500.roots import sample_roots
from repro.simmpi.machine import small_cluster


def test_e2_twod_vs_oned(benchmark, write_result):
    graph = build_csr(generate_kronecker(14, seed=2022))
    roots = sample_roots(graph, 2, seed=7)
    machine = small_cluster(64)

    def study():
        rows = []
        for num_ranks in (16, 64):
            r1 = [
                repro.run(graph, int(r), num_ranks=num_ranks, machine=machine)
                for r in roots
            ]
            r2 = [
                repro.run(
                    graph, int(r), engine="dist2d", num_ranks=num_ranks, machine=machine
                )
                for r in roots
            ]
            for a, b in zip(r1, r2):
                assert np.array_equal(a.result.dist, b.result.dist)
            rows.append(
                {
                    "ranks": num_ranks,
                    "layout": "1-D",
                    "max_partners": num_ranks - 1,
                    "bytes": int(np.mean([x.comm["total_bytes"] for x in r1])),
                    "sim_s": float(np.mean([x.modeled_time for x in r1])),
                }
            )
            rows.append(
                {
                    "ranks": num_ranks,
                    "layout": "2-D ({}x{})".format(*r2[0].meta["grid"]),
                    "max_partners": r2[0].meta["max_partners_per_rank"],
                    "bytes": int(np.mean([x.comm["total_bytes"] for x in r2])),
                    "sim_s": float(np.mean([x.modeled_time for x in r2])),
                }
            )
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    write_result(
        "E2_twod", render_table(rows, title="E2: 1-D vs 2-D decomposition (scale 14)")
    )
    at64 = {r["layout"]: r for r in rows if r["ranks"] == 64}
    twod = next(v for k, v in at64.items() if k.startswith("2-D"))
    assert twod["max_partners"] < at64["1-D"]["max_partners"] / 4
