"""T3 — validation coverage table.

Every benchmark run must pass the spec validator, and the validator must
actually reject corrupted results.  One row per (graph family, algorithm)
for acceptance — SSSP and BFS, plus one multigraph whose parallel edges
were kept — and one per corruption type for rejection.
"""

import numpy as np

import repro
from repro.baselines import bellman_ford, dijkstra
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph.synth import grid_graph, random_graph, star_graph
from repro.graph500.report import render_table
from repro.graph500.validation import validate_bfs, validate_sssp


def test_t3_validation_coverage(benchmark, write_result):
    graphs = {
        "kronecker-12": build_csr(generate_kronecker(12, seed=2022)),
        "grid-32x32": build_csr(grid_graph(32, 32, seed=1)),
        "random-2k": build_csr(random_graph(2000, 20_000, seed=1)),
        "star-2k": build_csr(star_graph(2000, weight=0.5)),
    }
    kron = graphs["kronecker-12"]
    src = int(np.argmax(kron.out_degree))
    good = repro.run(kron, src, engine="shared").result

    # Timed kernel: full validation of a scale-12 run.
    report = benchmark(lambda: validate_sssp(kron, good))
    assert report.ok

    rows = []
    for gname, graph in graphs.items():
        root = int(np.argmax(graph.out_degree))
        for aname, algo in {
            "dijkstra": lambda g, r: dijkstra(g, r),
            "bellman_ford": lambda g, r: bellman_ford(g, r),
            "delta_stepping": lambda g, r: repro.run(g, r, engine="shared").result,
            "distributed(8)": lambda g, r: repro.run(g, r, num_ranks=8).result,
        }.items():
            res = algo(graph, root)
            rows.append(
                {
                    "graph": gname,
                    "algorithm": aname,
                    "validates": validate_sssp(graph, res).ok,
                }
            )
        res = repro.run(graph, root, kernel="bfs", num_ranks=8).result
        rows.append(
            {"graph": gname, "algorithm": "bfs(8)", "validates": validate_bfs(graph, res).ok}
        )
    # A tree edge closes over the lightest of its parallel CSR entries.
    multi = build_csr(random_graph(2000, 20_000, seed=1), dedup=False)
    res = repro.run(multi, int(np.argmax(multi.out_degree)), engine="shared").result
    rows.append(
        {
            "graph": "random-2k, parallel edges kept",
            "algorithm": "delta_stepping",
            "validates": validate_sssp(multi, res).ok,
        }
    )
    assert all(r["validates"] for r in rows)

    # Rejection half: corrupt one run per rule.
    reached = np.flatnonzero(good.reached)
    v = int(reached[reached != src][4])
    corruptions = {
        "root dist nonzero": lambda r: r.dist.__setitem__(src, 0.25),
        "vertex dist lowered": lambda r: r.dist.__setitem__(v, r.dist[v] * 0.5),
        "vertex dist raised": lambda r: r.dist.__setitem__(v, r.dist[v] + 0.9),
        "parent dropped": lambda r: r.parent.__setitem__(v, -1),
        "parent to non-neighbor": lambda r: r.parent.__setitem__(
            v, int(np.setdiff1d(reached, np.append(kron.neighbors(v), v))[0])
        ),
        "parent out of range": lambda r: r.parent.__setitem__(v, kron.num_vertices + 7),
    }
    for name, corrupt in corruptions.items():
        bad = repro.run(kron, src, engine="shared").result
        corrupt(bad)
        rows.append(
            {
                "graph": "kronecker-12",
                "algorithm": f"CORRUPTED: {name}",
                "validates": validate_sssp(kron, bad).ok,
            }
        )
        assert not rows[-1]["validates"], name

    write_result("T3_validation", render_table(rows, title="T3: validation coverage"))
