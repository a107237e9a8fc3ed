"""E1 (extension) — BFS direction optimization (Graph500 kernel 2).

The companion record of the same group is BFS at 281 trillion edges; the
decisive optimization is Beamer's top-down/bottom-up switch.  Expected
shape: 'auto' inspects an order of magnitude fewer edges than pure
top-down on a scale-free graph, and the distributed engine preserves the
win while keeping bottom-up communication at bitmap cost.
"""

import numpy as np

import repro
from repro.bfs import bfs
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph500 import validate_bfs
from repro.graph500.report import render_table


def test_e1_bfs_direction_optimization(benchmark, write_result):
    graph = build_csr(generate_kronecker(16, seed=2022))
    src = int(np.argmax(graph.out_degree))

    auto = benchmark(lambda: bfs(graph, src, direction="auto"))
    assert validate_bfs(graph, auto).ok

    rows = []
    for direction in ("top_down", "bottom_up", "auto"):
        res = bfs(graph, src, direction=direction)
        rows.append(
            {
                "direction": direction,
                "edges_inspected": res.counters["edges_inspected"],
                "levels": res.counters["levels"],
                "td_steps": res.counters.get("top_down_steps"),
                "bu_steps": res.counters.get("bottom_up_steps"),
            }
        )
    dist_rows = []
    for direction in ("top_down", "auto"):
        run = repro.run(graph, src, kernel="bfs", num_ranks=16, direction=direction)
        assert validate_bfs(graph, run.result).ok
        dist_rows.append(
            {
                "direction": direction,
                "edges_inspected": run.result.counters["edges_inspected"],
                "bytes": run.comm["total_bytes"],
                "sim_s": run.modeled_time,
                "TEPS": run.teps(graph),
            }
        )
    write_result(
        "E1_bfs",
        render_table(rows, title="E1a: BFS edge inspections by direction (scale 16)")
        + "\n\n"
        + render_table(dist_rows, title="E1b: distributed BFS (scale 16, 16 ranks)"),
    )
    by = {r["direction"]: r for r in rows}
    assert by["auto"]["edges_inspected"] * 5 < by["top_down"]["edges_inspected"]
    dby = {r["direction"]: r for r in dist_rows}
    assert dby["auto"]["edges_inspected"] < dby["top_down"]["edges_inspected"]
    assert dby["auto"]["sim_s"] < dby["top_down"]["sim_s"]
