"""F6 — load balance across ranks, by partitioning strategy.

Static metrics (owned-edge imbalance, cut fraction) for each partitioner,
plus the *dynamic* relaxation-work imbalance of actual runs with and
without hub delegation.  Expected shape: edge-balanced blocks fix the mean
imbalance; only delegation fixes the hub tail.
"""

import numpy as np

import repro
from repro.core.config import SSSPConfig
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph500.report import render_table
from repro.graph500.roots import sample_roots
from repro.graph.types import EdgeList
from repro.partition import block1d, block1d_edge_balanced, evaluate_partition, hashed1d
from repro.partition.twod import TwoDPartition


def test_f6_load_balance(benchmark, write_result):
    graph = build_csr(generate_kronecker(16, seed=2022))
    num_ranks = 16

    def study():
        static_rows = []
        for part in (
            block1d(graph.num_vertices, num_ranks),
            block1d_edge_balanced(graph, num_ranks),
            hashed1d(graph.num_vertices, num_ranks),
        ):
            static_rows.append(evaluate_partition(graph, part).row())
        # 2-D reference point: edge-granularity balance.
        twod = TwoDPartition(graph.num_vertices, 4, 4)
        counts = twod.edge_counts(
            EdgeList(
                np.repeat(np.arange(graph.num_vertices), graph.out_degree),
                graph.adj,
                graph.weight,
                graph.num_vertices,
            )
        )
        static_rows.append(
            {
                "partition": "2d (4x4)",
                "ranks": 16,
                "vertex_imbalance": float("nan"),
                "edge_imbalance": round(float(counts.max() / counts.mean()), 3),
                "cut_fraction": float("nan"),
            }
        )
        roots = sample_roots(graph, 2, seed=7)
        dynamic_rows = []
        for name, config in {
            "block + no delegation": SSSPConfig(partition="block", delegate_hubs=False),
            "edge_balanced + no delegation": SSSPConfig(delegate_hubs=False),
            "edge_balanced + delegation": SSSPConfig(),
        }.items():
            imbs = [
                repro.run(graph, int(r), num_ranks=num_ranks, config=config).work_imbalance
                for r in roots
            ]
            dynamic_rows.append({"configuration": name, "work_imbalance": round(float(np.mean(imbs)), 3)})
        return static_rows, dynamic_rows

    static_rows, dynamic_rows = benchmark.pedantic(study, rounds=1, iterations=1)
    write_result(
        "F6_load_balance",
        render_table(static_rows, title="F6a: static partition quality (scale 16, 16 ranks)")
        + "\n\n"
        + render_table(dynamic_rows, title="F6b: dynamic relaxation-work imbalance"),
    )
    by_kind = {r["partition"]: r for r in static_rows}
    assert by_kind["block1d_edge_balanced"]["edge_imbalance"] < by_kind["block1d"]["edge_imbalance"]
    by_cfg = {r["configuration"]: r for r in dynamic_rows}
    assert (
        by_cfg["edge_balanced + delegation"]["work_imbalance"]
        <= by_cfg["block + no delegation"]["work_imbalance"]
    )
