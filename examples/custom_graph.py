#!/usr/bin/env python3
"""SSSP on a non-Kronecker workload: a road-network-like weighted grid.

Shows the library as a general SSSP toolkit: bring your own edge list,
choose ∆ for the weight distribution, and compare the distributed engine's
behaviour on a low-skew graph (where hub delegation is correctly a no-op)
against the scale-free benchmark graph.

Run:  python examples/custom_graph.py
"""

import numpy as np

from repro import run as run_engine
from repro.baselines import dijkstra
from repro.core import choose_delta
from repro.graph import build_csr, degree_stats, generate_kronecker, grid_graph
from repro.graph500 import validate_sssp


def main() -> None:
    print("== Road-network-like workload: 200x200 grid, uniform (0,1] weights")
    grid = build_csr(grid_graph(200, 200, seed=7))
    stats = degree_stats(grid)
    print(f"   {grid.num_vertices} vertices, max degree {stats.max_degree}, "
          f"gini {stats.gini:.2f} (no skew)")

    delta = choose_delta(grid)
    print(f"   adaptive delta = {delta:.3f}")

    source = 0
    run = run_engine(grid, source, engine="dist1d", num_ranks=8)
    ref = dijkstra(grid, source)
    assert np.array_equal(run.result.dist, ref.dist)
    print(f"   distributed(8) matches Dijkstra on all {ref.num_reached} vertices")
    print(f"   hubs delegated: {run.result.meta['num_hubs']} (threshold "
          f"{run.result.meta['hub_threshold']}) — none, as expected on a grid")
    assert validate_sssp(grid, run.result).ok

    print("\n== Contrast: scale-13 Kronecker (scale-free)")
    kron = build_csr(generate_kronecker(13))
    kstats = degree_stats(kron)
    print(f"   max degree {kstats.max_degree}, gini {kstats.gini:.2f}")
    src = int(np.argmax(kron.out_degree))
    krun = run_engine(kron, src, engine="dist1d", num_ranks=8)
    print(f"   hubs delegated: {krun.result.meta['num_hubs']}")

    print("\n== Behaviour comparison (same engine, both exact):")
    for name, r, g in [("grid", run, grid), ("kronecker", krun, kron)]:
        print(f"   {name:10s} supersteps={r.result.counters['light_supersteps']:4d} "
              f"epochs={r.result.counters['epochs']:4d} "
              f"imbalance={r.work_imbalance:.2f} "
              f"bytes={r.comm['total_bytes']}")
    print("\nGrids take many more epochs (long diameter) but fuse well;")
    print("scale-free graphs are shallow but hub-dominated — exactly the")
    print("contrast that motivates the paper's optimization stack.")


if __name__ == "__main__":
    main()
