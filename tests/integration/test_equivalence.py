"""Integration: every implementation agrees with every other, always.

The library's central invariant — the simulation changes modeled time,
never answers — is checked here across the full implementation matrix,
plus the BFS/SSSP consistency relations that tie the two kernels together.
"""

from functools import partial

import numpy as np
import pytest

from repro import run
from repro.baselines import bellman_ford, dijkstra, frontier_bellman_ford
from repro.bfs import bfs
from repro.core import SSSPConfig
from repro.core.delta_stepping import _delta_stepping as delta_stepping
from repro.graph import build_csr, generate_kronecker
from repro.graph.synth import grid_graph, random_graph, star_graph
from repro.graph500 import validate_bfs, validate_sssp

distributed_sssp = partial(run, engine="dist1d")
distributed_bfs = partial(run, kernel="bfs", engine="dist1d")


GRAPHS = {
    "kronecker": lambda: build_csr(generate_kronecker(9, seed=3)),
    "grid": lambda: build_csr(grid_graph(12, 12, seed=3)),
    "random": lambda: build_csr(random_graph(300, 2500, seed=3)),
    "star": lambda: build_csr(star_graph(300, weight=0.5)),
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
class TestFullMatrix:
    def test_all_sssp_implementations_agree(self, graph_name):
        graph = GRAPHS[graph_name]()
        source = int(np.argmax(graph.out_degree))
        ref = dijkstra(graph, source)
        implementations = {
            "bellman_ford": lambda: bellman_ford(graph, source),
            "chaotic": lambda: frontier_bellman_ford(graph, source),
            "delta_stepping": lambda: delta_stepping(graph, source),
            "dist_opt_4": lambda: distributed_sssp(graph, source, num_ranks=4).result,
            "dist_base_4": lambda: distributed_sssp(
                graph, source, num_ranks=4, config=SSSPConfig.baseline()
            ).result,
            "dist_opt_7": lambda: distributed_sssp(graph, source, num_ranks=7).result,
        }
        for name, run in implementations.items():
            res = run()
            assert np.array_equal(res.dist, ref.dist), f"{name} diverged on {graph_name}"
            assert validate_sssp(graph, res).ok, f"{name} failed validation on {graph_name}"

    def test_bfs_levels_match_unit_weight_hops(self, graph_name):
        """BFS levels equal the hop counts an unweighted SSSP would give."""
        graph = GRAPHS[graph_name]()
        source = int(np.argmax(graph.out_degree))
        bres = bfs(graph, source)
        drun = distributed_bfs(graph, source, num_ranks=4)
        assert np.array_equal(bres.level, drun.result.level)
        assert validate_bfs(graph, bres).ok
        assert validate_bfs(graph, drun.result).ok

    def test_sssp_distance_bounded_by_bfs_hops(self, graph_name):
        """With weights in (0, 1], dist(v) <= hops(v) along any path."""
        graph = GRAPHS[graph_name]()
        source = int(np.argmax(graph.out_degree))
        sres = delta_stepping(graph, source)
        bres = bfs(graph, source)
        reached_same = np.array_equal(np.isfinite(sres.dist), bres.level >= 0)
        assert reached_same
        reached = bres.level >= 0
        assert np.all(sres.dist[reached] <= bres.level[reached] + 1e-12)


class TestDeterminism:
    """Same seed, same configuration -> identical everything."""

    def test_distributed_sssp_trace_deterministic(self):
        graph = build_csr(generate_kronecker(10, seed=6))
        src = int(np.argmax(graph.out_degree))
        a = distributed_sssp(graph, src, num_ranks=4)
        b = distributed_sssp(graph, src, num_ranks=4)
        assert np.array_equal(a.result.dist, b.result.dist)
        assert np.array_equal(a.result.parent, b.result.parent)
        assert a.comm == b.comm
        assert a.modeled_time == b.modeled_time
        assert a.time_breakdown == b.time_breakdown

    def test_distributed_bfs_trace_deterministic(self):
        graph = build_csr(generate_kronecker(10, seed=6))
        src = int(np.argmax(graph.out_degree))
        a = distributed_bfs(graph, src, num_ranks=4)
        b = distributed_bfs(graph, src, num_ranks=4)
        assert np.array_equal(a.result.level, b.result.level)
        assert a.comm == b.comm

    def test_rank_count_does_not_change_answers(self):
        graph = build_csr(generate_kronecker(10, seed=6))
        src = 7
        dists = [
            distributed_sssp(graph, src, num_ranks=p).result.dist for p in (1, 2, 3, 5, 8)
        ]
        for d in dists[1:]:
            assert np.array_equal(d, dists[0])

    def test_partition_does_not_change_answers(self):
        graph = build_csr(generate_kronecker(10, seed=6))
        src = 7
        dists = [
            distributed_sssp(
                graph, src, num_ranks=4, config=SSSPConfig(partition=p)
            ).result.dist
            for p in ("block", "edge_balanced")
        ]
        for d in dists[1:]:
            assert np.array_equal(d, dists[0])


class TestEndToEndPipeline:
    def test_generate_build_run_validate_report(self, tmp_path):
        """The full user workflow, including graph persistence."""
        from repro.graph import load_graph, save_graph
        from repro.graph500 import run_graph500_sssp
        from repro.graph500.report import render_output_block

        result = run_graph500_sssp(scale=8, num_ranks=4, num_roots=4, seed=11)
        assert result.all_valid
        block = render_output_block(result)
        assert "PASSED" in block

        graph = build_csr(generate_kronecker(8, seed=11))
        p = tmp_path / "graph.npz"
        save_graph(graph, p)
        loaded = load_graph(p)
        src = int(np.argmax(loaded.out_degree))
        run = distributed_sssp(loaded, src, num_ranks=4)
        assert validate_sssp(loaded, run.result).ok

    def test_distributed_construction_feeds_sssp(self):
        """Kernel 1 (distributed) output is directly usable by kernel 3."""
        from repro.graph import distributed_construction
        from repro.graph.kronecker import KroneckerSpec

        res = distributed_construction(KroneckerSpec(scale=9, seed=2), num_ranks=4)
        src = int(np.argmax(res.graph.out_degree))
        run = distributed_sssp(res.graph, src, num_ranks=4)
        ref = dijkstra(res.graph, src)
        assert np.array_equal(run.result.dist, ref.dist)
        assert validate_sssp(res.graph, run.result).ok


class TestWavefrontInvariants:
    def test_step_series_consistent_with_totals(self):
        graph = build_csr(generate_kronecker(10, seed=6))
        src = int(np.argmax(graph.out_degree))
        run = distributed_sssp(graph, src, num_ranks=4)
        assert sum(run.step_bytes) == run.comm["total_bytes"]
        assert len(run.step_bytes) == run.comm["supersteps"]
