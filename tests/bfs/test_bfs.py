"""Tests for the BFS extension (Graph500 kernel 2)."""

from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run
from repro.bfs import bfs
from repro.graph500.validation import validate_bfs
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph.synth import grid_graph, path_graph, random_graph, star_graph

distributed_bfs = partial(run, kernel="bfs", engine="dist1d")


def scipy_levels(graph, source):
    mat = sp.csr_matrix(
        (np.ones_like(graph.weight), graph.adj, graph.indptr),
        shape=(graph.num_vertices, graph.num_vertices),
    )
    levels = csg.shortest_path(mat, method="D", unweighted=True, indices=source)
    return np.where(np.isinf(levels), -1, levels).astype(np.int64)


@pytest.fixture(scope="module")
def kron():
    return build_csr(generate_kronecker(10, seed=77))


class TestSharedBFS:
    @pytest.mark.parametrize("direction", ["auto", "top_down", "bottom_up"])
    def test_levels_match_scipy(self, kron, direction):
        src = int(np.argmax(kron.out_degree))
        res = bfs(kron, src, direction=direction)
        assert np.array_equal(res.level, scipy_levels(kron, src))

    @pytest.mark.parametrize("direction", ["auto", "top_down", "bottom_up"])
    def test_validates(self, kron, direction):
        res = bfs(kron, 3, direction=direction)
        assert validate_bfs(kron, res).ok

    def test_direction_optimization_saves_inspections(self, kron):
        src = int(np.argmax(kron.out_degree))
        auto = bfs(kron, src, direction="auto")
        td = bfs(kron, src, direction="top_down")
        assert auto.counters["edges_inspected"] < td.counters["edges_inspected"] / 2
        assert auto.counters["bottom_up_steps"] > 0

    def test_path_graph_levels(self):
        g = build_csr(path_graph(10))
        res = bfs(g, 0)
        assert np.array_equal(res.level, np.arange(10))
        assert np.array_equal(res.parent[1:], np.arange(9))

    def test_star_graph(self):
        g = build_csr(star_graph(50))
        res = bfs(g, 0)
        assert res.level[0] == 0
        assert np.all(res.level[1:] == 1)

    def test_grid(self):
        g = build_csr(grid_graph(9, 9))
        res = bfs(g, 0)
        expected = np.add.outer(np.arange(9), np.arange(9)).ravel()
        assert np.array_equal(res.level, expected)

    def test_unreachable(self):
        from repro.graph.types import EdgeList

        g = build_csr(EdgeList(np.array([0]), np.array([1]), np.array([1.0]), 4))
        res = bfs(g, 0)
        assert res.num_reached == 2
        assert res.level[2] == -1
        assert res.parent[2] == -1
        assert validate_bfs(g, res).ok

    def test_invalid_inputs(self, kron):
        with pytest.raises(ValueError):
            bfs(kron, -1)
        with pytest.raises(ValueError):
            bfs(kron, 0, direction="sideways")

    def test_parent_tree_valid(self, kron):
        res = bfs(kron, 3)
        reached = np.flatnonzero(res.reached)
        for v in reached[:100]:
            if v == 3:
                continue
            p = int(res.parent[v])
            assert kron.has_edge(p, v)
            assert res.level[v] == res.level[p] + 1

    def test_traversed_edges(self):
        g = build_csr(path_graph(4))
        res = bfs(g, 0)
        assert res.traversed_edges(g) == 3


class TestDistributedBFS:
    @pytest.mark.parametrize("num_ranks", [1, 2, 4, 8])
    def test_matches_shared(self, kron, num_ranks):
        src = int(np.argmax(kron.out_degree))
        ref = scipy_levels(kron, src)
        run = distributed_bfs(kron, src, num_ranks=num_ranks)
        assert np.array_equal(run.result.level, ref)
        assert validate_bfs(kron, run.result).ok

    @pytest.mark.parametrize("direction", ["auto", "top_down", "bottom_up"])
    def test_all_directions_exact(self, kron, direction):
        src = 5
        ref = scipy_levels(kron, src)
        run = distributed_bfs(kron, src, num_ranks=4, direction=direction)
        assert np.array_equal(run.result.level, ref)

    def test_direction_optimization_distributed(self, kron):
        src = int(np.argmax(kron.out_degree))
        auto = distributed_bfs(kron, src, num_ranks=4)
        td = distributed_bfs(kron, src, num_ranks=4, direction="top_down")
        assert (
            auto.result.counters["edges_inspected"]
            < td.result.counters["edges_inspected"] / 2
        )

    def test_bitmap_traffic_bounded(self, kron):
        """Bottom-up levels move bitmaps (~n/8 per rank-pair), not claims."""
        src = int(np.argmax(kron.out_degree))
        run = distributed_bfs(kron, src, num_ranks=4, direction="bottom_up")
        n = kron.num_vertices
        levels = run.result.counters["levels"]
        # Upper bound: levels * P*(P-1) * ceil(n/8) bytes.
        assert run.comm["total_bytes"] <= levels * 4 * 3 * (n // 8 + 16)

    def test_block_partition(self, kron):
        run = distributed_bfs(kron, 3, num_ranks=4, partition="block")
        assert np.array_equal(run.result.level, scipy_levels(kron, 3))

    def test_hashed_partition_rejected(self, kron):
        with pytest.raises(ValueError, match="partition must be one of"):
            distributed_bfs(kron, 3, num_ranks=4, partition="hashed")

    def test_hierarchical_fabric(self, kron):
        from repro.simmpi.machine import small_cluster

        run = distributed_bfs(
            kron, 3, num_ranks=32, machine=small_cluster(64), hierarchical=True
        )
        assert np.array_equal(run.result.level, scipy_levels(kron, 3))

    def test_teps_and_breakdown(self, kron):
        src = int(np.argmax(kron.out_degree))
        run = distributed_bfs(kron, src, num_ranks=4)
        assert run.teps(kron) > 0
        assert run.modeled_time == pytest.approx(sum(run.time_breakdown.values()))

    def test_invalid_source(self, kron):
        with pytest.raises(ValueError):
            distributed_bfs(kron, 10**9, num_ranks=2)


class TestBFSValidationRejects:
    def test_corrupted_level(self, kron):
        res = bfs(kron, 3)
        reached = np.flatnonzero(res.reached)
        v = int(reached[reached != 3][5])
        res.level[v] += 1
        assert not validate_bfs(kron, res).ok

    def test_corrupted_parent(self, kron):
        res = bfs(kron, 3)
        reached = np.flatnonzero(res.reached)
        v = int(reached[reached != 3][5])
        res.parent[v] = -1
        assert not validate_bfs(kron, res).ok

    def test_corrupted_root(self, kron):
        res = bfs(kron, 3)
        res.level[3] = 1
        assert not validate_bfs(kron, res).ok

    def test_unreached_with_state(self):
        from repro.graph.types import EdgeList

        g = build_csr(EdgeList(np.array([0]), np.array([1]), np.array([1.0]), 4))
        res = bfs(g, 0)
        res.level[3] = 5
        assert not validate_bfs(g, res).ok


@given(
    n=st.integers(2, 60),
    m=st.integers(1, 300),
    seed=st.integers(0, 300),
    num_ranks=st.integers(1, 5),
    direction=st.sampled_from(["auto", "top_down", "bottom_up"]),
)
@settings(max_examples=25, deadline=None)
def test_distributed_bfs_always_matches_scipy(n, m, seed, num_ranks, direction):
    """Property: any direction strategy at any rank count is exact."""
    g = build_csr(random_graph(n, m, seed))
    source = seed % n
    run = distributed_bfs(g, source, num_ranks=num_ranks, direction=direction)
    assert np.array_equal(run.result.level, scipy_levels(g, source))
    assert validate_bfs(g, run.result).ok
