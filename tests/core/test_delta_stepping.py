"""Correctness tests for shared-memory ∆-stepping against oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dijkstra import dijkstra
from repro.core.adaptive import choose_delta
from repro.core.delta_stepping import _delta_stepping as delta_stepping
from repro.graph.csr import CSRGraph, build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph.synth import grid_graph, path_graph, random_graph, star_graph


def scipy_dijkstra(graph: CSRGraph, source: int) -> np.ndarray:
    """Independent oracle: scipy's Dijkstra over the same CSR."""
    mat = sp.csr_matrix(
        (graph.weight, graph.adj, graph.indptr),
        shape=(graph.num_vertices, graph.num_vertices),
    )
    return csgraph.dijkstra(mat, directed=True, indices=source)


def assert_distances_equal(actual: np.ndarray, expected: np.ndarray):
    assert np.array_equal(np.isfinite(actual), np.isfinite(expected))
    finite = np.isfinite(expected)
    np.testing.assert_allclose(actual[finite], expected[finite], rtol=0, atol=1e-12)


class TestDeltaSteppingCorrectness:
    @pytest.mark.parametrize("delta", [0.05, 0.3, 1.0, None])
    def test_matches_scipy_on_kronecker(self, delta):
        g = build_csr(generate_kronecker(9, seed=11))
        src = int(np.argmax(g.out_degree))
        res = delta_stepping(g, src, delta=delta)
        assert_distances_equal(res.dist, scipy_dijkstra(g, src))

    def test_matches_own_dijkstra(self):
        g = build_csr(random_graph(200, 1500, seed=3))
        res = delta_stepping(g, 0)
        ref = dijkstra(g, 0)
        assert np.array_equal(res.dist, ref.dist)

    def test_path_graph(self):
        g = build_csr(path_graph(10, weight=0.25))
        res = delta_stepping(g, 0, delta=0.4)
        np.testing.assert_allclose(res.dist, 0.25 * np.arange(10))

    def test_star_graph(self):
        g = build_csr(star_graph(50, weight=0.5))
        res = delta_stepping(g, 3)
        assert res.dist[3] == 0.0
        assert res.dist[0] == 0.5
        assert np.all(res.dist[1:][np.arange(1, 50) != 3] == 1.0)

    def test_unreachable_vertices(self):
        from repro.graph.types import EdgeList

        el = EdgeList(np.array([0]), np.array([1]), np.array([0.3]), 4)
        g = build_csr(el)
        res = delta_stepping(g, 0)
        assert res.num_reached == 2
        assert np.isinf(res.dist[2]) and np.isinf(res.dist[3])
        assert res.parent[2] == -1

    def test_source_only(self):
        from repro.graph.types import EdgeList

        g = build_csr(EdgeList(np.array([]), np.array([]), np.array([]), 3))
        res = delta_stepping(g, 1)
        assert res.dist[1] == 0.0
        assert res.num_reached == 1

    def test_invalid_source(self):
        g = build_csr(path_graph(3))
        with pytest.raises(ValueError):
            delta_stepping(g, 5)

    def test_invalid_delta(self):
        g = build_csr(path_graph(3))
        with pytest.raises(ValueError):
            delta_stepping(g, 0, delta=-1.0)

    def test_parent_tree_valid(self):
        g = build_csr(generate_kronecker(8, seed=2))
        res = delta_stepping(g, 0)
        reached = np.flatnonzero(res.reached)
        for v in reached[:200]:
            if v == 0:
                continue
            p = int(res.parent[v])
            assert g.has_edge(p, v)
            assert res.dist[p] + g.edge_weight(p, v) == res.dist[v]


class TestDeltaSteppingBehaviour:
    def test_small_delta_means_more_epochs(self):
        g = build_csr(generate_kronecker(10, seed=4))
        src = int(np.argmax(g.out_degree))
        few = delta_stepping(g, src, delta=1.0).counters["epochs"]
        many = delta_stepping(g, src, delta=0.02).counters["epochs"]
        assert many > few

    def test_large_delta_means_more_wasted_relaxations(self):
        g = build_csr(generate_kronecker(10, seed=4))
        src = int(np.argmax(g.out_degree))
        small = delta_stepping(g, src, delta=0.05).counters["reinsertions"]
        big = delta_stepping(g, src, delta=1.0).counters["reinsertions"]
        assert big > small

    def test_counters_present(self):
        g = build_csr(generate_kronecker(8, seed=4))
        res = delta_stepping(g, 0)
        for key in ("epochs", "phases", "edges_relaxed", "bucket_ops"):
            assert res.counters[key] > 0
        assert res.meta["delta"] > 0

    def test_delta_one_on_unit_weights_is_bfs_like(self):
        g = build_csr(grid_graph(8, 8))
        res = delta_stepping(g, 0, delta=1.0 + 1e-9)
        # Unit weights: distance == hop count == manhattan distance on grid.
        expected = np.add.outer(np.arange(8), np.arange(8)).ravel().astype(float)
        np.testing.assert_allclose(res.dist, expected)


class TestChooseDelta:
    def test_positive_and_bounded(self):
        g = build_csr(generate_kronecker(10))
        d = choose_delta(g)
        assert 0 < d <= float(g.weight.max())

    def test_empty_graph(self):
        from repro.graph.types import EdgeList

        g = build_csr(EdgeList(np.array([]), np.array([]), np.array([]), 4))
        assert choose_delta(g) == 1.0

    def test_adaptive_near_optimal(self):
        """Adaptive ∆ should be within 4x of the best swept ∆ by relaxations."""
        g = build_csr(generate_kronecker(10, seed=9))
        src = int(np.argmax(g.out_degree))

        def cost(delta):
            r = delta_stepping(g, src, delta=delta)
            # Proxy for distributed cost: relaxations + sync-bound phases.
            return r.counters["edges_relaxed"] + 2000 * r.counters["phases"]

        sweep = [cost(d) for d in (0.01, 0.03, 0.1, 0.3, 1.0)]
        adaptive = cost(choose_delta(g))
        assert adaptive <= 4 * min(sweep)


@given(
    n=st.integers(2, 60),
    m=st.integers(1, 400),
    seed=st.integers(0, 500),
    delta=st.sampled_from([0.05, 0.2, 0.7, None]),
)
@settings(max_examples=30, deadline=None)
def test_delta_stepping_always_matches_dijkstra(n, m, seed, delta):
    """Property: ∆-stepping is exact for every graph and every ∆."""
    g = build_csr(random_graph(n, m, seed))
    source = seed % n
    res = delta_stepping(g, source, delta=delta)
    ref = dijkstra(g, source)
    assert np.array_equal(res.dist, ref.dist)
