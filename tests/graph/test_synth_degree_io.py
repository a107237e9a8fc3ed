"""Tests for synthetic generators, degree analysis and graph I/O."""

import numpy as np
import pytest

from repro.graph.csr import build_csr
from repro.graph.degree import degree_stats, hub_vertices
from repro.graph.io import load_graph, save_graph
from repro.graph.synth import grid_graph, path_graph, random_graph, star_graph
from repro.graph.types import EdgeList


class TestSynth:
    def test_path(self):
        el = path_graph(5, weight=2.0)
        assert el.num_edges == 4
        assert np.all(el.weight == 2.0)

    def test_star(self):
        g = build_csr(star_graph(10))
        assert g.neighbors(0).size == 9

    def test_grid_dims(self):
        el = grid_graph(3, 4)
        assert el.num_vertices == 12
        assert el.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_grid_random_weights(self):
        el = grid_graph(4, 4, seed=1)
        assert el.weight.min() >= 0 and el.weight.max() < 1
        assert np.unique(el.weight).size > 1

    def test_random_graph_bounds(self):
        el = random_graph(10, 100, seed=2)
        assert el.src.max() < 10 and el.dst.max() < 10

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            path_graph(0)
        with pytest.raises(ValueError):
            grid_graph(0, 5)
        with pytest.raises(ValueError):
            star_graph(0)
        with pytest.raises(ValueError):
            random_graph(0, 5)


class TestDegree:
    def test_star_stats(self):
        g = build_csr(star_graph(101))
        stats = degree_stats(g)
        assert stats.max_degree == 100
        assert stats.isolated == 0
        # Symmetrized star: hub holds half the directed edges, each leaf one.
        assert stats.gini == pytest.approx(0.49, abs=0.01)

    def test_uniform_low_gini(self):
        g = build_csr(grid_graph(10, 10))
        assert degree_stats(g).gini < 0.2

    def test_hub_by_threshold(self):
        g = build_csr(star_graph(50))
        hubs = hub_vertices(g, threshold=10)
        assert list(hubs) == [0]

    def test_hub_by_topk(self):
        g = build_csr(star_graph(50))
        hubs = hub_vertices(g, top_k=3)
        assert hubs[0] == 0
        assert hubs.size == 3

    def test_hub_requires_exactly_one_mode(self):
        g = build_csr(path_graph(4))
        with pytest.raises(ValueError):
            hub_vertices(g)
        with pytest.raises(ValueError):
            hub_vertices(g, threshold=1, top_k=1)

    def test_hub_topk_zero(self):
        g = build_csr(path_graph(4))
        assert hub_vertices(g, top_k=0).size == 0


class TestIO:
    def test_roundtrip(self, tmp_path):
        g = build_csr(random_graph(30, 200, seed=3))
        p = tmp_path / "g.npz"
        save_graph(g, p)
        g2 = load_graph(p)
        assert g2.num_vertices == g.num_vertices
        assert np.array_equal(g2.indptr, g.indptr)
        assert np.array_equal(g2.adj, g.adj)
        assert np.array_equal(g2.weight, g.weight)

    def test_creates_parent_dirs(self, tmp_path):
        g = build_csr(path_graph(3))
        p = tmp_path / "a" / "b" / "g.npz"
        save_graph(g, p)
        assert load_graph(p).num_vertices == 3

    @pytest.mark.parametrize("bad", [7, -1])
    def test_out_of_range_adjacency_rejected(self, tmp_path, bad):
        g = build_csr(path_graph(3))
        adj = g.adj.copy()
        adj[-1] = bad
        p = tmp_path / "tampered.npz"
        np.savez_compressed(
            p, version=np.int64(1), num_vertices=np.int64(3),
            indptr=g.indptr, adj=adj, weight=g.weight,
        )
        with pytest.raises(ValueError, match=rf"tampered\.npz: .*vertex id {bad}\b"):
            load_graph(p)


class TestEdgeList:
    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            EdgeList(np.array([0]), np.array([1, 2]), np.array([1.0]), 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            EdgeList(np.array([0]), np.array([5]), np.array([1.0]), 3)
        with pytest.raises(ValueError):
            EdgeList(np.array([-1]), np.array([0]), np.array([1.0]), 3)

    def test_select(self):
        el = path_graph(5)
        sub = el.select(el.weight > 0)
        assert sub.num_edges == el.num_edges

    def test_reversed(self):
        el = path_graph(3)
        rev = el.reversed()
        assert np.array_equal(rev.src, el.dst)
        assert np.array_equal(rev.dst, el.src)
