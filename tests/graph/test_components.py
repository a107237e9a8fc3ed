"""Tests for connected components and their Graph500 consistency relations."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs import bfs
from repro.graph.components import connected_components
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph.synth import grid_graph, path_graph, random_graph
from repro.graph.types import EdgeList


def scipy_components(graph):
    mat = sp.csr_matrix(
        (np.ones_like(graph.weight), graph.adj, graph.indptr),
        shape=(graph.num_vertices, graph.num_vertices),
    )
    _, labels = csg.connected_components(mat, directed=False)
    return labels


def same_partition(a, b):
    """Two labelings describe the same partition."""
    return len({(x, y) for x, y in zip(a, b)}) == len(set(a)) == len(set(b))


class TestConnectedComponents:
    def test_path_is_one_component(self):
        g = build_csr(path_graph(20))
        labels = connected_components(g)
        assert np.all(labels == 0)

    def test_disconnected_pairs(self):
        el = EdgeList(np.array([0, 2]), np.array([1, 3]), np.array([0.5, 0.5]), 5)
        g = build_csr(el)
        labels = connected_components(g)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]
        assert labels[4] == 4  # isolated

    def test_matches_scipy_on_kronecker(self):
        g = build_csr(generate_kronecker(11, seed=9))
        assert same_partition(connected_components(g), scipy_components(g))

    def test_matches_bfs_reach(self):
        """BFS from a hub reaches exactly its component."""
        g = build_csr(generate_kronecker(10, seed=9))
        src = int(np.argmax(g.out_degree))
        labels = connected_components(g)
        reached = bfs(g, src).level >= 0
        assert np.array_equal(reached, labels == labels[src])

    def test_empty_graph(self):
        g = build_csr(EdgeList(np.array([]), np.array([]), np.array([]), 4))
        assert np.array_equal(connected_components(g), np.arange(4))

    def test_giant_fraction_kronecker(self):
        """The benchmark graph has one giant component holding most
        non-isolated vertices — the property behind the TEPS definition."""
        g = build_csr(generate_kronecker(12, seed=9))
        frac = np.bincount(connected_components(g)).max() / g.num_vertices
        isolated = float(np.count_nonzero(g.out_degree == 0)) / g.num_vertices
        assert frac > 0.9 * (1 - isolated)

    def test_giant_fraction_grid(self):
        g = build_csr(grid_graph(10, 10))
        assert np.bincount(connected_components(g)).max() == g.num_vertices


class TestKroneckerSkewGrowth:
    def test_max_degree_grows_with_scale(self):
        """The hub tail steepens with scale — why delegation matters more
        at record scale than at any scale this repository can run."""
        degrees = [
            build_csr(generate_kronecker(s, seed=4)).out_degree.max() for s in (9, 11, 13)
        ]
        assert degrees[0] < degrees[1] < degrees[2]

    def test_gini_stays_high(self):
        from repro.graph.degree import degree_stats

        for s in (10, 12):
            g = build_csr(generate_kronecker(s, seed=4))
            assert degree_stats(g).gini > 0.6


@given(n=st.integers(2, 60), m=st.integers(0, 200), seed=st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_components_always_match_scipy(n, m, seed):
    """Property: label propagation partitions exactly like scipy."""
    g = build_csr(random_graph(n, m, seed))
    assert same_partition(connected_components(g), scipy_components(g))
