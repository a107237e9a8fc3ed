"""Tests for CSR construction (Graph500 kernel 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph, _key_order, _ranges_to_indices, build_csr, unique_first
from repro.graph.synth import grid_graph, path_graph, random_graph, star_graph
from repro.graph.types import EdgeList


def _el(src, dst, w, n):
    return EdgeList(np.array(src), np.array(dst), np.array(w, dtype=float), n)


class TestBuildCSR:
    def test_simple_triangle(self):
        g = build_csr(_el([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0], 3))
        assert g.num_edges == 6  # symmetrized
        assert list(g.neighbors(0)) == [1, 2]
        assert g.edge_weight(0, 1) == 1.0
        assert g.edge_weight(1, 0) == 1.0  # symmetric copy

    def test_no_symmetrize(self):
        g = build_csr(_el([0], [1], [1.0], 2), symmetrize=False)
        assert g.num_edges == 1
        assert g.neighbors(1).size == 0

    def test_self_loops_dropped(self):
        g = build_csr(_el([0, 1], [0, 1], [1.0, 1.0], 2))
        assert g.num_edges == 0

    def test_self_loops_kept_when_asked(self):
        g = build_csr(_el([0], [0], [1.0], 1), drop_self_loops=False, symmetrize=False)
        assert g.num_edges == 1

    def test_dedup_keeps_min_weight(self):
        g = build_csr(_el([0, 0, 0], [1, 1, 1], [3.0, 1.0, 2.0], 2), symmetrize=False)
        assert g.num_edges == 1
        assert g.edge_weight(0, 1) == 1.0

    def test_dedup_disabled_keeps_parallel_edges(self):
        g = build_csr(_el([0, 0], [1, 1], [3.0, 1.0], 2), symmetrize=False, dedup=False)
        assert g.num_edges == 2

    def test_adjacency_sorted(self):
        g = build_csr(_el([0, 0, 0], [5, 2, 9], [1, 1, 1], 10), symmetrize=False)
        assert list(g.neighbors(0)) == [2, 5, 9]

    def test_only_a_symmetrized_build_is_flagged_symmetric(self, tmp_path):
        from repro.graph.dist_build import distributed_construction
        from repro.graph.io import load_graph, save_graph
        from repro.graph.kronecker import KroneckerSpec

        el = _el([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0], 3)
        g = build_csr(el)
        assert g.symmetric is True
        assert build_csr(el, drop_self_loops=False, dedup=False).symmetric is True
        assert build_csr(el, symmetrize=False).symmetric is False
        # Symmetric data says nothing: only the build makes the promise.
        assert CSRGraph(g.indptr, g.adj, g.weight, g.num_vertices).symmetric is False
        assert g.subgraph_rows(np.arange(3)).symmetric is False
        assert g.extract_rows(np.arange(3)).symmetric is False
        save_graph(g, tmp_path / "g.npz")
        assert load_graph(tmp_path / "g.npz").symmetric is False
        assert distributed_construction(KroneckerSpec(scale=6), num_ranks=2).graph.symmetric is False

    def test_empty_graph(self):
        g = build_csr(_el([], [], [], 5))
        assert g.num_edges == 0
        assert g.num_vertices == 5
        assert np.array_equal(g.out_degree, np.zeros(5))

    def test_has_edge(self):
        g = build_csr(_el([0], [1], [1.0], 3))
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_edge_weight_missing_raises(self):
        g = build_csr(_el([0], [1], [1.0], 3))
        with pytest.raises(KeyError):
            g.edge_weight(0, 2)

    def test_degree_of(self):
        g = build_csr(star_graph(5))
        assert g.degree_of(np.array([0]))[0] == 4
        assert np.array_equal(g.degree_of(np.array([1, 2])), [1, 1])

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2]), np.array([1]), np.array([1.0]), 1)

    def test_grid_structure(self):
        g = build_csr(grid_graph(3, 3))
        # Corner has 2 neighbors, center has 4.
        assert g.neighbors(0).size == 2
        assert g.neighbors(4).size == 4
        assert g.num_edges == 2 * 12  # 12 undirected grid edges


class TestSubgraphRows:
    def test_keeps_selected_rows(self):
        g = build_csr(grid_graph(4, 4))
        rows = np.array([0, 5, 10])
        sub = g.subgraph_rows(rows)
        for v in rows:
            assert np.array_equal(sub.neighbors(v), g.neighbors(v))
        assert sub.neighbors(1).size == 0
        assert sub.num_vertices == g.num_vertices

    def test_empty_selection(self):
        g = build_csr(path_graph(5))
        sub = g.subgraph_rows(np.array([], dtype=np.int64))
        assert sub.num_edges == 0


class TestRangesToIndices:
    def test_basic(self):
        out = _ranges_to_indices(np.array([0, 5]), np.array([3, 7]))
        assert list(out) == [0, 1, 2, 5, 6]

    def test_with_empty_ranges(self):
        out = _ranges_to_indices(np.array([2, 4, 4, 9]), np.array([2, 6, 4, 10]))
        assert list(out) == [4, 5, 9]

    def test_all_empty(self):
        out = _ranges_to_indices(np.array([1, 2]), np.array([1, 2]))
        assert out.size == 0

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 10)), max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_matches_naive(self, pairs):
        starts = np.array([p[0] for p in pairs], dtype=np.int64)
        stops = starts + np.array([p[1] for p in pairs], dtype=np.int64)
        expected = np.concatenate(
            [np.arange(a, b) for a, b in zip(starts, stops)] or [np.empty(0, dtype=np.int64)]
        )
        assert np.array_equal(_ranges_to_indices(starts, stops), expected)


@given(n=st.integers(2, 40), m=st.integers(0, 200), seed=st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_csr_roundtrip_properties(n, m, seed):
    """Property: CSR construction preserves reachability-relevant structure."""
    el = random_graph(n, m, seed)
    g = build_csr(el)
    # Every non-self-loop input edge must be present with weight <= input.
    mask = el.src != el.dst
    for u, v, w in zip(el.src[mask][:50], el.dst[mask][:50], el.weight[mask][:50]):
        assert g.has_edge(u, v)
        assert g.edge_weight(u, v) <= w + 1e-12
        assert g.has_edge(v, u)
    # Degrees sum to edge count; adjacency sorted per row.
    assert g.out_degree.sum() == g.num_edges
    for v in range(n):
        nbrs = g.neighbors(v)
        assert np.all(np.diff(nbrs) > 0)  # strictly increasing (deduped)


def _lexsort_build(edges, symmetrize, drop_self_loops, dedup):
    """Oracle: the CSR build by ``np.lexsort`` and run-length reduction."""
    n = edges.num_vertices
    src, dst, w = edges.src, edges.dst, edges.weight
    if symmetrize:
        src, dst, w = np.r_[src, edges.dst], np.r_[dst, edges.src], np.r_[w, edges.weight]
    if drop_self_loops:
        keep = src != dst
        src, dst, w = src[keep], dst[keep], w[keep]
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    if dedup and src.size:
        first = np.r_[True, (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])]
        starts = np.flatnonzero(first)
        w = np.minimum.reduceat(w, starts)
        src, dst = src[starts], dst[starts]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst, w


@st.composite
def _multigraphs(draw):
    """Small multigraphs: self-loops, parallel edges with distinct weights,
    isolated vertices (ids drawn from a prefix of the vertex range), n = 1."""
    n = draw(st.integers(1, 9))
    used = draw(st.integers(1, n))
    m = draw(st.integers(0, 30))
    ends = st.lists(st.integers(0, used - 1), min_size=m, max_size=m)
    src, dst = draw(ends), draw(ends)
    weights = draw(st.lists(
        st.floats(0.001, 1.0, allow_nan=False), min_size=m, max_size=m, unique=True
    ))
    return EdgeList(np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
                    np.array(weights, dtype=np.float64), n)


@given(edges=_multigraphs(), symmetrize=st.booleans(), drop=st.booleans(), dedup=st.booleans())
@settings(max_examples=200, deadline=None)
def test_build_csr_matches_lexsort_oracle(edges, symmetrize, drop, dedup):
    graph = build_csr(edges, symmetrize=symmetrize, drop_self_loops=drop, dedup=dedup)
    indptr, adj, weight = _lexsort_build(edges, symmetrize, drop, dedup)
    assert np.array_equal(graph.indptr, indptr)
    assert np.array_equal(graph.adj, adj)
    assert np.array_equal(graph.weight, weight)


@pytest.mark.parametrize("m", [1, 2, 5, 40])
def test_edge_order_both_key_widths_equal_lexsort(m):
    """At n = 2^31 a pair key takes 62 bits: up to 2 edges the packed key
    (pair << b | position) fits in 63 bits, from 3 edges on the order falls
    back to a stable argsort of the pairs.  ``build_csr`` itself would
    allocate an n-sized indptr, so the helper is called directly."""
    n = 1 << 31
    gen = np.random.default_rng(m)
    src = gen.integers(n - 4, n, size=m)  # high ids, and repeated pairs
    dst = gen.integers(n - 3, n, size=m)
    order, pairs = _key_order(src * n + dst, n * n)
    expected = np.lexsort((dst, src))
    assert np.array_equal(order, expected)
    assert np.array_equal(pairs, (src * n + dst)[expected])
    packed = (n * n - 1).bit_length() + (m - 1).bit_length() <= 63
    assert packed == (m <= 2)


def test_edge_order_packed_key_small_graph():
    gen = np.random.default_rng(0)
    n, m = 50, 3000
    src, dst = gen.integers(0, n, size=m), gen.integers(0, n, size=m)
    order, pairs = _key_order(src * n + dst, n * n)
    assert np.array_equal(order, np.lexsort((dst, src)))
    assert np.array_equal(pairs // n, src[order]) and np.array_equal(pairs % n, dst[order])


def test_build_csr_rejects_vertex_counts_whose_pair_keys_overflow():
    edges = EdgeList(np.array([0]), np.array([1]), np.array([0.5]), 1 << 32)
    with pytest.raises(ValueError, match="overflow int64"):
        build_csr(edges)


@pytest.mark.parametrize("bound", [50, 1 << 62])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 1000])
def test_unique_first_equals_np_unique(m, bound):
    """Packed ``(key, position)`` sort at a small bound; from 3 keys on,
    keys below 2^62 leave no room for a position and take the stable
    argsort fallback."""
    keys = np.random.default_rng(m).integers(max(bound - 60, 0), bound, size=m)
    want, want_first = np.unique(keys, return_index=True)
    got, got_first = unique_first(keys.copy(), bound)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got_first, want_first)
    assert got.dtype == got_first.dtype == np.int64


def test_sorted_set_equals_np_unique():
    from repro.bfs.kernel import _sorted_set

    ids = np.random.default_rng(1).integers(0, 300, size=2000)
    np.testing.assert_array_equal(_sorted_set(ids, 300), np.unique(ids))
    assert _sorted_set(ids[:0], 300).size == 0
