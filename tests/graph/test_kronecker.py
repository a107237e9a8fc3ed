"""Tests for the Graph500 Kronecker generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import build_csr
from repro.graph.degree import degree_stats
from repro.graph import kronecker
from repro.graph.kronecker import KroneckerSpec, generate_kronecker, kronecker_edge_slice


class TestSpec:
    def test_counts(self):
        spec = KroneckerSpec(scale=10, edgefactor=16)
        assert spec.num_vertices == 1024
        assert spec.num_edges == 16384

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            KroneckerSpec(scale=0)
        with pytest.raises(ValueError):
            KroneckerSpec(scale=49)

    def test_invalid_edgefactor(self):
        with pytest.raises(ValueError):
            KroneckerSpec(scale=4, edgefactor=0)


class TestGenerator:
    def test_edge_count_matches_spec(self):
        el = generate_kronecker(8)
        assert el.num_edges == 16 * 256
        assert el.num_vertices == 256

    def test_deterministic(self):
        a = generate_kronecker(8, seed=5)
        b = generate_kronecker(8, seed=5)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.dst, b.dst)
        assert np.array_equal(a.weight, b.weight)

    def test_seed_changes_graph(self):
        a = generate_kronecker(8, seed=5)
        b = generate_kronecker(8, seed=6)
        assert not np.array_equal(a.src, b.src)

    def test_weights_positive_unit_interval(self):
        """Spec: weights are uniform on (0, 1] — strictly positive."""
        el = generate_kronecker(10)
        assert el.weight.min() > 0.0
        assert el.weight.max() <= 1.0

    def test_vertex_ids_in_range(self):
        el = generate_kronecker(9)
        assert el.src.min() >= 0 and el.src.max() < 512
        assert el.dst.min() >= 0 and el.dst.max() < 512

    def test_skewed_degree_distribution(self):
        """The Kronecker recurrence must produce scale-free hubs."""
        g = build_csr(generate_kronecker(12))
        stats = degree_stats(g)
        # At scale 12 with edgefactor 16, mean degree ~<= 32 but the largest
        # hub should exceed 10x the mean, and skew (gini) should be high.
        assert stats.max_degree > 10 * stats.mean_degree
        assert stats.gini > 0.5
        assert stats.top_k_edge_share > 0.05

    def test_permutation_destroys_id_locality(self):
        """Without relabeling, low ids would hoard all edges (A=0.57)."""
        el = generate_kronecker(12)
        n = el.num_vertices
        low_half = np.count_nonzero(el.src < n // 2) / el.num_edges
        assert 0.3 < low_half < 0.8  # far from the ~0.95 of the raw recurrence


class TestSlices:
    def test_slices_concatenate_to_full(self):
        spec = KroneckerSpec(scale=8, seed=3)
        full = kronecker_edge_slice(spec, 0, spec.num_edges)
        cut = spec.num_edges // 3
        a = kronecker_edge_slice(spec, 0, cut)
        b = kronecker_edge_slice(spec, cut, spec.num_edges)
        assert np.array_equal(np.concatenate([a.src, b.src]), full.src)
        assert np.array_equal(np.concatenate([a.dst, b.dst]), full.dst)
        assert np.array_equal(np.concatenate([a.weight, b.weight]), full.weight)

    def test_empty_slice(self):
        spec = KroneckerSpec(scale=6)
        el = kronecker_edge_slice(spec, 10, 10)
        assert el.num_edges == 0

    def test_invalid_slice_rejected(self):
        spec = KroneckerSpec(scale=6)
        with pytest.raises(ValueError):
            kronecker_edge_slice(spec, 5, 3)
        with pytest.raises(ValueError):
            kronecker_edge_slice(spec, 0, spec.num_edges + 1)

    @given(
        scale=st.integers(4, 9),
        seed=st.integers(0, 1000),
        nparts=st.integers(1, 7),
    )
    @settings(max_examples=15, deadline=None)
    def test_any_partitioning_reconstructs(self, scale, seed, nparts):
        """Property: any contiguous slicing reproduces the full edge list."""
        spec = KroneckerSpec(scale=scale, seed=seed)
        full = kronecker_edge_slice(spec, 0, spec.num_edges)
        bounds = np.linspace(0, spec.num_edges, nparts + 1).astype(int)
        srcs = [kronecker_edge_slice(spec, bounds[i], bounds[i + 1]).src for i in range(nparts)]
        assert np.array_equal(np.concatenate(srcs), full.src)


def _float_rule(word: int, threshold: float) -> bool:
    """The quadrant rule on the uniform double: float64(word) * 2^-64 >= t."""
    return bool(np.array(word, dtype=np.uint64).astype(np.float64) * 2.0**-64 >= threshold)


@pytest.mark.parametrize(
    "cut,threshold",
    [
        (kronecker._CUT_A, kronecker._A),
        (kronecker._CUT_AB, kronecker._A + kronecker._B),
        (kronecker._CUT_ABC, kronecker._A + kronecker._B + kronecker._C),
    ],
    ids=["A", "A+B", "A+B+C"],
)
def test_cut_point_is_the_first_word_the_float_rule_accepts(cut, threshold):
    """Comparing the word against T is the float comparison, exactly: the
    rule holds at T and fails at T - 1 (and it is monotone in the word)."""
    assert isinstance(cut, np.uint64)
    t = int(cut)
    assert _float_rule(t, threshold)
    assert not _float_rule(t - 1, threshold)
    assert _float_rule(t + 1, threshold) and not _float_rule(t - 2048, threshold)
