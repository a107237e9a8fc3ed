"""Tests for 1-D partitioners."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph.synth import star_graph
from repro.partition.metrics import evaluate_partition
from repro.partition.oned import Partition1D, block1d, block1d_edge_balanced, hashed1d


class TestBlock1D:
    def test_even_split(self):
        p = block1d(12, 4)
        assert np.array_equal(p.counts(), [3, 3, 3, 3])

    def test_uneven_split_front_loaded(self):
        p = block1d(10, 4)
        assert np.array_equal(p.counts(), [3, 3, 2, 2])

    def test_contiguous(self):
        p = block1d(10, 3)
        owners = p.owner_of(np.arange(10))
        assert np.all(np.diff(owners) >= 0)

    def test_more_ranks_than_vertices(self):
        p = block1d(2, 5)
        assert p.counts().sum() == 2
        assert p.counts().max() == 1

    def test_vertices_of_roundtrip(self):
        p = block1d(10, 3)
        all_v = np.concatenate([p.vertices_of(r) for r in range(3)])
        assert np.array_equal(np.sort(all_v), np.arange(10))

    def test_single_rank(self):
        p = block1d(7, 1)
        assert np.array_equal(p.vertices_of(0), np.arange(7))

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            block1d(5, 0)

    def test_rank_out_of_range(self):
        with pytest.raises(IndexError):
            block1d(5, 2).vertices_of(2)


class TestHashed1D:
    def test_partition_complete(self):
        p = hashed1d(100, 7)
        assert p.counts().sum() == 100

    def test_deterministic(self):
        a = hashed1d(50, 4, seed=3).owner_of(np.arange(50))
        b = hashed1d(50, 4, seed=3).owner_of(np.arange(50))
        assert np.array_equal(a, b)

    def test_seed_matters(self):
        a = hashed1d(200, 4, seed=1).owner_of(np.arange(200))
        b = hashed1d(200, 4, seed=2).owner_of(np.arange(200))
        assert not np.array_equal(a, b)

    def test_roughly_balanced(self):
        p = hashed1d(10_000, 8)
        counts = p.counts()
        assert counts.max() / counts.mean() < 1.15


class TestEdgeBalanced:
    def test_balances_kronecker_edges(self):
        g = build_csr(generate_kronecker(12))
        naive = evaluate_partition(g, block1d(g.num_vertices, 8))
        balanced = evaluate_partition(g, block1d_edge_balanced(g, 8))
        assert balanced.edge_imbalance < naive.edge_imbalance
        assert balanced.edge_imbalance < 1.6

    def test_star_hub_cannot_be_split(self):
        """A single hub bounds what any vertex-granularity partition can do."""
        g = build_csr(star_graph(1000))
        m = evaluate_partition(g, block1d_edge_balanced(g, 4))
        # Hub holds ~half of all directed edges; max/mean >= ~2 regardless.
        assert m.edge_imbalance > 1.9

    def test_covers_all_vertices(self):
        g = build_csr(generate_kronecker(8))
        p = block1d_edge_balanced(g, 5)
        assert p.counts().sum() == g.num_vertices

    def test_single_rank(self):
        g = build_csr(generate_kronecker(6))
        p = block1d_edge_balanced(g, 1)
        assert p.counts()[0] == g.num_vertices


class TestPartition1DValidation:
    def test_bad_owner_values(self):
        with pytest.raises(ValueError):
            Partition1D(np.array([0, 5], dtype=np.int32), 2, "x")
        with pytest.raises(ValueError):
            Partition1D(np.array([-1], dtype=np.int32), 2, "x")

    def test_owner_array_readonly(self):
        p = block1d(5, 2)
        with pytest.raises(ValueError):
            p.owner_array[0] = 1


@given(n=st.integers(1, 500), ranks=st.integers(1, 16))
@settings(max_examples=40, deadline=None)
def test_block1d_properties(n, ranks):
    """Property: block1d is a balanced contiguous total assignment."""
    p = block1d(n, ranks)
    counts = p.counts()
    assert counts.sum() == n
    assert counts.max() - counts.min() <= 1
    owners = p.owner_of(np.arange(n))
    assert np.all(np.diff(owners) >= 0)


class TestRangeBoundaries:
    """Contiguous partitions keep ``starts``; the owner array is lazy."""

    @pytest.mark.parametrize("build", [
        lambda g: block1d(g.num_vertices, 5),
        lambda g: block1d_edge_balanced(g, 5),
    ])
    def test_starts_kept_and_owner_array_built_on_ask(self, build):
        from repro.engine.rank import OwnerRouter

        g = build_csr(generate_kronecker(8, seed=2))
        p = build(g)
        assert p._owner is None
        assert p.starts.shape == (6,) and p.starts[0] == 0 and p.starts[-1] == 256
        np.testing.assert_array_equal(p.counts(), np.diff(p.starts))
        router = OwnerRouter(p)
        assert router.starts is p.starts
        assert p._owner is None
        np.testing.assert_array_equal(p.vertices_of(2), np.arange(p.starts[2], p.starts[3]))
        assert p._owner is None
        owners = p.owner_of(np.arange(256))
        np.testing.assert_array_equal(owners, np.repeat(np.arange(5), p.counts()))
        np.testing.assert_array_equal(router.owners(np.arange(256)), owners)

    def test_owner_array_input(self):
        contiguous = Partition1D(np.array([0, 0, 2, 2, 2]), 4, "x")
        np.testing.assert_array_equal(contiguous.starts, [0, 2, 2, 5, 5])
        scattered = hashed1d(64, 4, seed=1)
        assert scattered.starts is None
        np.testing.assert_array_equal(
            np.sort(np.concatenate([scattered.vertices_of(r) for r in range(4)])),
            np.arange(64),
        )
