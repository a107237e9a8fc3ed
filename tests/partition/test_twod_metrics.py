"""Tests for the 2-D partition and partition metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph.synth import grid_graph, random_graph
from repro.partition.metrics import evaluate_partition
from repro.partition.oned import block1d, hashed1d
from repro.partition.twod import TwoDPartition, make_grid


class TestMakeGrid:
    def test_perfect_square(self):
        assert make_grid(16) == (4, 4)

    def test_prime(self):
        assert make_grid(7) == (1, 7)

    def test_rectangular(self):
        r, c = make_grid(12)
        assert r * c == 12
        assert r == 3 and c == 4

    def test_one(self):
        assert make_grid(1) == (1, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            make_grid(0)


class TestTwoDPartition:
    def test_every_edge_gets_a_rank(self):
        el = random_graph(100, 500, seed=1)
        part = TwoDPartition(100, 4, 4)
        ranks = part.rank_of_edges(el)
        assert ranks.min() >= 0 and ranks.max() < 16
        assert part.edge_counts(el).sum() == el.num_edges

    def test_block_of_covers_range(self):
        part = TwoDPartition(10, 3, 1)
        rows = part.row_of(np.arange(10))
        # Balanced contiguous: sizes 4, 3, 3.
        assert np.array_equal(rows, [0, 0, 0, 0, 1, 1, 1, 2, 2, 2])

    def test_vertex_count_mismatch(self):
        with pytest.raises(ValueError):
            TwoDPartition(10, 2, 2).rank_of_edges(random_graph(20, 5))

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            TwoDPartition(10, 0, 2)

    def test_2d_balances_hub_edges(self):
        """A 2-D split spreads a hub's edges across a full grid row."""
        g = generate_kronecker(10)
        part = TwoDPartition(g.num_vertices, 4, 4)
        counts = part.edge_counts(g)
        assert counts.max() / counts.mean() < 3.0


class TestMetrics:
    def test_grid_block_partition_low_imbalance(self):
        g = build_csr(grid_graph(16, 16))
        m = evaluate_partition(g, block1d(g.num_vertices, 4))
        assert m.vertex_imbalance == pytest.approx(1.0)
        assert m.edge_imbalance < 1.1

    def test_cut_fraction_bounds(self):
        g = build_csr(generate_kronecker(8))
        m = evaluate_partition(g, hashed1d(g.num_vertices, 4))
        assert 0.0 <= m.cut_fraction <= 1.0
        # Hashed partition on 4 ranks cuts ~3/4 of edges.
        assert m.cut_fraction > 0.5

    def test_single_rank_no_cut(self):
        g = build_csr(grid_graph(5, 5))
        m = evaluate_partition(g, block1d(g.num_vertices, 1))
        assert m.cut_fraction == 0.0
        assert m.edge_imbalance == pytest.approx(1.0)

    def test_mismatch_rejected(self):
        g = build_csr(grid_graph(4, 4))
        with pytest.raises(ValueError):
            evaluate_partition(g, block1d(5, 2))

    def test_row_is_serializable(self):
        g = build_csr(grid_graph(4, 4))
        row = evaluate_partition(g, block1d(g.num_vertices, 2)).row()
        assert row["partition"] == "block1d"
        assert row["ranks"] == 2


@given(n=st.integers(2, 300), rows=st.integers(1, 5), cols=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_twod_blocks_partition_vertices(n, rows, cols):
    """Property: row/col block maps are total and balanced."""
    part = TwoDPartition(n, rows, cols)
    r = part.row_of(np.arange(n))
    c = part.col_of(np.arange(n))
    assert r.min() >= 0 and r.max() < rows
    assert c.min() >= 0 and c.max() < cols
    rcounts = np.bincount(r, minlength=rows)
    assert rcounts[rcounts > 0].max() - rcounts[rcounts > 0].min() <= 1
