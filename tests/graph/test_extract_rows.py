"""Unit tests for CSRGraph.extract_rows (renumbered owned-local CSR)."""

import hashlib

import numpy as np
import pytest

from repro import run
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker


def _graph():
    return build_csr(generate_kronecker(7, seed=11))


def test_rows_renumbered_columns_global():
    g = _graph()
    rows = np.array([3, 10, 64, 100], dtype=np.int64)
    sub = g.extract_rows(rows)
    assert sub.num_vertices == rows.size
    assert sub.indptr.size == rows.size + 1
    for i, v in enumerate(rows):
        np.testing.assert_array_equal(sub.neighbors(i), g.neighbors(int(v)))
        np.testing.assert_array_equal(sub.neighbor_weights(i), g.neighbor_weights(int(v)))


def test_adjacency_bytes_identical_to_dense_subgraph():
    g = _graph()
    rows = np.arange(20, 60, dtype=np.int64)
    sub = g.extract_rows(rows)
    dense = g.subgraph_rows(rows)
    np.testing.assert_array_equal(sub.adj, dense.adj[dense.indptr[20] :])
    np.testing.assert_array_equal(sub.weight, dense.weight[dense.indptr[20] :])


def test_keep_mask_blanks_rows():
    g = _graph()
    rows = np.array([5, 6, 7], dtype=np.int64)
    keep = np.array([True, False, True])
    sub = g.extract_rows(rows, keep=keep)
    np.testing.assert_array_equal(sub.neighbors(0), g.neighbors(5))
    assert sub.neighbors(1).size == 0
    np.testing.assert_array_equal(sub.neighbors(2), g.neighbors(7))


def test_empty_rows():
    g = _graph()
    sub = g.extract_rows(np.empty(0, dtype=np.int64))
    assert sub.num_vertices == 0
    assert sub.num_edges == 0
    assert sub.indptr.size == 1


def test_indptr_is_owned_sized_not_dense():
    g = _graph()
    rows = np.array([0, 127], dtype=np.int64)
    sub = g.extract_rows(rows)
    assert sub.indptr.size == 3  # not num_vertices + 1
    assert sub.num_edges == g.degree_of(rows).sum()


def _gathered(g, rows):
    """The gather path for the same rows: an all-True ``keep`` copies."""
    return g.extract_rows(rows, keep=np.ones(len(rows), dtype=bool))


def test_owned_range_is_a_read_only_view():
    g = _graph()
    rows = np.arange(20, 60, dtype=np.int64)
    sub = g.extract_rows(rows)
    want = _gathered(g, rows)
    for name in ("indptr", "adj", "weight"):
        np.testing.assert_array_equal(getattr(sub, name), getattr(want, name))
    assert np.shares_memory(sub.adj, g.adj)
    assert np.shares_memory(sub.weight, g.weight)
    with pytest.raises(ValueError):
        sub.adj[0] = 0
    with pytest.raises(ValueError):
        sub.weight[0] = 0.0
    # The graph's own arrays stay writable.
    assert g.adj.flags.writeable and g.weight.flags.writeable


@pytest.mark.parametrize(
    "rows,keep",
    [
        (np.array([3, 10, 64, 100]), None),  # not contiguous
        (np.array([12, 11, 10]), None),  # contiguous but descending
        (np.arange(20, 60), np.ones(40, dtype=bool)),  # keep= given
        (np.empty(0, dtype=np.int64), None),  # empty
    ],
)
def test_other_inputs_still_gather(rows, keep):
    g = _graph()
    sub = g.extract_rows(rows.astype(np.int64), keep=keep)
    assert not np.shares_memory(sub.adj, g.adj)
    assert not np.shares_memory(sub.weight, g.weight)
    assert sub.adj.flags.writeable and sub.weight.flags.writeable


def _digest(g):
    return [hashlib.sha256(a.tobytes()).hexdigest() for a in (g.indptr, g.adj, g.weight)]


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_runs_leave_the_input_graph_untouched(executor):
    g = _graph()
    before = _digest(g)
    roots = [0, 5, 9]
    for kernel, source in (("bfs", 0), ("bfs64", roots), ("sssp_batch", roots), ("cc", None)):
        res = run(g, source, kernel=kernel, num_ranks=4, executor=executor, workers=2)
        assert res.result.validate(g).ok, kernel
    assert _digest(g) == before
