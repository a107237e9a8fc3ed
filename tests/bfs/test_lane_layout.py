"""Batched lane layout: ``bfs64`` state is narrow and lane-major on the
ranks, and both batched kernels' ``LanesResult.lane`` returns contiguous
rows.

The oracle is independent of the layout: a ``bfs64`` lane's levels are
the single-root BFS levels, and its parents follow the batched kernel's
rule — the smallest neighbor one level up (the minimum claimant); an
``sssp_batch`` lane is the single-root dist1d answer.
"""

import numpy as np
import pytest

from repro import api
from repro.bfs import bfs
from repro.engine.kernels.bfs64 import BFS64
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker


@pytest.fixture(scope="module")
def kron9():
    return build_csr(generate_kronecker(9, seed=4))


def _min_claimant_parents(graph, root, level):
    n = graph.num_vertices
    parent = np.full(n, n, dtype=np.int64)
    src = np.repeat(np.arange(n), graph.out_degree)
    claim = (level[graph.adj] >= 0) & (level[src] == level[graph.adj] + 1)
    np.minimum.at(parent, src[claim], graph.adj[claim])
    parent[parent == n] = -1
    parent[root] = root
    return parent


BACKENDS = ["serial", "thread", "process"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_lane_returns_contiguous_int64_columns(kron9, backend):
    roots = np.argsort(-kron9.out_degree, kind="stable")[[0, 3, 30, 300, 500]]
    run = api.run(
        kron9, roots.tolist(), kernel="bfs64", num_ranks=4,
        executor=backend, workers=2,
    )
    result = run.result
    assert result.parent.shape == (kron9.num_vertices, roots.size)
    assert result.parent.flags.f_contiguous and result.level.flags.f_contiguous
    for i, root in enumerate(map(int, roots)):
        lane = result.lane(i)
        for column in (lane.parent, lane.level):
            assert column.dtype == np.int64 and column.flags.c_contiguous
        want_level = bfs(kron9, root).level
        np.testing.assert_array_equal(lane.level, want_level)
        np.testing.assert_array_equal(
            lane.parent, _min_claimant_parents(kron9, root, want_level)
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_sssp_batch_lane_returns_contiguous_rows(kron9, backend):
    roots = np.argsort(-kron9.out_degree, kind="stable")[[0, 3, 30, 300, 500]]
    run = api.run(
        kron9, roots.tolist(), kernel="sssp_batch", num_ranks=4,
        executor=backend, workers=2,
    )
    result = run.result
    assert result.dist.shape == (kron9.num_vertices, roots.size)
    assert result.dist.flags.f_contiguous and result.parent.flags.f_contiguous
    for i, root in enumerate(map(int, roots)):
        lane = result.lane(i)
        assert lane.dist.dtype == np.float64 and lane.dist.flags.c_contiguous
        assert lane.parent.dtype == np.int64 and lane.parent.flags.c_contiguous
        want = api.run(kron9, root, num_ranks=4).result
        np.testing.assert_array_equal(lane.dist, want.dist)
        np.testing.assert_array_equal(lane.parent, want.parent)


@pytest.mark.parametrize("peel_floor", [0, 2**62], ids=["peel_only", "tail_only"])
def test_both_claim_paths_pick_the_min_claimant(kron9, monkeypatch, peel_floor):
    """A floor of 0 resolves every claim by peel rounds; a floor above any
    message count leaves every claim to the folded tail."""
    monkeypatch.setattr(BFS64, "peel_floor", peel_floor)
    roots = np.argsort(-kron9.out_degree, kind="stable")[[0, 1, 3, 30, 300, 500]]
    result = api.run(kron9, roots.tolist(), kernel="bfs64", num_ranks=4).result
    for i, root in enumerate(map(int, roots)):
        want_level = bfs(kron9, root).level
        np.testing.assert_array_equal(result.level[:, i], want_level)
        np.testing.assert_array_equal(
            result.parent[:, i], _min_claimant_parents(kron9, root, want_level)
        )


def test_rank_state_is_narrow_and_lane_major(kron9):
    """Parents and levels of n = 512 vertices fit int16: half of int32."""
    from repro.engine.protocol import RankContext

    lo, hi = 100, 300
    ctx = RankContext(
        rank=0, num_ranks=1, num_vertices=kron9.num_vertices, lo=lo, hi=hi,
        local_graph=kron9.extract_rows(np.arange(lo, hi)), starts=np.array([lo, hi]),
    )
    state = BFS64([5, 150, 299]).init_state(ctx)
    for name in ("parent", "level"):
        assert state[name].shape == (3, hi - lo)
        assert state[name].dtype == np.int16
    assert state["parent"][1, 50] == 150 and state["level"][1, 50] == 0
    assert state["parent"][2, 199] == 299
    assert np.count_nonzero(state["level"] >= 0) == 2
