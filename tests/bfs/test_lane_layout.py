"""``bfs64`` lane state: narrow and lane-major on the ranks, contiguous
int64 columns out of ``MultiBFSResult.lane``.

The oracle is independent of the layout: a lane's levels are the
single-root BFS levels, and its parents follow the batched kernel's rule
— the smallest neighbor one level up (the minimum claimant).
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


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
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


def test_rank_state_is_narrow_and_lane_major(kron9):
    """Parents and levels of n = 512 vertices fit int16: half of int32."""
    from repro.engine.protocol import RankContext

    lo, hi = 100, 300
    ctx = RankContext(
        rank=0, num_ranks=1, num_vertices=kron9.num_vertices, lo=lo, hi=hi,
        local_graph=kron9.extract_rows(np.arange(lo, hi)),
    )
    state = BFS64([5, 150, 299]).init_state(ctx)
    for name in ("parent", "level"):
        assert state[name].shape == (3, hi - lo)
        assert state[name].dtype == np.int16
    assert state["parent"][1, 50] == 150 and state["level"][1, 50] == 0
    assert state["parent"][2, 199] == 299
    assert np.count_nonzero(state["level"] >= 0) == 2
