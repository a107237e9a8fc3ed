"""The early-exit bottom-up scan against a full-row reference scan.

``_full_scan`` is the reference: it gathers every edge of every unvisited
row, then charges each row only up to its first frontier neighbor.  The
column-probing, then chunked scan (``_bottom_up_step``) must return the
same ``found``, write the same parents and charge the same ``scanned`` on
any CSR — including the ones ``build_csr`` never makes (self-loops,
duplicate neighbors) — the shared and distributed engines must keep
charging the same BFS work, and neither may hand the scan a row it
cannot find (degree 0, or claimed at an earlier level).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run
from repro.bfs import bfs, kernel
from repro.bfs.kernel import BOTTOM_UP_CHUNKS, _bottom_up_step
from repro.core.relaxation import frontier_edges
from repro.engine.kernels import bfs as dist_kernel
from repro.graph.csr import CSRGraph, build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph.types import EdgeList


def _full_scan(graph, unvisited, in_frontier, parent):
    src, dst, _ = frontier_edges(graph, unvisited)
    if src.size == 0:
        return np.empty(0, dtype=np.int64), 0
    deg = graph.degree_of(unvisited)
    row_of_edge = np.repeat(np.arange(unvisited.size, dtype=np.int64), deg)
    offsets = np.zeros(unvisited.size, dtype=np.int64)
    np.cumsum(deg[:-1], out=offsets[1:])
    within_row = np.arange(src.size, dtype=np.int64) - offsets[row_of_edge]
    hits = in_frontier[dst]
    first_hit = deg.copy()
    np.minimum.at(first_hit, row_of_edge[hits], within_row[hits] + 1)
    scanned = int(np.minimum(first_hit, deg).sum())
    found_mask = np.zeros(unvisited.size, dtype=bool)
    found_mask[row_of_edge[hits]] = True
    found = unvisited[found_mask]
    if found.size == 0:
        return np.empty(0, dtype=np.int64), scanned
    hit_pos = offsets[found_mask] + first_hit[found_mask] - 1
    parent[found] = dst[hit_pos]
    return found, scanned


def _chunk_ends(count):
    """The first ``count`` positions where a chunk of the scan ends."""
    width, growth = BOTTOM_UP_CHUNKS
    ends, end = [], 0
    for _ in range(count):
        end += width
        ends.append(end)
        width *= growth
    return ends


#: First-hit positions at every single-column probe and on both sides of
#: the first two chunk boundaries (8 and 40).
_BOUNDARY_HITS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 39, 40)


def _raw_csr(rows, n):
    lens = np.array([r.size for r in rows], dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    adj = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    return CSRGraph(indptr, adj, np.ones(adj.size), n)


@st.composite
def scan_cases(draw):
    """A raw CSR, a sorted ``unvisited`` and a frontier bitmap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 30))
    mode = draw(st.sampled_from(["empty", "all", "mixed"]))
    in_frontier = {
        "empty": np.zeros(n, dtype=bool),
        "all": np.ones(n, dtype=bool),
        "mixed": rng.random(n) < draw(st.sampled_from([0.05, 0.2, 0.5])),
    }[mode]
    # Small n makes self-loops and duplicate neighbors common; degree 0
    # rows are isolated.
    deg = rng.choice([0, 0, 1, 2, 7, 8, 9, 40, 41], size=n)
    if draw(st.booleans()):
        deg[rng.integers(n)] = _chunk_ends(3)[-1] + draw(st.integers(1, 200))
    rows = [rng.integers(0, n, size=d) for d in deg]
    outside = np.flatnonzero(~in_frontier)
    inside = np.flatnonzero(in_frontier)
    planted = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from(_BOUNDARY_HITS)),
            max_size=4,
        )
    )
    if outside.size and inside.size:
        for v, pos in planted:
            row = rng.choice(outside, size=pos + 1 + int(rng.integers(0, 50)))
            row[pos] = rng.choice(inside)
            row[pos + 1 :] = rng.integers(0, n, size=row.size - pos - 1)
            rows[v] = row
    share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    unvisited = np.flatnonzero(rng.random(n) < share)
    if share and planted:
        unvisited = np.union1d(unvisited, [v for v, _ in planted])
    return _raw_csr(rows, n), unvisited.astype(np.int64), in_frontier


@given(scan_cases())
@settings(max_examples=300, deadline=None)
def test_chunked_scan_matches_full_scan(case):
    graph, unvisited, in_frontier = case
    want_parent = np.full(graph.num_vertices, -1, dtype=np.int64)
    got_parent = want_parent.copy()
    want_found, want_scanned = _full_scan(graph, unvisited, in_frontier, want_parent)
    got_found, got_scanned = _bottom_up_step(graph, unvisited, in_frontier, got_parent)
    np.testing.assert_array_equal(got_found, want_found)
    np.testing.assert_array_equal(got_parent, want_parent)
    assert got_scanned == want_scanned


@pytest.mark.parametrize("pos", sorted({*_BOUNDARY_HITS, *_chunk_ends(3), 299}))
def test_first_hit_at_chunk_boundary(pos):
    # Vertex 0 holds one 300-edge row; its only frontier neighbor (1) sits
    # at ``pos`` and every other neighbor is 2, which is not in the frontier.
    row = np.full(300, 2, dtype=np.int64)
    row[pos] = 1
    graph = _raw_csr([row, np.empty(0, np.int64), np.empty(0, np.int64)], 3)
    parent = np.full(3, -1, dtype=np.int64)
    found, scanned = _bottom_up_step(
        graph, np.array([0]), np.array([False, True, False]), parent
    )
    np.testing.assert_array_equal(found, [0])
    assert parent[0] == 1
    assert scanned == pos + 1


def test_no_hit_scans_whole_rows():
    row = np.full(300, 2, dtype=np.int64)
    graph = _raw_csr([row, row[:9], np.empty(0, np.int64)], 3)
    parent = np.full(3, -1, dtype=np.int64)
    found, scanned = _bottom_up_step(
        graph, np.array([0, 1, 2]), np.zeros(3, dtype=bool), parent
    )
    assert found.size == 0
    assert scanned == 309
    assert np.all(parent == -1)


@pytest.fixture(scope="module")
def kron12():
    return build_csr(generate_kronecker(12, seed=5))


@pytest.mark.parametrize("direction", ["auto", "top_down", "bottom_up"])
def test_shared_and_distributed_charge_the_same_work(kron12, direction):
    """Metamorphic: the rank count moves no level and no inspected edge."""
    roots = np.argsort(-kron12.out_degree, kind="stable")[[0, 50, 500]]
    for root in map(int, roots):
        shared = bfs(kron12, root, direction=direction)
        assert shared.counters["edges_inspected"] > 0
        for num_ranks in (1, 3, 16):
            dist = run(
                kron12, root, kernel="bfs", num_ranks=num_ranks, direction=direction
            ).result
            np.testing.assert_array_equal(dist.level, shared.level)
            assert (
                dist.counters["edges_inspected"] == shared.counters["edges_inspected"]
            ), (root, num_ranks)


def _sparse_forest(seed=3):
    """A Kronecker core, many small components and many isolated vertices.

    The core's 256 ids and the paths' ids are scattered over 2048
    vertices; about half the vertices have no edge at all.
    """
    rng = np.random.default_rng(seed)
    n = 2048
    ids = rng.permutation(n)
    core = generate_kronecker(8, seed=seed)
    src, dst = [ids[core.src]], [ids[core.dst]]
    free = iter(ids[256:])
    for length in rng.integers(1, 6, size=120):  # paths of 2..6 vertices
        path = np.array([next(free) for _ in range(length + 1)])
        src.append(path[:-1])
        dst.append(path[1:])
    src, dst = np.concatenate(src), np.concatenate(dst)
    return build_csr(EdgeList(src, dst, np.ones(src.size), n))


@pytest.fixture(scope="module")
def forest():
    return _sparse_forest()


def _roots(graph):
    """A hub, a mid-degree core vertex, a path vertex and an isolated one."""
    deg = graph.out_degree
    order = np.argsort(-deg, kind="stable")
    small = np.flatnonzero((deg > 0) & (deg <= 2))
    return [int(order[0]), int(order[40]), int(small[-1]), int(np.flatnonzero(deg == 0)[0])]


@pytest.mark.parametrize("direction", ["auto", "top_down", "bottom_up"])
def test_isolated_vertices_and_small_components(forest, direction):
    """Levels and inspected edges equal across P and against ``bfs()``;
    parents too wherever the parent rule is the scan's own (pure
    bottom-up: a row's first frontier neighbor)."""
    assert np.count_nonzero(forest.out_degree == 0) > forest.num_vertices // 3
    for root in _roots(forest):
        shared = bfs(forest, root, direction=direction)
        assert shared.validate(forest).ok
        for num_ranks in (1, 3, 16):
            dist = run(
                forest, root, kernel="bfs", num_ranks=num_ranks, direction=direction
            ).result
            np.testing.assert_array_equal(dist.level, shared.level)
            assert dist.counters["edges_inspected"] == shared.counters["edges_inspected"]
            assert dist.validate(forest).ok
            if direction == "bottom_up":
                np.testing.assert_array_equal(dist.parent, shared.parent)


@pytest.mark.parametrize("engine", ["shared", "dist"])
def test_bottom_up_reads_only_rows_it_can_find(forest, kron12, monkeypatch, engine):
    """No bottom-up level hands the scan a degree-0 or visited row."""
    calls = []

    def checked(graph, unvisited, in_frontier, parent):
        assert np.all(graph.degree_of(unvisited) > 0)
        assert np.all(parent[unvisited] == -1)
        assert np.all(np.diff(unvisited) > 0)
        calls.append(unvisited.size)
        return _bottom_up_step(graph, unvisited, in_frontier, parent)

    monkeypatch.setattr(kernel, "_bottom_up_step", checked)
    monkeypatch.setattr(dist_kernel, "_bottom_up_step", checked)
    for graph in (forest, kron12):
        root = int(np.argmax(graph.out_degree))
        for direction in ("auto", "bottom_up"):
            if engine == "shared":
                bfs(graph, root, direction=direction)
            else:
                run(graph, root, kernel="bfs", num_ranks=3, direction=direction)
    assert calls
