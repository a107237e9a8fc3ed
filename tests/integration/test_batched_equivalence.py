"""Batched multi-source kernels must answer each lane bit-identically.

The batched witness cases (``tests/witness.py``: eight sampled roots, 8
ranks, faults and sanitizer off and on) re-run on the thread and process
backends must equal their serial records — each ``sssp_batch`` epoch's
closing heavy-edge pass goes through retransmission, the audits and the
race checker too — and each lane must hash as its single-root run:

* ``sssp_batch``: the lane's dist *and* parent arrays are bitwise equal
  to the shared-memory ∆-stepping answer — an engine independent of the
  lanes, since single-root dist1d SSSP *is* one lane of this kernel (the
  distance fixed point is unique and float64 min over path sums is
  exact; parents come from the same ``derive_parents`` pass).
* ``bfs64``: the lane's level column is bitwise equal to the single-root
  BFS levels (hop distance is unique).  Parent trees are pinned across
  the whole batched matrix (min-claimant rule is order-free) and
  validated per lane — but not digest-compared to the single-root run,
  whose direction-optimizing tie-breaks choose different valid parents.
"""

import numpy as np
import pytest

from repro import api
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from tests import witness

KERNELS = witness.BATCHED
CASES = [c for c in witness.MODE_CASES if c.kernel in KERNELS]
PLAIN = {c.kernel: c for c in CASES if c.mode == "plain"}
NUM_RANKS = PLAIN["bfs64"].num_ranks


@pytest.fixture(scope="module")
def graph(recorder):
    return recorder.graph(*PLAIN["bfs64"].graph)


@pytest.fixture(scope="module")
def roots(recorder):
    return recorder.source(PLAIN["bfs64"])


@pytest.fixture(scope="module")
def single_root_hashes(graph, roots):
    """Per-root reference digests from independent single-root runs."""
    hashes = {}
    for root in roots:
        sssp = api.run(graph, root, kernel="sssp", engine="shared").result
        bfs = api.run(graph, root, kernel="bfs", num_ranks=NUM_RANKS).result
        hashes["sssp", root] = [witness.sha(sssp.dist), witness.sha(sssp.parent)]
        hashes["bfs_level", root] = witness.sha(bfs.level)
    return hashes


@pytest.fixture(scope="module")
def serial_batched(recorder):
    """The serial batched run of each kernel, faults and sanitizer off."""
    return {kernel: recorder.run(case) for kernel, case in PLAIN.items()}


@pytest.mark.parametrize("case,backend", [
    pytest.param(c, b, id=f"{c.kernel}-{b}-{c.mode}")
    for c in CASES for b in ("serial", *witness.PARALLEL)
])
def test_lane_hashes_match_single_root(recorder, roots, single_root_hashes, case, backend):
    variant = case if backend == "serial" else case.variant(backend)
    # The whole matrix is pinned across backends and fault schedules:
    # every lane's answer and parent digest, modeled time, comm, counters.
    witness.assert_same(recorder, case, variant)
    record = recorder.record(variant)
    assert len(record["lanes"]) == len(roots)
    for i, root in enumerate(roots):
        if case.kernel == "sssp_batch":
            # Bitwise per-lane identity with the single-root answer.
            lane = [record["lanes"][i]["dist_sha256"], record["parent_sha256"][i]]
            assert lane == single_root_hashes["sssp", root]
        else:
            assert record["lanes"][i]["level_sha256"] == single_root_hashes["bfs_level", root]
    if case.kernel == "sssp_batch":
        # An epoch is a vote, light passes that each end in a quiescence
        # vote, and exactly one closing heavy pass that needs none.
        assert record["comm"]["supersteps"] == record["comm"]["allreduces"] - 1


@pytest.mark.parametrize("kernel", KERNELS)
def test_batched_lanes_validate(graph, roots, serial_batched, kernel):
    report = serial_batched[kernel].result.validate(graph)
    assert report.ok, report.failures


@pytest.mark.parametrize("backend", witness.PARALLEL)
@pytest.mark.parametrize("kernel", KERNELS)
def test_racecheck_mode_is_bit_identical(recorder, kernel, backend):
    (case,) = (c for c in CASES if c.kernel == kernel and "racecheck" in c.relations)
    checked = case.variant(backend, racecheck=True)
    witness.assert_same(recorder, case, checked)
    audit = recorder.record(checked)["audit"]["racecheck"]
    # Threads are audited by shared-array region, processes by arena handle.
    assert audit["regions_checked"] + audit["handles_checked"] > 0
    assert audit["violations"] == 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_lane_edges_telemetry_totals(graph, roots, serial_batched, kernel):
    """Per-lane attribution sums to the sweep's total scanned edges."""
    result = serial_batched[kernel].result
    lane_edges = result.meta["lane_edges_scanned"]
    assert len(lane_edges) == len(roots)
    assert all(e > 0 for e in lane_edges)
    if kernel == "sssp_batch":
        # sssp lanes share one traversal: union scan <= sum of lane scans.
        assert result.counters.as_dict()["edges_scanned"] <= sum(lane_edges)
    else:
        # bfs64 charges each edge to every lane it advanced.
        assert sum(lane_edges) >= result.counters.as_dict()["edges_scanned"]


def test_sssp_batch_relaxes_each_edge_once(graph, roots, serial_batched):
    """∆-stepping's promise: a settled pair's heavy edges go out once.

    Heavy edges are relaxed by the epoch's closing pass alone, so per lane
    they are scanned exactly once per reached vertex; only light edges
    (``w < ∆``, a few percent) are re-sent when a pair is re-improved
    inside its bucket, which bounds the whole sweep near the floor of one
    scan per reached ``(vertex, lane)`` cell's out-edge.
    """
    result = serial_batched["sssp_batch"].result
    n = graph.num_vertices
    src = np.repeat(np.arange(n), graph.out_degree)
    heavy_degree = np.bincount(src[graph.weight >= result.meta["delta"]], minlength=n)
    reached = np.isfinite(result.dist)
    assert result.meta["lane_heavy_edges_scanned"] == [
        int(heavy_degree[reached[:, i]].sum()) for i in range(len(roots))
    ]
    floor = int(graph.out_degree @ reached.sum(axis=1))
    assert floor <= sum(result.meta["lane_edges_scanned"]) <= 1.05 * floor


def test_sssp_batch_past_256_lanes():
    """300 lanes: the wire's lane field widens from uint8 to uint16."""
    small = build_csr(generate_kronecker(8, seed=2022))
    distinct = np.flatnonzero(small.out_degree > 0)[:37]
    lane_roots = [int(distinct[i % distinct.size]) for i in range(300)]
    swept = api.run(small, lane_roots, kernel="sssp_batch", num_ranks=4).result
    single = {
        int(r): api.run(small, int(r), kernel="sssp", engine="shared").result
        for r in distinct
    }
    for i, root in enumerate(lane_roots):
        lane = swept.lane(i)
        assert witness.sha(lane.dist, lane.parent) == witness.sha(
            single[root].dist, single[root].parent
        )


@pytest.mark.parametrize("kernel", KERNELS)
def test_permuted_roots_permute_the_lanes(graph, roots, serial_batched, kernel):
    """Lane order is only a labelling: permuted roots answer with the
    same lanes, bit for bit, in the permuted order."""
    perm = np.random.default_rng(7).permutation(len(roots))
    base = serial_batched[kernel].result
    permuted = api.run(
        graph, [roots[i] for i in perm], kernel=kernel, num_ranks=NUM_RANKS
    ).result
    answer = "dist" if kernel == "sssp_batch" else "level"
    for field in (answer, "parent"):
        assert np.array_equal(getattr(permuted, field), getattr(base, field)[:, perm])


def test_sssp_batch_respects_explicit_delta(graph, roots):
    from repro.core.config import SSSPConfig

    by_kwarg = api.run(
        graph, roots[:2], kernel="sssp_batch", num_ranks=4, delta=0.5
    )
    by_config = api.run(
        graph, roots[:2], kernel="sssp_batch", num_ranks=4,
        config=SSSPConfig(delta=0.5),
    )
    assert by_kwarg.result.meta["delta"] == 0.5
    assert by_config.result.meta["delta"] == 0.5
    assert np.array_equal(by_kwarg.result.dist, by_config.result.dist)


@pytest.mark.parametrize("kernel", KERNELS)
def test_batched_kernels_reject_scalar_source(graph, kernel):
    with pytest.raises(ValueError, match="batched multi-source"):
        api.run(graph, 3, kernel=kernel, num_ranks=4)


@pytest.mark.parametrize("kernel", KERNELS)
def test_batched_kernels_reject_empty_roots(graph, kernel):
    with pytest.raises(ValueError, match="at least one root"):
        api.run(graph, [], kernel=kernel, num_ranks=4)


def test_bfs64_rejects_more_than_64_roots(graph):
    with pytest.raises(ValueError, match="at most"):
        api.run(graph, list(range(65)), kernel="bfs64", num_ranks=4)


def test_bfs64_rejects_out_of_range_root(graph):
    with pytest.raises(ValueError, match="out of range"):
        api.run(graph, [0, graph.num_vertices], kernel="bfs64", num_ranks=4)


@pytest.mark.parametrize("kernel", KERNELS)
def test_duplicate_roots_answer_identical_valid_lanes(kernel):
    """A root listed twice is answered twice, identically: the batched
    kernels accept duplicate roots, and each copy's lane is the same
    column, distances (or levels) and parents alike."""
    g = build_csr(generate_kronecker(10, seed=2022))
    hub = int(np.argmax(g.out_degree))
    result = api.run(g, [hub, 5, hub, 5], kernel=kernel, num_ranks=4).result
    answer = result.dist if kernel == "sssp_batch" else result.level
    for a, b in ((0, 2), (1, 3)):
        assert np.array_equal(answer[:, a], answer[:, b])
        assert np.array_equal(result.parent[:, a], result.parent[:, b])
    assert not np.array_equal(answer[:, 0], answer[:, 1])
    report = result.validate(g)
    assert report.ok, report.failures
