"""Boundary and edge-case tests across subsystems.

Each test pins a behaviour at a representational boundary — word edges,
single-element structures, extreme configuration values — where vectorized
code most often breaks silently.
"""

import re
import signal
from functools import partial

import numpy as np
import pytest

import repro
from repro.baselines import dijkstra
from repro.core import SSSPConfig
from repro.core.delta_stepping import _delta_stepping as delta_stepping
from repro.core.buckets import BucketQueue
from repro.graph.csr import build_csr
from repro.graph.kronecker import KroneckerSpec, generate_kronecker
from repro.graph.synth import path_graph
from repro.graph.types import EdgeList
from repro.simmpi.fabric import Message
from repro.utils.prng import CounterRNG

distributed_sssp = partial(repro.run, engine="dist1d")


class TestScaleBoundaries:
    def test_scale_one_graph(self):
        el = generate_kronecker(1)
        assert el.num_vertices == 2
        g = build_csr(el)
        res = delta_stepping(g, 0)
        assert res.dist[0] == 0.0

    def test_scale_48_boundary(self):
        KroneckerSpec(scale=48)  # largest allowed
        with pytest.raises(ValueError):
            KroneckerSpec(scale=49)

    def test_two_vertex_distributed(self):
        el = EdgeList(np.array([0]), np.array([1]), np.array([0.5]), 2)
        g = build_csr(el)
        run = distributed_sssp(g, 0, num_ranks=2)
        assert run.result.dist[1] == 0.5

    def test_more_ranks_than_vertices(self):
        g = build_csr(path_graph(3, weight=0.5))
        run = distributed_sssp(g, 0, num_ranks=8)
        np.testing.assert_allclose(run.result.dist, [0.0, 0.5, 1.0])


class TestMoreRanksThanVertices:
    """8 vertices over 11 or 16 ranks: every rank past the last vertex owns
    the empty range ``lo == hi``, and each cell still answers exactly."""

    CELLS = ("sssp/dist1d", "sssp/dist2d", "bfs", "cc", "pagerank", "kcore",
             "bfs64", "sssp_batch")
    ROOTS = [0, 3, 7]

    @pytest.fixture(scope="class")
    def graph(self):
        return build_csr(generate_kronecker(3, seed=1))

    def check(self, graph, cell, num_ranks, **knobs):
        kernel, _, engine = cell.partition("/")
        source = {"sssp": 3, "bfs": 3, "bfs64": self.ROOTS, "sssp_batch": self.ROOTS}
        if engine == "dist2d":
            knobs["grid"] = (1, num_ranks)
        out = repro.run(graph, source.get(kernel), kernel=kernel,
                        engine=engine or "dist1d", num_ranks=num_ranks, **knobs)
        assert graph.num_vertices == 8 < num_ranks
        assert out.result.validate(graph).ok
        if kernel in ("sssp", "sssp_batch"):
            roots = [3] if kernel == "sssp" else self.ROOTS
            want = np.stack([dijkstra(graph, r).dist for r in roots], axis=1)
            np.testing.assert_array_equal(out.result.dist.reshape(8, -1), want)
        elif kernel in ("bfs", "bfs64"):
            roots = [3] if kernel == "bfs" else self.ROOTS
            want = np.stack(
                [repro.run(graph, r, kernel="bfs", engine="shared").result.level
                 for r in roots], axis=1,
            )
            np.testing.assert_array_equal(out.result.level.reshape(8, -1), want)

    @pytest.mark.parametrize("num_ranks", [11, 16])
    @pytest.mark.parametrize("cell", CELLS)
    def test_every_cell_answers(self, graph, cell, num_ranks):
        self.check(graph, cell, num_ranks)

    def test_forked_workers(self, graph):
        self.check(graph, "sssp/dist1d", 16, executor="process", workers=2)


class TestExtremeConfigurations:
    def test_tiny_delta_still_exact(self):
        g = build_csr(path_graph(6, weight=0.125))
        res = delta_stepping(g, 0, delta=1e-6)
        np.testing.assert_allclose(res.dist, 0.125 * np.arange(6))

    def test_huge_delta_single_bucket(self):
        g = build_csr(path_graph(6, weight=0.125))
        res = delta_stepping(g, 0, delta=1e6)
        assert res.counters["epochs"] == 1
        np.testing.assert_allclose(res.dist, 0.125 * np.arange(6))

    def test_delegate_everything(self):
        """Threshold 1 delegates every non-isolated vertex; still exact."""
        g = build_csr(generate_kronecker(8, seed=1))
        src = int(np.argmax(g.out_degree))
        run = distributed_sssp(
            g, src, num_ranks=4, config=SSSPConfig(hub_degree_threshold=1)
        )
        ref = delta_stepping(g, src)
        assert np.array_equal(run.result.dist, ref.dist)

    def test_max_phases_guard(self):
        g = build_csr(generate_kronecker(8, seed=1))
        with pytest.raises(RuntimeError):
            delta_stepping(g, int(np.argmax(g.out_degree)), max_phases=1)


class TestBucketEdgeCases:
    def test_distance_exactly_on_bucket_boundary(self):
        dist = np.array([1.0])
        bq = BucketQueue(dist, delta=0.5)
        assert bq.bucket_index(np.array([0]))[0] == 2  # 1.0 / 0.5 -> bucket 2

    def test_zero_distance_in_bucket_zero(self):
        dist = np.array([0.0])
        bq = BucketQueue(dist, delta=0.25)
        bq.insert(np.array([0]))
        assert bq.min_live_bucket() == 0


class TestMessageEdgeCases:
    def test_single_element(self):
        m = Message(x=np.array([1.5]))
        assert len(m) == 1
        assert m.nbytes == 8

    def test_mixed_dtypes(self):
        m = Message(a=np.zeros(3, dtype=np.uint8), b=np.zeros(3, dtype=np.float64))
        assert m.nbytes == 3 + 24

    def test_concat_single(self):
        m = Message.gather(Message(x=np.array([1])).pieces)
        assert len(m) == 1
        assert m["x"].tolist() == [1]


class TestPRNGEdgeCases:
    def test_zero_draws(self):
        r = CounterRNG(1)
        assert r.uint64(0).size == 0
        assert r.cursor == 0

    def test_bound_one(self):
        v = CounterRNG(1).below(100, 1)
        assert np.all(v == 0)

    def test_large_bound(self):
        v = CounterRNG(1).below(100, 2**40)
        assert v.max() < 2**40

    def test_permutation_of_one(self):
        assert list(CounterRNG(1).shuffle_permutation(1)) == [0]


class TestNonIntegralRoots:
    """A root that is not an integer names no vertex: rejected at ``repro.run``."""

    @pytest.fixture(scope="class")
    def graph(self):
        return build_csr(generate_kronecker(6, seed=3))

    @pytest.mark.parametrize(
        "kernel, engine",
        [("sssp", "dist1d"), ("sssp", "dist2d"), ("sssp", "shared"),
         ("bfs", "dist1d"), ("bfs", "shared")],
    )
    def test_single_root_kernels_reject_a_float(self, graph, kernel, engine):
        with pytest.raises(ValueError, match=rf"kernel '{kernel}' .*1\.7"):
            repro.run(graph, 1.7, kernel=kernel, engine=engine, num_ranks=4)

    @pytest.mark.parametrize("kernel", ["bfs64", "sssp_batch"])
    def test_batched_kernels_do_not_truncate(self, graph, kernel):
        # Was answered as roots [1, 2].
        with pytest.raises(ValueError, match=rf"kernel '{kernel}' .*1\.7"):
            repro.run(graph, [1.7, 2.2], kernel=kernel, num_ranks=4)

    def test_integer_spellings_keep_working(self, graph):
        want = repro.run(graph, 3, num_ranks=4).result.dist
        for root in (np.int64(3), np.uint32(3), np.array(3)):
            np.testing.assert_array_equal(repro.run(graph, root, num_ranks=4).result.dist, want)
        batch = repro.run(graph, np.array([3, 5], dtype=np.uint32), kernel="sssp_batch", num_ranks=4)
        np.testing.assert_array_equal(batch.result.lane(0).dist, want)
        assert repro.run(graph, [3, 5], kernel="bfs64", num_ranks=4).result.validate(graph).ok

    def test_out_of_range_messages_unchanged(self, graph):
        with pytest.raises(ValueError, match=r"source 64 out of range \[0, 64\)"):
            repro.run(graph, 64, num_ranks=4)


@pytest.fixture
def alarm():
    """Fail a run that hangs instead of stalling the whole suite."""

    def timeout(signum, frame):
        raise TimeoutError("run did not finish within 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _one_bad_edge(weight):
    """The path 0 - 1 - 2 whose second edge weighs ``weight`` (symmetrized)."""
    edges = EdgeList(np.array([0, 1]), np.array([1, 2]), np.array([1.0, weight]), 3)
    return build_csr(edges)


class TestEdgeWeights:
    """Shortest-path kernels need finite weights >= 0: rejected at ``repro.run``."""

    @pytest.mark.parametrize("weight", [-0.5, np.nan, np.inf])
    @pytest.mark.parametrize(
        "kernel, engine, source",
        [("sssp", "dist1d", 0), ("sssp", "dist2d", 0), ("sssp", "shared", 0),
         ("sssp_batch", "dist1d", [0, 2])],
    )
    def test_shortest_path_kernels_reject(self, alarm, kernel, engine, source, weight):
        # A negative edge is a negative 2-cycle once symmetrized: every
        # engine looped forever on it.
        edge = re.escape(f"(1, 2, {float(weight)!r})")
        with pytest.raises(ValueError, match=rf"kernel '{kernel}' .*{edge}"):
            repro.run(
                _one_bad_edge(weight), source, kernel=kernel, engine=engine, num_ranks=2
            )

    @pytest.mark.parametrize(
        "kernel, source",
        [("bfs", 0), ("bfs64", [0, 2]), ("cc", None), ("pagerank", None), ("kcore", None)],
    )
    def test_weight_free_kernels_accept(self, alarm, kernel, source):
        graph = _one_bad_edge(-0.5)
        assert repro.run(graph, source, kernel=kernel, num_ranks=2).result.validate(graph).ok
