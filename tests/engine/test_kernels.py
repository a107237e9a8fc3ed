"""The vertex kernels (cc, pagerank, kcore) against their sequential oracles.

The acceptance matrix for the superstep substrate: every kernel, on every
rank-execution backend, with fault injection and the runtime sanitizer on
and off, must equal its sequential oracle *exactly* — integer kernels by
array equality, PageRank bitwise (the kernel fixes the floating-point
reduction order on the wire and the oracle replays it).
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro import api
from repro.core import SSSPConfig
from repro.engine import run_kernel
from repro.engine.kernels import make_kernel
from repro.engine.kernels.kcore import kcore_reference
from repro.engine.kernels.pagerank import PageRank, pagerank_reference
from repro.engine.results import LabelsResult
from repro.graph.components import connected_components
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker

SCALE = 10
NUM_RANKS = 4
FAULTS = "drop=0.05,delay=1us,seed=13"

KERNELS = ("cc", "pagerank", "kcore")
BACKENDS = ("serial", "thread", "process")
MODES = {
    "plain": {"faults": None, "sanitize": False},
    "faults": {"faults": FAULTS, "sanitize": False},
    "sanitize": {"faults": None, "sanitize": True},
}


@pytest.fixture(scope="module")
def graph():
    return build_csr(generate_kronecker(SCALE, seed=31))


@pytest.fixture(scope="module")
def oracles(graph):
    return {
        "cc": connected_components(graph),
        "pagerank": pagerank_reference(graph),
        "kcore": kcore_reference(graph),
    }


def _answer(kernel: str, result):
    return {
        "cc": getattr(result, "labels", None),
        "pagerank": getattr(result, "ranks", None),
        "kcore": getattr(result, "coreness", None),
    }[kernel]


class TestOracleMatrix:
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_kernel_equals_oracle(self, graph, oracles, kernel, backend, mode):
        out = api.run(
            graph,
            kernel=kernel,
            num_ranks=NUM_RANKS,
            executor=backend,
            workers=2,
            **MODES[mode],
        )
        # Exact, not approximate — PageRank included (bitwise).
        assert np.array_equal(_answer(kernel, out.result), oracles[kernel])
        assert out.result.validate(graph).ok
        assert out.kernel == kernel
        assert out.modeled_time > 0.0
        if mode == "faults":
            assert out.result.counters["messages_dropped"] > 0
            assert out.result.counters["bytes_retransmitted"] > 0
        if mode == "sanitize":
            audit = out.result.meta["sanitizer"]
            assert audit["violations"] == 0
            assert audit["collectives"] > 0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_backends_bit_identical(self, graph, kernel):
        base = api.run(graph, kernel=kernel, num_ranks=NUM_RANKS)
        for backend in ("thread", "process"):
            run = api.run(
                graph, kernel=kernel, num_ranks=NUM_RANKS,
                executor=backend, workers=2,
            )
            assert np.array_equal(
                _answer(kernel, run.result), _answer(kernel, base.result)
            )
            assert run.modeled_time == base.modeled_time
            assert run.comm == base.comm
            assert run.meta["rank_state"] == base.meta["rank_state"]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rank_count_invariant(self, graph, oracles, kernel):
        for num_ranks in (1, 3, 8):
            out = api.run(graph, kernel=kernel, num_ranks=num_ranks)
            assert np.array_equal(_answer(kernel, out.result), oracles[kernel])


class TestSubstratePlumbing:
    def test_edge_balanced_partition_same_answer(self, graph, oracles):
        out = api.run(
            graph, kernel="cc", num_ranks=NUM_RANKS, partition="edge_balanced"
        )
        assert np.array_equal(out.result.labels, oracles["cc"])
        assert out.meta["partition"] == "block1d_edge_balanced"

    def test_hashed_partition_rejected(self, graph):
        message = re.escape("partition must be one of ('block', 'edge_balanced')")
        cells = [{"kernel": k} for k in ("cc", "pagerank", "kcore")] + [
            {"kernel": "bfs", "source": 0},
            {"kernel": "bfs64", "source": [0, 1]},
            {"kernel": "sssp_batch", "source": [0, 1]},
        ]
        for cell in cells:
            with pytest.raises(ValueError, match=message):
                api.run(graph, num_ranks=NUM_RANKS, partition="hashed", **cell)
        with pytest.raises(ValueError, match=message):
            api.run(graph, 0, num_ranks=NUM_RANKS, config=SSSPConfig(partition="hashed"))

    def test_report_shape_and_rank_state(self, graph):
        out = api.run(graph, kernel="kcore", num_ranks=NUM_RANKS)
        report = out.report()
        for key in ("engine", "kernel", "num_ranks", "modeled_time",
                    "time_breakdown", "comm", "counters", "work_imbalance",
                    "meta"):
            assert key in report, key
        assert report["kernel"] == "kcore"
        rank_state = out.meta["rank_state"]
        assert rank_state["total_bytes"] > 0
        assert out.result.counters["supersteps"] > 0
        assert out.result.counters["edges_scanned"] > 0

    def test_run_kernel_accepts_instances(self, graph, oracles):
        out = run_kernel(
            graph, PageRank(damping=0.85, iterations=20), num_ranks=NUM_RANKS
        )
        assert np.array_equal(out.result.ranks, oracles["pagerank"])

    def test_make_kernel_unknown_name(self):
        with pytest.raises(ValueError, match="unknown kernel 'frob'"):
            make_kernel("frob")

    def test_make_kernel_unknown_param(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            make_kernel("kcore", damping=0.5)

    def test_pagerank_param_validation(self):
        with pytest.raises(ValueError, match="damping"):
            PageRank(damping=1.5)
        with pytest.raises(ValueError, match="iterations"):
            PageRank(iterations=0)

    def test_pagerank_tol_early_exit(self, graph):
        # A huge tolerance converges the vote after the first allreduce.
        out = api.run(graph, kernel="pagerank", num_ranks=NUM_RANKS, tol=1e9)
        assert out.result.iterations < 20
        assert out.result.counters["iterations"] == out.result.iterations


class TestValidateCatchesLies:
    """The uniform ``validate()`` hooks actually reject wrong answers."""

    def test_cc_wrong_labels_fail(self, graph, oracles):
        labels = oracles["cc"].copy()
        labels[-1] = labels[-1] + 1  # break min-label canonical form
        report = LabelsResult(labels=labels).validate(graph)
        assert not report.ok
        assert report.failures

    def test_pagerank_perturbed_ranks_fail(self, graph, oracles):
        from repro.engine.results import RanksResult

        ranks = oracles["pagerank"].copy()
        ranks[0] = np.nextafter(ranks[0], 1.0)  # one ulp off → not bitwise
        report = RanksResult(ranks=ranks, damping=0.85, iterations=20).validate(graph)
        assert not report.ok

    def test_kcore_wrong_coreness_fail(self, graph, oracles):
        from repro.engine.results import CorenessResult

        coreness = oracles["kcore"].copy()
        coreness[0] += 1
        report = CorenessResult(coreness=coreness).validate(graph)
        assert not report.ok
