"""Executor backends must be invisible: bit-identical results everywhere.

Every single-root witness case (``tests/witness.py``: SSSP on dist1d and
dist2d, BFS on dist1d, 8 ranks, faults and sanitizer off and on) re-run
on the thread and process backends must equal its serial record exactly:
answer and parent digests, modeled time and its breakdown, comm,
counters, rank-state accounting and the sanitizer's summary.
"""

import numpy as np
import pytest

from repro import api
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from tests import witness

CASES = [c for c in witness.MODE_CASES if c.kernel not in witness.BATCHED]
PLAIN = [c for c in CASES if c.mode == "plain"]
SSSP_1D = witness.by_name("dist1d/P=8")


@pytest.fixture(scope="module")
def graph(recorder):
    return recorder.graph(*SSSP_1D.graph)


@pytest.fixture(scope="module")
def source(recorder):
    return recorder.source(SSSP_1D)


@pytest.mark.parametrize("case,backend", [
    pytest.param(c, b, id=f"{c.kernel}-{c.engine}-{b}-{c.mode}")
    for c in CASES for b in witness.PARALLEL
])
def test_backend_matches_serial(recorder, case, backend):
    variant = case.variant(backend)
    assert recorder.record(variant)["audit"]["executor"] == {"backend": backend, "workers": 3}
    witness.assert_same(recorder, case, variant)


@pytest.mark.parametrize("case", PLAIN, ids=lambda c: f"{c.kernel}-{c.engine}")
def test_explicit_serial_backend_is_the_default(recorder, case):
    variant = case.variant("serial", workers=None)
    assert recorder.record(variant)["audit"]["executor"] == {"backend": "serial", "workers": 1}
    witness.assert_same(recorder, case, variant)


def test_shared_engine_rejects_executor(graph, source):
    with pytest.raises(ValueError, match="no simulated ranks"):
        api.run(graph, source, engine="shared", executor="thread")
    with pytest.raises(ValueError, match="no simulated ranks"):
        api.run(graph, source, engine="shared", workers=4)


def test_single_worker_process_backend_matches(recorder):
    # Degenerate pool: every rank in one worker still meets every barrier.
    witness.assert_same(recorder, SSSP_1D, SSSP_1D.variant("process", workers=1))


def test_more_workers_than_ranks_matches(recorder):
    witness.assert_same(recorder, SSSP_1D, SSSP_1D.variant("thread", workers=32))


def test_wide_team_on_two_workers_matches_serial():
    # 128 ranks on 2 workers: each worker carries 64 ranks' message
    # tables, and the command metadata of the closing finish_epoch calls
    # passes 64 KiB — the size that once took a separate overflow path.
    graph = build_csr(generate_kronecker(12, seed=2022))
    source = int(np.argmax(graph.out_degree))
    base = api.run(graph, source, num_ranks=128)
    run = api.run(graph, source, num_ranks=128, executor="process", workers=2)
    assert np.array_equal(run.result.dist, base.result.dist)
    assert run.modeled_time == base.modeled_time
    assert run.comm == base.comm
