"""Executor backends must be invisible: bit-identical results everywhere.

The fixture matrix crosses the three distributed engines with the three
rank-execution backends, with fault injection and the runtime sanitizer
both off and on.  For every cell the distances (or BFS parent/level),
modeled time, comm-byte summary, counters, and rank-state accounting must
equal the serial backend's exactly — not approximately.
"""

import numpy as np
import pytest

from repro import api
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker

SCALE = 9
NUM_RANKS = 8
FAULTS = "drop=0.04,delay=1us,seed=11"

CELLS = (("sssp", "dist1d"), ("sssp", "dist2d"), ("bfs", "dist1d"))
PARALLEL_BACKENDS = ("thread", "process")
MODES = (
    {"faults": None, "sanitize": False},
    {"faults": FAULTS, "sanitize": False},
    {"faults": None, "sanitize": True},
    {"faults": FAULTS, "sanitize": True},
)


@pytest.fixture(scope="module")
def graph():
    return build_csr(generate_kronecker(SCALE, seed=2022))


@pytest.fixture(scope="module")
def source(graph):
    return int(np.argmax(graph.out_degree))


@pytest.fixture(scope="module")
def serial_runs(graph, source):
    """Serial baseline per (kernel/engine cell, mode index), computed once."""
    runs = {}
    for kernel, engine in CELLS:
        for mi, mode in enumerate(MODES):
            runs[kernel, engine, mi] = api.run(
                graph, source, kernel=kernel, engine=engine,
                num_ranks=NUM_RANKS, **mode
            )
    return runs


def _assert_identical(kernel, base, run):
    if kernel == "bfs":
        assert np.array_equal(base.result.parent, run.result.parent)
        assert np.array_equal(base.result.level, run.result.level)
    else:
        # array_equal treats the unreachable inf entries as equal too.
        assert np.array_equal(base.result.dist, run.result.dist)
        assert np.array_equal(base.result.parent, run.result.parent)
    assert run.modeled_time == base.modeled_time
    assert run.comm == base.comm
    assert run.time_breakdown == base.time_breakdown
    assert run.result.counters.as_dict() == base.result.counters.as_dict()
    assert run.meta["rank_state"] == base.meta["rank_state"]
    if "sanitizer" in base.result.meta:
        assert run.result.meta["sanitizer"] == base.result.meta["sanitizer"]


@pytest.mark.parametrize(
    "mode_index",
    range(len(MODES)),
    ids=["plain", "faults", "sanitize", "faults+sanitize"],
)
@pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
@pytest.mark.parametrize("kernel,engine", CELLS)
def test_backend_matches_serial(
    graph, source, serial_runs, kernel, engine, backend, mode_index
):
    mode = MODES[mode_index]
    base = serial_runs[kernel, engine, mode_index]
    run = api.run(
        graph,
        source,
        kernel=kernel,
        engine=engine,
        num_ranks=NUM_RANKS,
        executor=backend,
        workers=3,
        **mode,
    )
    assert run.meta["executor"] == {"backend": backend, "workers": 3}
    _assert_identical(kernel, base, run)


@pytest.mark.parametrize("kernel,engine", CELLS)
def test_explicit_serial_backend_is_the_default(
    graph, source, serial_runs, kernel, engine
):
    run = api.run(
        graph, source, kernel=kernel, engine=engine, num_ranks=NUM_RANKS,
        executor="serial"
    )
    assert run.meta["executor"] == {"backend": "serial", "workers": 1}
    _assert_identical(kernel, serial_runs[kernel, engine, 0], run)


def test_shared_engine_rejects_executor(graph, source):
    with pytest.raises(ValueError, match="no simulated ranks"):
        api.run(graph, source, engine="shared", executor="thread")
    with pytest.raises(ValueError, match="no simulated ranks"):
        api.run(graph, source, engine="shared", workers=4)


def test_single_worker_process_backend_matches(graph, source, serial_runs):
    # Degenerate pool: every rank in one worker still meets every barrier.
    run = api.run(
        graph,
        source,
        engine="dist1d",
        num_ranks=NUM_RANKS,
        executor="process",
        workers=1,
    )
    _assert_identical("sssp", serial_runs["sssp", "dist1d", 0], run)


def test_more_workers_than_ranks_matches(graph, source, serial_runs):
    run = api.run(
        graph,
        source,
        engine="dist1d",
        num_ranks=NUM_RANKS,
        executor="thread",
        workers=32,
    )
    _assert_identical("sssp", serial_runs["sssp", "dist1d", 0], run)


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
