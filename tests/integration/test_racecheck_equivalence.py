"""racecheck=True must be an observer: bit-identical results, clean audits.

The generation checks and the shared-array tracker read transport state
but never change scheduling, payload routing, or modeled time.  This
matrix pins that: for every kernel/engine cell, parallel backend, and
fault/sanitize mode, a checked run must equal the unchecked run exactly,
and the attached audit must show real coverage with zero violations.
"""

import hashlib

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
)


@pytest.fixture(scope="module")
def graph():
    return build_csr(generate_kronecker(SCALE, seed=2022))


@pytest.fixture(scope="module")
def source(graph):
    return int(np.argmax(graph.out_degree))


def _result_sha(kernel, run):
    """One digest over every result array — byte-level identity check."""
    h = hashlib.sha256()
    if kernel == "bfs":
        arrays = (run.result.parent, run.result.level)
    else:
        arrays = (run.result.dist, run.result.parent)
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "mode_index", range(len(MODES)), ids=["plain", "faults", "sanitize"]
)
@pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
@pytest.mark.parametrize("kernel,engine", CELLS)
def test_racecheck_is_bit_identical(
    graph, source, kernel, engine, backend, mode_index
):
    mode = MODES[mode_index]
    kwargs = dict(
        kernel=kernel, engine=engine, num_ranks=NUM_RANKS,
        executor=backend, workers=3, **mode,
    )
    base = api.run(graph, source, **kwargs)
    checked = api.run(graph, source, racecheck=True, **kwargs)

    assert _result_sha(kernel, checked) == _result_sha(kernel, base)
    assert checked.modeled_time == base.modeled_time
    assert checked.comm == base.comm
    assert checked.result.counters.as_dict() == base.result.counters.as_dict()
    assert checked.meta["rank_state"] == base.meta["rank_state"]

    # The audit rides the checked run only, and shows genuine coverage.
    assert "racecheck" not in base.result.meta
    audit = checked.result.meta["racecheck"]
    assert audit["backend"] == backend
    assert audit["violations"] == 0
    if backend == "thread":
        assert audit["regions_checked"] > 0
    else:
        # The sanitizer reads wire headers, never payload, so it rides the
        # same zero-copy transport: every cell mints and checks real handles.
        assert audit["handles_minted"] > 0
        assert audit["handles_checked"] == audit["handles_minted"]


def test_serial_racecheck_attaches_uniform_audit(graph, source):
    run = api.run(
        graph, source, engine="dist1d", num_ranks=NUM_RANKS, racecheck=True
    )
    audit = run.result.meta["racecheck"]
    assert audit["backend"] == "serial"
    assert audit["handles_minted"] == 0
    assert audit["violations"] == 0


def test_shared_engine_rejects_racecheck(graph, source):
    with pytest.raises(ValueError, match="racecheck=True requires"):
        api.run(graph, source, engine="shared", racecheck=True)
