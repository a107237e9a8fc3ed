"""racecheck=True must be an observer: bit-identical results, clean audits.

The generation checks and the shared-array tracker read transport state
but never change scheduling, payload routing, or modeled time.  Each
single-root witness case marked ``racecheck`` (``tests/witness.py``), run
on a parallel backend with the checker on, must equal the unchecked run
there exactly, and its audit must show real coverage and no violation.
"""

import pytest

from repro import api
from tests import witness

CASES = [
    c for c in witness.MODE_CASES if c.kernel not in witness.BATCHED and "racecheck" in c.relations
]
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
def test_racecheck_is_bit_identical(recorder, case, backend):
    base, checked = case.variant(backend), case.variant(backend, racecheck=True)
    witness.assert_same(recorder, base, checked)

    # The audit rides the checked run only, and shows genuine coverage.
    assert recorder.record(base)["audit"]["racecheck"] is None
    audit = recorder.record(checked)["audit"]["racecheck"]
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
        graph, source, engine="dist1d", num_ranks=SSSP_1D.num_ranks, racecheck=True
    )
    audit = run.result.meta["racecheck"]
    assert audit["backend"] == "serial"
    assert audit["handles_minted"] == 0
    assert audit["violations"] == 0


def test_shared_engine_rejects_racecheck(graph, source):
    with pytest.raises(ValueError, match="racecheck=True requires"):
        api.run(graph, source, engine="shared", racecheck=True)
