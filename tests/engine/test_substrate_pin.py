"""The fault-free schedule of every kernel on the vertex-kernel substrate.

``tests/fixtures/substrate_schedule.json`` pins, for ``sssp_batch``,
``bfs64``, cc, pagerank and kcore at 1, 4 and 7 ranks (plus bottom-up BFS
on one rank, whose allgather takes the single-rank path), what the cost
model charged: ``modeled_time``, ``time_breakdown``, ``comm["total_bytes"]``
and the result counters.  A change to who counts the bytes, or to how
rank-local records are accounted, must leave every value equal.

Regenerate (only for a change meant to move the schedule) with

    PYTHONPATH=src python tests/engine/test_substrate_pin.py
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import api
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker

FIXTURE = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "substrate_schedule.json"
)
SCALE = 9
SEED = 2022
NUM_ROOTS = 8


def _cases() -> list[tuple[str, str, dict]]:
    cases = [
        (f"{kernel}/P={p}", kernel, {"num_ranks": p})
        for kernel in ("sssp_batch", "bfs64", "cc", "pagerank", "kcore")
        for p in (1, 4, 7)
    ]
    cases.append(("bfs/bottom_up/P=1", "bfs", {"num_ranks": 1, "direction": "bottom_up"}))
    return cases


def _record(graph, kernel: str, kwargs: dict) -> dict:
    roots = [int(v) for v in np.argsort(-graph.out_degree, kind="stable")[:NUM_ROOTS]]
    source = {"sssp_batch": roots, "bfs64": roots, "bfs": roots[0]}.get(kernel)
    run = api.run(graph, source, kernel=kernel, **kwargs)
    return {
        "modeled_time": run.modeled_time,
        "time_breakdown": run.time_breakdown,
        "total_bytes": run.comm["total_bytes"],
        "counters": run.result.counters.as_dict(),
    }


@pytest.fixture(scope="module")
def graph():
    return build_csr(generate_kronecker(SCALE, seed=SEED))


@pytest.fixture(scope="module")
def pinned():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(name for name, _, _ in _cases())


@pytest.mark.parametrize(
    "name,kernel,kwargs", _cases(), ids=[name for name, _, _ in _cases()]
)
def test_schedule_unchanged(graph, pinned, name, kernel, kwargs):
    got = json.loads(json.dumps(_record(graph, kernel, kwargs)))
    assert got == pinned[name]


if __name__ == "__main__":
    g = build_csr(generate_kronecker(SCALE, seed=SEED))
    doc = {name: _record(g, kernel, kwargs) for name, kernel, kwargs in _cases()}
    with open(FIXTURE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(doc)} cases to {os.path.normpath(FIXTURE)}")
