"""The owned-local engines are observably identical to their dense ancestors.

``tests/fixtures/engine_equivalence.json`` pins what the pre-refactor
(dense per-rank state) engines produced: distance bytes, counter totals,
per-superstep wire bytes, modeled time, exact communication statistics.
These tests recompute every pinned case with the current engines and
require byte-for-byte agreement — the owned-local re-architecture is a
memory/wall-clock optimization and must change *nothing* the algorithm
or the cost model can see.

A second group asserts the point of the refactor: no rank of the 1-D
engine holds an O(num_vertices) array.
"""

import json
import os

import numpy as np
import pytest

from repro import api
from repro.core.config import SSSPConfig
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker

from tests.fixtures.generate_equivalence_fixture import (
    FIXTURE_PATH,
    bfs_cases,
    dist1d_cases,
    dist2d_cases,
    record_case,
)

with open(FIXTURE_PATH, encoding="utf-8") as fh:
    FIXTURE = json.load(fh)

ALL_CASES = dict(
    [(name, ("dist1d", kwargs)) for name, kwargs in dist1d_cases()]
    + [(name, ("dist2d", kwargs)) for name, kwargs in dist2d_cases()]
    + [(name, ("bfs", kwargs)) for name, kwargs in bfs_cases()]
)


@pytest.fixture(scope="module")
def fixture_graph():
    return build_csr(
        generate_kronecker(FIXTURE["scale"], seed=FIXTURE["graph_seed"])
    )


def test_fixture_is_committed_and_covers_all_cases():
    assert os.path.exists(FIXTURE_PATH)
    assert set(FIXTURE["cases"]) == set(ALL_CASES)


@pytest.mark.parametrize("name", sorted(ALL_CASES))
def test_engine_behaviour_matches_prerefactor_fixture(name, fixture_graph):
    engine, kwargs = ALL_CASES[name]
    pinned = FIXTURE["cases"][name]
    got = record_case(fixture_graph, FIXTURE["source"], engine, kwargs)
    assert got == pinned, f"{name}: observable behaviour diverged from fixture"


# -- owned-local memory contract ------------------------------------------


@pytest.mark.parametrize("partition", ["block", "edge_balanced"])
def test_dist1d_ranks_hold_no_dense_arrays(partition):
    """No per-rank array in the superstep loop scales with num_vertices."""
    graph = build_csr(generate_kronecker(11, seed=5))
    n = graph.num_vertices
    num_ranks = 16
    run = api.run(
        graph,
        int(np.argmax(graph.out_degree)),
        engine="dist1d",
        num_ranks=num_ranks,
        config=SSSPConfig(partition=partition),
    )
    state = run.meta["rank_state"]
    # Owned vertices per rank are ~n/P; allow slack for edge-balanced skew
    # and hub tables — but a dense per-vertex array (length n) must be
    # flatly impossible.  The halo and its ghost cache are reported apart:
    # they size with the remote targets of the rank's edges, fixed at
    # build, and on a tiny Kronecker graph the halo approaches n, so only
    # dense arrays prove the layout.
    assert state["max_dense_len"] < n // 2, state


def test_dist1d_total_state_scales_with_graph_not_ranks():
    """Total resident state grows with the halo, not with n * ranks."""
    graph = build_csr(generate_kronecker(11, seed=5))
    src = int(np.argmax(graph.out_degree))
    totals = {
        ranks: api.run(graph, src, engine="dist1d", num_ranks=ranks).meta[
            "rank_state"
        ]["total_bytes"]
        for ranks in (4, 32)
    }
    # Dense layout: 8x the ranks -> 8x the bytes.  Owned-local: the owned
    # arrays repartition (constant total) and only halo/delegate overhead
    # grows; well under 3x is comfortable, 8x would be a regression.
    assert totals[32] < 3 * totals[4], totals
