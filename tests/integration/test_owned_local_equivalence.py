"""The single-root engines under their knobs, and the owned-local contract.

The engine cases of the witness matrix (``tests/witness.py``) must record
what ``tests/fixtures/witness.json`` pins: the owned-local layout is a
memory and wall-clock optimization and may change *nothing* the algorithm
or the cost model can see.  A second group asserts the point of that
layout: no rank of the 1-D engine holds an O(num_vertices) array.
"""

import numpy as np
import pytest

from repro import api
from repro.core.config import SSSPConfig
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from tests import witness


def test_fixture_is_committed_and_covers_all_cases(pinned):
    assert set(pinned) == {case.name for case in witness.CASES}


@pytest.mark.parametrize("case", witness.ENGINE_CASES, ids=lambda c: c.name)
def test_engine_behaviour_matches_prerefactor_fixture(recorder, pinned, case):
    witness.check(recorder, pinned, case)


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
