"""The byte ledger as it stands: timeline bytes against ``total_bytes``.

Every ``exchange`` event carries the bytes of its superstep's whole byte
matrix, rank-local records (the diagonal) included, while
``CommTrace.total_bytes`` counts only the intra- and inter-supernode tiers.
The two agree on engines whose ranks never send to themselves; on the
vertex-kernel substrate the timeline is larger by exactly the rank-local
bytes.  Moving local records out of the ledger flips the second test to
plain equality.
"""

import numpy as np
import pytest

from repro import run
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.obs import Tracer
from repro.simmpi.trace import CommTrace


@pytest.fixture
def local_bytes(monkeypatch):
    """Rank-local bytes of every superstep the fabric records."""
    seen = []
    record = CommTrace.record_exchange

    def spy(self, bytes_matrix, tier_matrix, message_count):
        seen.append(int(np.trace(bytes_matrix)))
        record(self, bytes_matrix, tier_matrix, message_count)

    monkeypatch.setattr(CommTrace, "record_exchange", spy)
    return seen


def _traced(**kwargs):
    tracer = Tracer()
    summary = run(tracer=tracer, **kwargs)
    timeline = sum(
        r["tags"]["bytes"]
        for r in tracer.events
        if r["type"] == "event" and r["name"] == "exchange"
    )
    return summary, timeline


@pytest.mark.parametrize(
    "kwargs", [{"engine": "dist1d"}, {"engine": "dist2d"}, {"kernel": "bfs"}]
)
def test_timeline_bytes_equal_total_bytes_without_local_records(kwargs, local_bytes):
    graph = build_csr(generate_kronecker(9, seed=2022))
    summary, timeline = _traced(graph=graph, source=0, num_ranks=4, **kwargs)
    assert sum(local_bytes) == 0
    assert timeline == summary.comm["total_bytes"] > 0


def test_substrate_timeline_also_counts_rank_local_bytes(local_bytes):
    graph = build_csr(generate_kronecker(8, seed=2022))
    roots = [int(v) for v in np.argsort(-graph.out_degree, kind="stable")[:8]]
    summary, timeline = _traced(
        graph=graph, source=roots, kernel="sssp_batch", num_ranks=4
    )
    assert sum(local_bytes) > 0
    assert timeline == summary.comm["total_bytes"] + sum(local_bytes)
