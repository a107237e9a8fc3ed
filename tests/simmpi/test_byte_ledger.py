"""The byte ledger: the fabric counts every byte once, and only traffic.

Ranks pack records for other ranks and, on the vertex-kernel substrate,
for themselves.  The fabric sums what each rank packed — the memcpy charge
of the next compute phase, rank-local records included — and records of
that only what crosses a link: ``CommTrace`` (``total_bytes``,
``messages``, ``step_bytes``, ``bytes_sent_per_rank``) and the timeline's
``exchange`` events leave rank-local records out, so the two agree on
every engine.
"""

import numpy as np
import pytest

from repro import run
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.obs import Tracer
from repro.simmpi.fabric import Fabric, Message
from repro.simmpi.machine import small_cluster


@pytest.fixture
def sent(monkeypatch):
    """What the ranks hand the fabric, counted outside it.

    ``pairs``: (src, dst) runs with ``src != dst`` over all exchanges;
    ``gathered``: non-empty allgather contributions on more than one
    rank; ``local_bytes``: bytes of records a rank addressed to itself.
    """
    seen = {"pairs": 0, "gathered": 0, "local_bytes": 0}
    exchange, allgather = Fabric.exchange, Fabric.allgather

    def spy_exchange(self, wires):
        for src, wire in enumerate(wires):
            if wire is not None:
                seen["pairs"] += int(np.count_nonzero(np.delete(wire.counts, src)))
                seen["local_bytes"] += int(wire.counts[src]) * wire.record_bytes
        return exchange(self, wires)

    def spy_allgather(self, contributions):
        if self.num_ranks > 1:
            seen["gathered"] += sum(m is not None and len(m) > 0 for m in contributions)
        return allgather(self, contributions)

    monkeypatch.setattr(Fabric, "exchange", spy_exchange)
    monkeypatch.setattr(Fabric, "allgather", spy_allgather)
    return seen


def _ledger(sent, **kwargs):
    """Run traced and check the ledger; return the rank-local bytes packed."""
    tracer = Tracer()
    summary = run(tracer=tracer, num_ranks=4, **kwargs)
    timeline = sum(
        r["tags"]["bytes"]
        for r in tracer.events
        if r["type"] == "event" and r["name"] == "exchange"
    )
    assert timeline == summary.comm["total_bytes"] == sum(summary.step_bytes) > 0
    assert summary.comm["messages"] == sent["pairs"] + sent["gathered"]
    return sent["local_bytes"]


@pytest.mark.parametrize(
    "kwargs", [{"engine": "dist1d"}, {"engine": "dist2d"}, {"kernel": "bfs"}]
)
def test_timeline_bytes_equal_total_bytes_without_local_records(kwargs, sent):
    graph = build_csr(generate_kronecker(9, seed=2022))
    assert _ledger(sent, graph=graph, source=0, **kwargs) == 0


@pytest.mark.parametrize("kernel", ["sssp_batch", "bfs64", "cc", "pagerank", "kcore"])
def test_substrate_timeline_leaves_rank_local_bytes_out(kernel, sent):
    graph = build_csr(generate_kronecker(8, seed=2022))
    roots = [int(v) for v in np.argsort(-graph.out_degree, kind="stable")[:8]]
    source = roots if kernel in ("sssp_batch", "bfs64") else None
    assert _ledger(sent, graph=graph, source=source, kernel=kernel) > 0


def test_self_send_is_delivered_and_packed_but_is_not_traffic():
    f = Fabric(small_cluster(), 3)

    def records(n):
        return Message(vertex=np.arange(n, dtype=np.int64), dist=np.zeros(n))

    inboxes = f.exchange([{0: records(3), 1: records(1)}, {1: records(2)}, None])
    assert [None if m is None else len(m) for m in inboxes] == [3, 3, None]
    assert f.trace.messages == 1
    assert f.trace.step_bytes == [16]
    assert f.trace.total_bytes == 16
    assert f.trace.bytes_sent_per_rank.tolist() == [16, 0, 0]
    # Packing is work whoever the records are for: the memcpy charge of the
    # next compute phase reads every byte, once.
    assert f.take_packed().tolist() == [64, 32, 0]
    assert f.take_packed().tolist() == [0, 0, 0]
