"""Message-conservation property of the sanitized exchange.

Randomized trials against :class:`FabricSanitizer`: for arbitrary
per-rank outboxes, the gathered inboxes pass the conservation audit
*iff* each destination receives exactly as many elements as were
addressed to it.  Any single tampering — a lost element or a duplicated
element — must raise a ``conservation`` violation.  (The audit is
count-based by design: payload *values* are the engine's business and
are pinned by the oracle tests; the sanitizer owns the wire invariant
that no element vanishes or doubles outside the ack/retry protocol.)
This is the property the end-to-end faulted runs in ``test_kernels.py``
rely on: retries may reorder and re-batch the traffic, never resize it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.simmpi.fabric import Message, Wire
from repro.simmpi.sanitizer import FabricSanitizer, SanitizerViolation

TRIALS = 25


def _random_outboxes(rng: np.random.Generator, num_ranks: int):
    """Per-destination-rank lists of messages with a shared schema."""
    sent = []
    for _ in range(num_ranks):
        msgs = []
        for _ in range(int(rng.integers(1, 4))):
            n = int(rng.integers(1, 8))
            msgs.append(
                Message(
                    vertex=rng.integers(0, 1 << 20, size=n, dtype=np.int64),
                    dist=rng.random(n),
                )
            )
        sent.append(msgs)
    return sent


def _wires(sent):
    """One wire per rank, as the fabric hands them over: rank ``j % P``
    sends the ``j``-th message addressed to each destination."""
    p = len(sent)
    outboxes = [{} for _ in range(p)]
    for dst, msgs in enumerate(sent):
        for j, m in enumerate(msgs):
            outboxes[j % p].setdefault(dst, []).append(m)
    return [Wire.from_mapping({d: _inbox(ms) for d, ms in o.items()}, p) for o in outboxes]


def _inbox(msgs) -> Message:
    return Message.gather([piece for m in msgs for piece in m.pieces])


def _tamper(inbox: Message, kind: str) -> Message | None:
    fields = {k: v.copy() for k, v in inbox.fields.items()}
    if kind == "lose":
        if len(inbox) == 1:
            return None  # the whole inbox vanished — still a violation
        fields = {k: v[:-1] for k, v in fields.items()}
    else:  # duplicate
        fields = {k: np.concatenate([v, v[-1:]]) for k, v in fields.items()}
    return Message(**fields)


class TestConservationProperty:
    def test_clean_exchanges_always_pass(self):
        rng = np.random.default_rng(2022)
        for trial in range(TRIALS):
            num_ranks = int(rng.integers(1, 6))
            san = FabricSanitizer(num_ranks=num_ranks)
            sent = _random_outboxes(rng, num_ranks)
            delivered = [_inbox(msgs) for msgs in sent]
            san.check_exchange(trial, _wires(sent), delivered, fault_tags={})
            assert san.report()["violations"] == 0
            assert san.elements_checked == sum(
                len(m) for msgs in sent for m in msgs
            )

    def test_reordering_and_rebatching_conserve(self):
        # The retry protocol may deliver elements in any order and in any
        # batching; the audit is per-destination count equality, not
        # stream equality.
        rng = np.random.default_rng(7)
        for trial in range(TRIALS):
            num_ranks = int(rng.integers(1, 6))
            san = FabricSanitizer(num_ranks=num_ranks)
            sent = _random_outboxes(rng, num_ranks)
            delivered = []
            for msgs in sent:
                inbox = _inbox(msgs)
                perm = rng.permutation(len(inbox))
                delivered.append(
                    Message(**{k: v[perm] for k, v in inbox.fields.items()})
                )
            san.check_exchange(trial, _wires(sent), delivered, fault_tags={})
            assert san.report()["violations"] == 0

    @pytest.mark.parametrize("kind", ["lose", "duplicate"])
    def test_any_tampering_raises(self, kind):
        rng = np.random.default_rng(hash(kind) % (1 << 32))
        for trial in range(TRIALS):
            num_ranks = int(rng.integers(1, 6))
            san = FabricSanitizer(num_ranks=num_ranks)
            sent = _random_outboxes(rng, num_ranks)
            delivered = [_inbox(msgs) for msgs in sent]
            victim = int(rng.integers(0, num_ranks))
            delivered[victim] = _tamper(delivered[victim], kind)
            with pytest.raises(SanitizerViolation, match="conservation"):
                san.check_exchange(trial, _wires(sent), delivered, fault_tags={})


class TestKernelsAreConserved:
    """End-to-end: sanitized kernel runs audit every collective cleanly."""

    @pytest.fixture(scope="class")
    def graph(self):
        return build_csr(generate_kronecker(10, seed=31))

    @pytest.mark.parametrize("kernel", ["cc", "pagerank", "kcore"])
    def test_faulted_kernel_run_reconciles_every_drop(self, graph, kernel):
        out = api.run(
            graph,
            kernel=kernel,
            num_ranks=4,
            faults="drop=0.05,seed=13",
            sanitize=True,
        )
        rep = out.result.meta["sanitizer"]
        assert rep["violations"] == 0
        assert rep["collectives"] > 0
        assert rep["drops_reconciled"] > 0, "the fault plan should inject drops"
