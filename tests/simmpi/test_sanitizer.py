"""Fabric sanitizer: per-collective invariant checks.

Two layers under test:

1. unit — :class:`FabricSanitizer` raises on each seeded violation
   (mismatched schemas, lost payload, unacked drops, NaN reductions,
   zero-progress spinning) and counts what it audited;
2. integration — a sanitized fabric run end-to-end, *with fault
   injection on*, reports zero violations and distances bit-identical
   to the Dijkstra oracle: the retry protocol conserves payload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.baselines.dijkstra import dijkstra
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.obs.tracer import Tracer
from repro.simmpi.fabric import Fabric, Message, Wire
from repro.simmpi.machine import small_cluster
from repro.simmpi.sanitizer import FabricSanitizer, SanitizerViolation


def _msg(n, dtype=np.int64):
    return Message(
        vertex=np.arange(n, dtype=dtype), dist=np.ones(n, dtype=np.float64)
    )


def _wires(sent):
    """``sent[src]`` maps each destination to what rank ``src`` sends it:
    one wire per rank, as the fabric hands them over."""
    return [Wire.from_mapping(outbox, len(sent)) for outbox in sent]


def _inbox(msgs):
    return Message.gather([piece for m in msgs for piece in m.pieces]) if msgs else None


class TestExchange:
    def test_clean_exchange_counts_what_it_audited(self):
        san = FabricSanitizer(num_ranks=2)
        sent = [{1: _msg(3)}, {0: _msg(2), 1: _msg(1)}]
        delivered = [_msg(2), _inbox([_msg(3), _msg(1)])]
        san.check_exchange(0, _wires(sent), delivered, fault_tags={})
        assert san.collectives == 1
        assert san.messages_checked == 2  # rank 1's run to itself is no message
        assert san.elements_checked == 6

    def test_mixed_schema_raises(self):
        san = FabricSanitizer(num_ranks=2)
        odd = Message(vertex=np.arange(2, dtype=np.int64))  # missing "dist"
        sent = [{0: _msg(3)}, {1: odd}]
        with pytest.raises(SanitizerViolation, match="collective-mismatch"):
            san.check_exchange(0, _wires(sent), [_msg(3), odd], fault_tags={})

    def test_mixed_dtype_is_a_schema_mismatch(self):
        san = FabricSanitizer(num_ranks=2)
        sent = [{0: _msg(3)}, {1: _msg(2, dtype=np.int32)}]
        with pytest.raises(SanitizerViolation, match="collective-mismatch"):
            san.check_exchange(0, _wires(sent), [_msg(3), _msg(2)], fault_tags={})

    def test_lost_payload_raises_conservation(self):
        san = FabricSanitizer(num_ranks=2)
        sent = [{0: _msg(3)}, {1: _msg(2)}]
        delivered = [_msg(3), _msg(1)]  # rank 1 got 1 of 2 elements
        with pytest.raises(SanitizerViolation, match="conservation"):
            san.check_exchange(4, _wires(sent), delivered, fault_tags={})

    def test_duplicated_payload_raises_conservation(self):
        san = FabricSanitizer(num_ranks=1)
        with pytest.raises(SanitizerViolation, match="conservation"):
            san.check_exchange(0, _wires([{0: _msg(2)}]), [_msg(3)], fault_tags={})

    def test_drops_without_retries_raise(self):
        san = FabricSanitizer(num_ranks=1)
        sent = [{0: _msg(2)}]
        with pytest.raises(SanitizerViolation, match="unacked-drop"):
            san.check_exchange(0, _wires(sent), [_msg(2)], fault_tags={"drops": 3})

    def test_drops_with_retries_are_reconciled(self):
        san = FabricSanitizer(num_ranks=1)
        sent = [{0: _msg(2)}]
        san.check_exchange(
            0, _wires(sent), [_msg(2)], fault_tags={"drops": 3, "retries": 2}
        )
        assert san.drops_reconciled == 3


class TestAllgatherAllreduce:
    def test_allgather_schema_mismatch_raises(self):
        san = FabricSanitizer(num_ranks=2)
        odd = Message(other=np.arange(2, dtype=np.int64))
        with pytest.raises(SanitizerViolation, match="collective-mismatch"):
            san.check_allgather(0, [_msg(2), odd], [None, None])

    def test_allgather_conservation_raises_per_rank(self):
        san = FabricSanitizer(num_ranks=2)
        contributions = [_msg(2), _msg(1)]
        with pytest.raises(SanitizerViolation, match="conservation"):
            san.check_allgather(0, contributions, [_msg(3), _msg(2)])

    def test_allgather_clean(self):
        san = FabricSanitizer(num_ranks=2)
        contributions = [_msg(2), None]
        san.check_allgather(0, contributions, [_msg(2), _msg(2)])
        assert san.elements_checked == 4  # 2 elements delivered to 2 ranks

    def test_allreduce_nan_raises(self):
        san = FabricSanitizer(num_ranks=3)
        with pytest.raises(SanitizerViolation, match="nan-reduction"):
            san.check_allreduce(np.array([1.0, np.nan, 3.0]), op="min")

    def test_allreduce_finite_is_clean(self):
        san = FabricSanitizer(num_ranks=3)
        san.check_allreduce(np.array([1.0, 2.0, 3.0]), op="min")
        assert san.collectives == 1

    def test_allreduce_inf_no_vote_is_clean(self):
        # inf is the engines' "no vote": only NaN poisons a reduction.
        fabric = Fabric(small_cluster(2), 2, sanitize=True)
        assert fabric.allreduce(np.array([np.inf, 3.0]), op="min") == 3.0
        assert fabric.allreduce(np.array([np.inf, np.inf]), op="min") == np.inf
        assert fabric.sanitizer.report()["violations"] == 0


class TestNoProgress:
    def test_empty_streak_trips_the_threshold(self):
        san = FabricSanitizer(num_ranks=1, deadlock_threshold=4)
        empty = [None]
        for _ in range(3):
            san.check_exchange(0, empty, [None], fault_tags={})
        with pytest.raises(SanitizerViolation, match="no-progress"):
            san.check_exchange(0, empty, [None], fault_tags={})

    def test_payload_resets_the_streak(self):
        san = FabricSanitizer(num_ranks=1, deadlock_threshold=4)
        for _ in range(3):
            san.check_exchange(0, [None], [None], fault_tags={})
        san.check_exchange(0, _wires([{0: _msg(1)}]), [_msg(1)], fault_tags={})
        for _ in range(3):
            san.check_exchange(0, [None], [None], fault_tags={})
        assert san.max_empty_streak == 3

    def test_allreduce_is_control_plane_not_progress(self):
        # A spinning engine reduces a termination flag every iteration;
        # those votes must neither feed nor reset the streak.
        san = FabricSanitizer(num_ranks=1, deadlock_threshold=4)
        for _ in range(3):
            san.check_exchange(0, [None], [None], fault_tags={})
            san.check_allreduce(np.array([0.0]), op="sum")
        with pytest.raises(SanitizerViolation, match="no-progress"):
            san.check_exchange(0, [None], [None], fault_tags={})

    def test_report_shape(self):
        san = FabricSanitizer(num_ranks=2)
        san.check_exchange(0, _wires([{1: _msg(2)}, {}]), [None, _msg(2)], fault_tags={})
        rep = san.report()
        assert rep["violations"] == 0
        assert rep["collectives"] == 1
        assert rep["messages_checked"] == 1


class TestFabricIntegration:
    def test_sanitized_fabric_catches_mixed_schema_exchange(self):
        fabric = Fabric(small_cluster(2), 2, sanitize=True)
        outboxes = [
            {1: Message(vertex=np.arange(3, dtype=np.int64))},
            {0: Message(other=np.arange(2, dtype=np.int64))},
        ]
        with pytest.raises(SanitizerViolation, match="collective-mismatch"):
            fabric.exchange(outboxes)

    def test_violation_is_mirrored_as_tracer_event(self):
        tracer = Tracer()
        fabric = Fabric(small_cluster(2), 2, tracer=tracer, sanitize=True)
        with pytest.raises(SanitizerViolation):
            fabric.allreduce(np.array([np.nan, 1.0]), op="min")
        kinds = [
            e.get("tags", {}).get("kind")
            for e in tracer.events
            if e.get("cat") == "sanitizer"
        ]
        assert "nan-reduction" in kinds

    def test_clean_run_audits_collectives(self):
        fabric = Fabric(small_cluster(2), 2, sanitize=True)
        fabric.exchange(
            [{1: Message(v=np.arange(3, dtype=np.int64))}, {}]
        )
        fabric.allreduce(np.array([1.0, 2.0]), op="sum")
        rep = fabric.sanitizer.report()
        assert rep["collectives"] == 2
        assert rep["violations"] == 0


@pytest.fixture(scope="module")
def graph():
    return build_csr(generate_kronecker(10, seed=2022))


@pytest.fixture(scope="module")
def oracle(graph):
    return dijkstra(graph, 0)


class TestEndToEnd:
    """Acceptance: faults on, sanitizer on, zero violations, exact answers."""

    FAULTS = "drop=0.02,seed=7"

    @pytest.mark.parametrize("engine", ["dist1d", "dist2d"])
    def test_sssp_engines_survive_a_faulted_audit(self, graph, oracle, engine):
        summary = api.run(
            graph, 0, engine=engine, num_ranks=4,
            faults=self.FAULTS, sanitize=True,
        )
        rep = summary.result.meta["sanitizer"]
        assert rep["violations"] == 0
        assert rep["collectives"] > 0
        assert rep["drops_reconciled"] > 0, "the fault plan should inject drops"
        assert np.array_equal(summary.result.dist, oracle.dist)

    def test_bfs_engine_survives_a_faulted_audit(self, graph):
        summary = api.run(
            graph, 0, kernel="bfs", num_ranks=4,
            faults=self.FAULTS, sanitize=True,
        )
        rep = summary.result.meta["sanitizer"]
        assert rep["violations"] == 0
        assert rep["collectives"] > 0

    def test_shared_engine_rejects_sanitize(self, graph):
        with pytest.raises(ValueError, match="no fabric"):
            api.run(graph, 0, engine="shared", sanitize=True)


@pytest.mark.parametrize("num_ranks", [1, 4, 7])
@pytest.mark.parametrize("kernel", api.KERNELS)
def test_messages_checked_are_the_fabric_messages(kernel, num_ranks):
    """The audit counts what the byte ledger counts: a run a rank addresses
    to itself, and anything a lone rank gathers, is not a message."""
    graph = build_csr(generate_kronecker(8, seed=2022))
    roots = [int(v) for v in np.argsort(-graph.out_degree, kind="stable")[:8]]
    source = {"sssp": roots[0], "bfs": roots[0], "bfs64": roots, "sssp_batch": roots}
    summary = api.run(
        graph, source.get(kernel), kernel=kernel, num_ranks=num_ranks, sanitize=True
    )
    checked = summary.result.meta["sanitizer"]["messages_checked"]
    assert checked == summary.comm["messages"]
    assert checked > 0 or num_ranks == 1
