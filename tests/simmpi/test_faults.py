"""Fault injection and the resilience protocol.

The contract under test (the tentpole's acceptance criteria):

1. fault schedules are seeded and deterministic — two plans built from the
   same spec materialize byte-identical schedules;
2. under any fault schedule (drops up to 0.2, delays, stalls, degraded
   links) every engine's distances stay bit-identical to the fault-free
   oracle — faults cost modeled time and retried bytes, never correctness;
3. the retries are *visible*: CommTrace retransmission counters, tracer
   ``fault`` events, and the per-superstep ``retry_bytes`` column all agree;
4. with faults disabled, the fault path is free: modeled time and byte
   totals are unchanged from a fabric constructed without the argument.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.baselines import dijkstra
from repro.analysis.attribution import PhaseAttribution
from repro.obs.tracer import Tracer
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.simmpi.fabric import Fabric, Message
from repro.simmpi.faults import (
    FaultPlan,
    FaultSpec,
    UndeliverableMessageError,
    parse_faults,
)
from repro.simmpi.machine import small_cluster


@pytest.fixture(scope="module")
def graph():
    return build_csr(generate_kronecker(9, seed=11))


class TestParseFaults:
    def test_cli_example(self):
        spec = parse_faults("drop=0.01,delay=2us,seed=7")
        assert spec.drop == 0.01
        assert spec.delay == pytest.approx(2e-6)
        assert spec.seed == 7

    def test_duration_units(self):
        assert parse_faults("delay=1ns").delay == pytest.approx(1e-9)
        assert parse_faults("delay=1.5ms").delay == pytest.approx(1.5e-3)
        assert parse_faults("stall_time=2s").stall_time == pytest.approx(2.0)
        assert parse_faults("timeout=0.25").timeout == pytest.approx(0.25)

    def test_empty_is_default(self):
        assert parse_faults("") == FaultSpec()
        assert not parse_faults("").active

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            parse_faults("dorp=0.1")

    def test_bad_value(self):
        with pytest.raises(ValueError, match="duration"):
            parse_faults("delay=fast")
        with pytest.raises(ValueError, match="key=value"):
            parse_faults("drop")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(drop=1.0)
        with pytest.raises(ValueError):
            FaultSpec(drop=-0.1)
        with pytest.raises(ValueError):
            FaultSpec(degraded_factor=0.5)
        with pytest.raises(ValueError):
            FaultSpec(backoff=0.9)

    def test_describe_is_compact(self):
        d = FaultSpec(drop=0.05, seed=3).describe()
        assert d == {"drop": 0.05, "seed": 3}


class TestDeterminism:
    SPEC = FaultSpec(drop=0.1, delay=2e-6, jitter=1e-6, stall=0.05, degraded=0.2, seed=42)

    def test_same_seed_byte_identical_schedules(self):
        a = FaultPlan(self.SPEC, 8).sample_schedule(12)
        b = FaultPlan(self.SPEC, 8).sample_schedule(12)
        for key in a:
            assert np.array_equal(a[key], b[key]), key

    def test_different_seed_differs(self):
        a = FaultPlan(self.SPEC, 8).sample_schedule(12)
        b = FaultPlan(self.SPEC.with_seed(43), 8).sample_schedule(12)
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_order_independence(self):
        # Counter-based randomness: querying step 5 before step 2 cannot
        # perturb either answer.
        plan = FaultPlan(self.SPEC, 4)
        src = np.arange(4, dtype=np.uint64)
        late_first = plan.drop_mask(5, src, src[::-1], 0).copy()
        plan.drop_mask(2, src, src[::-1], 0)
        assert np.array_equal(plan.drop_mask(5, src, src[::-1], 0), late_first)

    def test_drop_rate_statistics(self):
        plan = FaultPlan(FaultSpec(drop=0.2, seed=1), 16)
        sched = plan.sample_schedule(40, max_attempts=1)
        rate = float(sched["drops"].mean())
        assert 0.17 < rate < 0.23

    def test_coerce_roundtrip(self):
        assert FaultPlan.coerce(None, 4) is None
        assert FaultPlan.coerce(FaultSpec(), 4) is None  # inactive => free path
        plan = FaultPlan.coerce("drop=0.1,seed=2", 4)
        assert isinstance(plan, FaultPlan)
        assert FaultPlan.coerce(plan, 4) is plan
        with pytest.raises(ValueError, match="ranks"):
            FaultPlan.coerce(plan, 8)
        with pytest.raises(TypeError):
            FaultPlan.coerce(0.1, 4)


def _exercise_fabric(fabric: Fabric, steps: int = 10, seed: int = 0) -> list:
    """Drive a fixed message pattern; return the delivered inboxes."""
    rng = np.random.default_rng(seed)
    p = fabric.num_ranks
    inboxes = []
    for _ in range(steps):
        outboxes = []
        for src in range(p):
            box = {}
            for dst in range(p):
                if src != dst and rng.random() < 0.7:
                    n = int(rng.integers(1, 50))
                    box[dst] = Message(vertex=rng.integers(0, 100, size=n).astype(np.int64))
            outboxes.append(box)
        inboxes.append(fabric.exchange(outboxes))
    return inboxes


class TestFabricInjection:
    def test_payloads_identical_under_faults(self):
        machine = small_cluster(4)
        clean = Fabric(machine, 4)
        faulty = Fabric(machine, 4, faults="drop=0.2,delay=2us,stall=0.1,degraded=0.3,seed=5")
        got_clean = _exercise_fabric(clean, steps=8, seed=3)
        got_faulty = _exercise_fabric(faulty, steps=8, seed=3)
        for step_clean, step_faulty in zip(got_clean, got_faulty):
            for m_clean, m_faulty in zip(step_clean, step_faulty):
                if m_clean is None:
                    assert m_faulty is None
                    continue
                assert m_clean.names == m_faulty.names
                for name in m_clean.names:
                    assert np.array_equal(m_clean[name], m_faulty[name])

    def test_faults_cost_modeled_time_and_bytes(self):
        machine = small_cluster(4)
        clean = Fabric(machine, 4)
        faulty = Fabric(machine, 4, faults="drop=0.2,seed=5", tracer=Tracer())
        _exercise_fabric(clean, steps=8, seed=3)
        _exercise_fabric(faulty, steps=8, seed=3)
        assert faulty.clock.total > clean.clock.total
        assert faulty.trace.bytes_retransmitted > 0
        assert faulty.trace.messages_dropped > 0
        assert faulty.trace.retries > 0
        # Goodput bytes are identical; only the retry ledger differs.
        assert faulty.trace.total_bytes == clean.trace.total_bytes
        retried = [
            e["tags"]["bytes"] for e in faulty.tracer.events
            if e["name"] == "fault" and e["tags"]["kind"] == "retry"
        ]
        assert sum(retried) == faulty.trace.bytes_retransmitted

    def test_inactive_fault_arg_is_free(self):
        machine = small_cluster(4)
        plain = Fabric(machine, 4)
        noop = Fabric(machine, 4, faults=FaultSpec())  # nothing enabled
        assert noop.faults is None
        _exercise_fabric(plain, steps=6, seed=9)
        _exercise_fabric(noop, steps=6, seed=9)
        assert noop.clock.total == plain.clock.total
        assert noop.trace.summary() == plain.trace.summary()

    def test_dead_link_raises(self):
        machine = small_cluster(2)
        fabric = Fabric(machine, 2, faults="drop=0.99,max_retries=2,seed=1")
        msg = Message(vertex=np.arange(8, dtype=np.int64))
        with pytest.raises(UndeliverableMessageError):
            for _ in range(50):
                fabric.exchange([{1: msg}, {0: msg}])

    def test_degraded_links_slow_the_clock(self):
        machine = small_cluster(4)
        healthy = Fabric(machine, 4)
        degraded = Fabric(machine, 4, faults="degraded=0.5,degraded_factor=8,seed=2")
        _exercise_fabric(healthy, steps=6, seed=4)
        _exercise_fabric(degraded, steps=6, seed=4)
        assert degraded.clock.total > healthy.clock.total
        # Degradation alone drops nothing.
        assert degraded.trace.messages_dropped == 0


# (kernel, engine) cells the bit-identity guarantee is asserted over.
CELLS_UNDER_TEST = [
    ("sssp", "dist1d"),
    ("sssp", "dist2d"),
    ("bfs", "dist1d"),
]

FAULT_SCHEDULES = [
    "drop=0.2,seed=1",
    "drop=0.05,delay=5us,jitter=2us,seed=2",
    "stall=0.2,stall_time=50us,seed=3",
    "drop=0.1,delay=2us,stall=0.1,degraded=0.25,seed=4",
]


class TestEnginesBitIdenticalUnderFaults:
    @pytest.mark.parametrize("kernel,engine", CELLS_UNDER_TEST)
    @pytest.mark.parametrize("faults", FAULT_SCHEDULES)
    def test_answers_survive_any_schedule(self, graph, kernel, engine, faults):
        clean = api.run(graph, 0, kernel=kernel, engine=engine, num_ranks=4)
        faulty = api.run(
            graph, 0, kernel=kernel, engine=engine, num_ranks=4, faults=faults
        )
        if kernel == "bfs":
            assert np.array_equal(clean.result.level, faulty.result.level)
            assert np.array_equal(clean.result.parent, faulty.result.parent)
        else:
            assert np.array_equal(clean.result.dist, faulty.result.dist)
        assert faulty.modeled_time >= clean.modeled_time

    def test_dist1d_matches_dijkstra_under_faults(self, graph):
        oracle = dijkstra(graph, 0)
        faulty = api.run(graph, 0, engine="dist1d", num_ranks=4, faults="drop=0.2,seed=9")
        assert np.array_equal(faulty.result.dist, oracle.dist)

    def test_same_fault_seed_identical_runs(self, graph):
        a = api.run(graph, 0, engine="dist1d", num_ranks=4, faults="drop=0.1,seed=7")
        b = api.run(graph, 0, engine="dist1d", num_ranks=4, faults="drop=0.1,seed=7")
        assert np.array_equal(a.result.dist, b.result.dist)
        assert a.modeled_time == b.modeled_time
        assert a.comm == b.comm

    def test_fault_counters_surface_in_run(self, graph):
        faulty = api.run(graph, 0, engine="dist1d", num_ranks=4, faults="drop=0.2,seed=1")
        counters = faulty.result.counters.as_dict()
        assert counters["messages_dropped"] > 0
        assert counters["bytes_retransmitted"] > 0
        assert faulty.result.meta["faults"] == {"drop": 0.2, "seed": 1}
        assert faulty.comm["bytes_retransmitted"] == counters["bytes_retransmitted"]

    def test_no_fault_run_unchanged(self, graph):
        # The no-op fault path must be free: passing faults=None cannot
        # change modeled time or byte totals.
        plain = api.run(graph, 0, engine="dist1d", num_ranks=4)
        explicit = api.run(graph, 0, engine="dist1d", num_ranks=4, faults=None)
        assert plain.modeled_time == explicit.modeled_time
        assert plain.comm == explicit.comm
        assert "bytes_retransmitted" in plain.comm
        assert plain.comm["bytes_retransmitted"] == 0


class TestTelemetryVisibility:
    def test_retries_visible_in_trace_and_report(self, graph):
        tracer = Tracer()
        faulty = api.run(
            graph, 0, engine="dist1d", num_ranks=4, faults="drop=0.2,seed=1", tracer=tracer
        )
        fault_events = [e for e in tracer.events if e.get("name") == "fault"]
        assert fault_events, "fault events must reach the tracer"
        kinds = {e["tags"]["kind"] for e in fault_events}
        assert "retry" in kinds
        report = PhaseAttribution.from_records(tracer.events)
        totals = report.totals()
        assert totals["retransmitted_bytes"] == faulty.comm["bytes_retransmitted"]
        assert totals["fault_events"] == len(fault_events)
        assert totals["retransmitted_bytes"] > 0
        # Per-superstep columns still reconcile exactly with CommTrace.
        assert totals["total_bytes"] == faulty.comm["total_bytes"]
        text = report.render_text(max_rows=10)
        assert "retransmitted" in text
        assert "retry_B" in text

    def test_clock_charges_faults_component(self, graph):
        faulty = api.run(
            graph, 0, engine="dist1d", num_ranks=4, faults="stall=0.3,stall_time=100us,seed=2"
        )
        assert faulty.time_breakdown.get("faults", 0.0) > 0.0
