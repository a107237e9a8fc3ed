"""Timing invariants of the rank-execution backends (PR 6 profiler).

The phase-attribution profiler is only as trustworthy as the executor's
raw measurements, so these tests pin the algebra those measurements must
satisfy on every backend:

* ``critical_path <= sum_of_ranks`` always (a phase's slowest rank can
  never exceed the phase's total rank-seconds);
* on the serial backend both aggregates are exact functions of the
  per-task durations (same loop, same clock reads);
* every ``phase_call`` event's five buckets sum exactly to its wall
  time — the decomposition is a partition, not an estimate;
* ``rank_task`` events carry consistent ``start``/``end``/``wait`` tags;
* all of the above survive fault injection, which perturbs the fabric
  (retransmissions) but must not corrupt executor accounting.
"""

import math
import time

import pytest

from repro import api
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.obs.profile import BUCKETS
from repro.obs.tracer import Tracer
from repro.simmpi.executor import EXECUTOR_BACKENDS, RankExecutor

EPS = 1e-9


class _BusyRank:
    """Rank object whose methods burn a measurable, rank-skewed busy loop."""

    def __init__(self, rank):
        self.rank = rank

    def spin(self, base_s):
        # Skew: higher ranks run longer, so max < sum is strict with >1 rank.
        deadline = time.perf_counter() + base_s * (1 + self.rank)
        while time.perf_counter() < deadline:
            pass
        return self.rank

    def nop(self):
        return None


def _run_phases(backend, num_phases=3, num_ranks=4, tracer=None):
    """Drive ``num_phases`` parallel calls; return (team, executor)."""
    ex = RankExecutor(backend, workers=2)
    team = ex.team([_BusyRank(r) for r in range(num_ranks)], tracer=tracer)
    for _ in range(num_phases):
        team.call("spin", common=(2e-4,), parallel=True)
    return team, ex


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
class TestStepTimingInvariants:
    def test_critical_path_le_sum_of_ranks(self, backend):
        team, ex = _run_phases(backend)
        try:
            cp, sor = team.take_step_timing()
        finally:
            team.close()
        assert cp > 0.0 and sor > 0.0
        assert cp <= sor + EPS
        # 4 skewed ranks: the slowest is strictly less than the total.
        assert cp < sor

    def test_take_step_timing_resets(self, backend):
        team, ex = _run_phases(backend)
        try:
            assert team.take_step_timing() > (0.0, 0.0)
            assert team.take_step_timing() == (0.0, 0.0)
        finally:
            team.close()

    def test_control_calls_are_not_accounted(self, backend):
        ex = RankExecutor(backend, workers=2)
        team = ex.team([_BusyRank(r) for r in range(4)])
        try:
            team.call("nop")  # parallel=False: control plane, untimed
            assert team.take_step_timing() == (0.0, 0.0)
        finally:
            team.close()


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
class TestTracedTimingInvariants:
    def _trace(self, backend, num_phases=3, num_ranks=4):
        tracer = Tracer()
        team, ex = _run_phases(
            backend, num_phases=num_phases, num_ranks=num_ranks, tracer=tracer
        )
        try:
            cp, sor = team.take_step_timing()
        finally:
            team.close()
            tracer.close()
        return tracer.events, cp, sor

    def test_buckets_partition_wall_exactly(self, backend):
        records, _, _ = self._trace(backend)
        calls = [r for r in records if r.get("name") == "phase_call"]
        assert calls, "profiling-on runs must emit phase_call events"
        for call in calls:
            tags = call["tags"]
            total = sum(tags[f"{b}_s"] for b in BUCKETS)
            assert math.isclose(total, tags["wall_s"], rel_tol=1e-9, abs_tol=1e-12)
            assert all(tags[f"{b}_s"] >= 0.0 for b in BUCKETS)

    def test_rank_task_tags_consistent(self, backend):
        records, cp, sor = self._trace(backend, num_phases=3, num_ranks=4)
        tasks = [r for r in records if r.get("name") == "rank_task"]
        assert len(tasks) == 3 * 4
        by_phase: dict[int, list[dict]] = {}
        for i, r in enumerate(tasks):
            tags = r["tags"]
            assert math.isclose(
                tags["end"], tags["start"] + tags["seconds"], rel_tol=1e-9
            )
            assert tags["wait"] >= 0.0
            by_phase.setdefault(i // 4, []).append(tags)
        # The executor aggregates are exact functions of the task durations.
        durs = [[t["seconds"] for t in phase] for phase in by_phase.values()]
        assert math.isclose(cp, sum(max(d) for d in durs), rel_tol=1e-9)
        assert math.isclose(sor, sum(sum(d) for d in durs), rel_tol=1e-9)
        # Exactly one rank per phase finishes last and waits for nobody.
        for phase in by_phase.values():
            assert min(t["wait"] for t in phase) == 0.0


class TestSerialExactness:
    def test_serial_aggregates_equal_task_sums(self):
        """Serial: one clock, one loop — the aggregates ARE the task sums."""
        tracer = Tracer()
        ex = RankExecutor("serial")
        team = ex.team([_BusyRank(r) for r in range(3)], tracer=tracer)
        try:
            for _ in range(2):
                team.call("spin", common=(1e-4,), parallel=True)
            cp, sor = team.take_step_timing()
        finally:
            team.close()
            tracer.close()
        secs = [
            r["tags"]["seconds"]
            for r in tracer.events
            if r.get("name") == "rank_task"
        ]
        assert len(secs) == 6
        assert sor == pytest.approx(sum(secs), rel=1e-12)
        assert cp == pytest.approx(max(secs[:3]) + max(secs[3:]), rel=1e-12)
        # Serial runs ranks back to back: compute dominates each call and
        # sum-of-ranks is the whole story (no overlap to subtract).
        calls = [r for r in tracer.events if r.get("name") == "phase_call"]
        for call in calls:
            assert call["tags"]["compute_s"] >= call["tags"]["barrier_wait_s"]


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
def test_invariants_hold_under_fault_injection(backend):
    """Fabric-level faults (drops + retransmits) must not corrupt the
    executor's attribution algebra or the engine's step-timing tags."""
    graph = build_csr(generate_kronecker(8, seed=11))
    tracer = Tracer()
    out = api.run(
        graph, 0, engine="dist1d", num_ranks=4, tracer=tracer,
        faults="drop=0.2,seed=3", executor=backend, workers=2,
    )
    tracer.close()
    assert out.modeled_time > 0.0
    calls = [r for r in tracer.events if r.get("name") == "phase_call"]
    assert calls
    for call in calls:
        tags = call["tags"]
        total = sum(tags[f"{b}_s"] for b in BUCKETS)
        assert math.isclose(total, tags["wall_s"], rel_tol=1e-9, abs_tol=1e-12)
    steps = [
        r for r in tracer.events
        if r.get("type") == "span" and r.get("name") == "superstep"
    ]
    assert steps
    for span in steps:
        tags = span["tags"]
        assert tags["critical_path"] <= tags["sum_of_ranks"] + EPS
