"""The one team-call path, run with toy ranks on every backend.

``RankTeam.call`` is written once; a backend supplies only how the ranks
run.  These tests pin what that buys: one ``phase_call`` attribution per
call whose buckets partition the wall time, the same worker count and
closed-team behaviour everywhere, and — on the process backend — the
team, not the caller, deciding that a wire result stays parked in shared
memory while every other result comes back owned.
"""

import math

import numpy as np
import pytest

from repro import api
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.obs.profile import BUCKETS
from repro.obs.tracer import Tracer
from repro.simmpi.executor import EXECUTOR_BACKENDS, RankExecutor
from repro.simmpi.fabric import Message, Wire


class _Toy:
    def __init__(self, rank):
        self.rank = rank

    def identity(self):
        return self.rank

    def outbox(self, length):
        return Wire(
            ("vertex",),
            (np.arange(length, dtype=np.int64) + self.rank,),
            counts=[length, 0],
        )

    def maybe_outbox(self, length):
        """A flush where only even ranks have anything to send."""
        return self.outbox(length) if self.rank % 2 == 0 else None

    def payload(self):
        return (
            np.full(3, self.rank),
            Message(vertex=np.arange(2, dtype=np.int64) + self.rank),
            {"rank": self.rank},
        )


def _team(backend, num_ranks=4, workers=2, tracer=None):
    return RankExecutor(backend, workers).team(
        [_Toy(r) for r in range(num_ranks)], tracer=tracer
    )


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
def test_one_phase_call_per_call_with_buckets_summing_to_wall(backend):
    tracer = Tracer()
    team = _team(backend, tracer=tracer)
    try:
        team.call("identity")
        team.call("identity", parallel=True)
        team.call("outbox", common=(4,), parallel=True)
    finally:
        team.close()
    calls = [e for e in tracer.events if e.get("name") == "phase_call"]
    assert [c["tags"]["method"] for c in calls] == ["identity", "identity", "outbox"]
    assert [c["tags"]["parallel"] for c in calls] == [False, True, True]
    for call in calls:
        tags = call["tags"]
        assert tags["backend"] == backend
        total = sum(tags[f"{b}_s"] for b in BUCKETS)
        assert math.isclose(total, tags["wall_s"], rel_tol=1e-9, abs_tol=1e-12)


def test_process_team_parks_wires_and_owns_everything_else():
    team = _team("process")
    try:
        wires = team.call("outbox", common=(5,), parallel=True)
        # No flag asked for it: a wire reply is a handle into the
        # producing worker's out arena, its columns never copied over.
        assert all(w.arena_name is not None and w._columns is None for w in wires)
        assert team._out_flip == [1, 1]
        mixed = team.call("maybe_outbox", common=(2,), parallel=True)
        assert [w is None for w in mixed] == [False, True, False, True]
        assert all(w.arena_name is not None for w in mixed if w is not None)
        # Worker 0 holds the even ranks, worker 1 the odd: only 0 parked.
        assert team._out_flip == [2, 1]
        owned = team.call("payload", parallel=True)
        for rank, (arr, msg, tags) in enumerate(owned):
            assert np.array_equal(arr, np.full(3, rank))
            assert isinstance(msg, Message)
            assert all(src.arena_name is None for src, _, _ in msg.pieces)
            assert msg["vertex"].tolist() == [rank, rank + 1]
            assert tags == {"rank": rank}
        # Nothing else parked: the flips only move on wire replies.
        assert team._out_flip == [2, 1]
    finally:
        team.close()


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
@pytest.mark.parametrize("workers", [1, 3, 8])
def test_num_workers_counts_the_workers_that_run(backend, workers):
    team = _team(backend, num_ranks=4, workers=workers)
    try:
        expect = 1 if backend == "serial" else min(workers, 4)
        assert team.num_workers == expect
        if backend == "thread":
            assert len(team._threads) == expect
        if backend == "process":
            assert len(team._procs) == expect
    finally:
        team.close()


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
def test_closed_team_rejects_calls(backend):
    team = _team(backend)
    assert team.call("identity") == [0, 1, 2, 3]
    team.close()
    team.close()  # idempotent
    with pytest.raises(RuntimeError, match="team is closed"):
        team.call("identity")


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_run_reports_the_workers_that_ran(backend):
    graph = build_csr(generate_kronecker(8, seed=1))
    tracer = Tracer()
    run = api.run(
        graph, 0, num_ranks=2, executor=backend, workers=4, tracer=tracer
    )
    assert run.meta["executor"] == {"backend": backend, "workers": 2}
    (solve,) = [
        r for r in tracer.events if r.get("type") == "span" and r["name"] == "solve"
    ]
    assert solve["tags"]["workers"] == 2
