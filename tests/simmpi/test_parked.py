"""Edge-path tests for the parked-worker backends (repro.simmpi.parked).

Covers what the happy-path executor suite does not: arena power-of-two
growth across the pipe-spill threshold, spill-fallback correctness, the
zero-copy wire transport (handles, double-buffering, zero-length fast
path), shutdown under worker death / barrier timeout / interrupt, and
the shared-memory lifecycle regression — no ``/dev/shm`` segment may
survive a worker dying mid-call.
"""

import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.simmpi import parked
from repro.simmpi.executor import RankExecutor, WorkerError
from repro.simmpi.fabric import Fabric, Message, Wire
from repro.simmpi.machine import small_cluster
from repro.simmpi.parked import _MIN_ARENA, ParkedProcessTeam, ParkedThreadTeam


class _Rank:
    """A stateful rank with payload, outbox, and failure behaviours."""

    def __init__(self, rank):
        self.rank = rank
        self.held = None
        self.calls = 0

    def identity(self):
        return self.rank

    def echo(self, value):
        return value

    def make_array(self, nbytes):
        return np.full(nbytes // 8, float(self.rank), dtype=np.float64)

    def outbox(self, length):
        """A flush-shaped result: one wire, every record for both ranks."""
        return Wire(
            ("vertex", "dist"),
            (
                np.arange(length, dtype=np.int64) + self.rank,
                np.full(length, float(self.rank)),
            ),
            counts=[length, length],
            displs=[0, 0],
        )

    def consume(self, msg):
        """An apply-shaped phase: read the routed message's payload."""
        return (int(msg["vertex"].sum()), float(msg["dist"].sum()))

    def hold(self, msg):
        self.held = Message(vertex=msg["vertex"].copy(), dist=msg["dist"].copy())
        return len(msg)

    def recall(self):
        return int(self.held["vertex"].sum())

    def fail_on(self, bad):
        if self.rank in bad:
            raise ValueError(f"rank {self.rank} failed")
        self.calls += 1

    def die(self):
        os._exit(13)

    def hang(self):
        # Long enough to trip a shrunk reply timeout, short enough that
        # close() can still collect the worker without terminating it.
        time.sleep(3)


def _shm_names():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-/dev/shm platforms
        return set()


def _process_team(num_ranks=2, workers=2):
    ranks = [_Rank(r) for r in range(num_ranks)]
    return ParkedProcessTeam(ranks, workers)


# -- arena growth and spill fallback ----------------------------------------


class TestArenaGrowthAndSpill:
    def test_reply_growth_is_power_of_two(self):
        team = _process_team()
        try:
            # First oversized reply spills over the pipe, then the rep arena
            # grows to the next power of two and later replies ride it.
            nbytes = _MIN_ARENA + 4096
            for _ in range(2):
                out = team.call("make_array", common=(nbytes,), parallel=True)
                for rank, arr in enumerate(out):
                    assert arr.size == nbytes // 8
                    assert arr[0] == float(rank)
            for segment in team._rep:
                assert segment.size == 2 * _MIN_ARENA  # 1<<21, power of two
        finally:
            team.close()

    def test_spill_below_and_above_threshold(self):
        team = _process_team()
        try:
            # Straddle the spill threshold in both directions repeatedly;
            # every reply must come back intact whichever path it took.
            for nbytes in (1024, _MIN_ARENA + 64, 512, 3 * _MIN_ARENA, 2048):
                out = team.call("make_array", common=(nbytes,), parallel=True)
                for rank, arr in enumerate(out):
                    assert np.all(arr == float(rank))
        finally:
            team.close()

    def test_command_metadata_beyond_64k_round_trips(self):
        # A plain list rides the pickled metadata, not the array payload:
        # 20,000 floats make a command several times larger than 64 KiB,
        # and it travels the same cmd-arena path as every other command.
        value = [i + 0.5 for i in range(20_000)]
        meta = parked._encode(value, parked._PayloadWriter())
        assert len(pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)) > 1 << 16
        team = _process_team()
        try:
            for _ in range(2):
                assert team.call("echo", common=(value,), parallel=True) == [value] * 2
            assert all(slot.size < 1 << 16 for slot in team._slots)
        finally:
            team.close()

    def test_large_argument_grows_cmd_arena(self):
        team = _process_team()
        try:
            big = np.arange(_MIN_ARENA // 4, dtype=np.float64)  # 2 MiB payload
            out = team.call("echo", per_rank=[(big,), (big + 1,)], parallel=True)
            assert np.array_equal(out[0], big)
            assert np.array_equal(out[1], big + 1)
        finally:
            team.close()


# -- zero-copy wire transport ------------------------------------------------


def _route(wires):
    """Route flushed wires like an engine does: through a fabric."""
    return Fabric(small_cluster(2), 2).exchange(wires)


class TestLazyTransport:
    def test_lazy_reply_returns_shm_handles(self):
        team = _process_team()
        try:
            out = team.call("outbox", common=(5,), parallel=True)
            assert all(isinstance(w, Wire) for w in out)
            # One handle per rank; the payload stays in the producing
            # worker's armed out arena, only the header crossed.
            for worker, wire in enumerate(out):
                assert wire.arena_name in {seg.name for seg in team._out[worker]}
                assert wire._columns is None
                assert wire.counts.tolist() == [5, 5] and wire.nbytes == 2 * 5 * 16
            # Handles read back the same payload the rank built in-process.
            for rank, handle in enumerate(out):
                owned = _Rank(rank).outbox(5)
                assert owned.arena_name is None
                assert handle.schema == owned.schema
                assert np.array_equal(handle.counts, owned.counts)
                assert np.array_equal(handle.displs, owned.displs)
                for got, want in zip(handle.columns, owned.columns):
                    assert np.array_equal(got, want)
        finally:
            team.close()

    def test_handles_route_back_into_workers(self):
        team = _process_team()
        try:
            out = team.call("outbox", common=(7,), parallel=True)
            # Destination d receives a run of every rank's wire — a
            # cross-worker arena read on the far side.
            routed = _route(out)
            assert all(
                src.arena_name is not None for m in routed for src, _, _ in m.pieces
            )
            got = team.call(
                "consume", per_rank=[(m,) for m in routed], parallel=True
            )
            expect_vertex = [
                sum(range(r, r + 7)) + sum(range(r + 1, r + 8))
                for r in (0, 0)
            ]
            assert [g[0] for g in got] == expect_vertex
            assert [g[1] for g in got] == [7.0 * 1.0, 7.0 * 1.0]
        finally:
            team.close()

    def test_double_buffer_survives_consecutive_lazy_calls(self):
        team = _process_team()
        try:
            # Handles from call N must stay valid while call N+1 produces
            # new parked replies (ping-pong out arenas).
            first = team.call("outbox", common=(3,), parallel=True)
            second = team.call("outbox", common=(4,), parallel=True)
            for rank, (old, new) in enumerate(zip(first, second)):
                assert old.arena_name != new.arena_name
                assert np.array_equal(old.columns[0], np.arange(3) + rank)
                assert np.array_equal(new.columns[0], np.arange(4) + rank)
        finally:
            team.close()

    def test_lazy_spill_grows_out_arena_and_retires_old(self):
        team = _process_team()
        try:
            length = (_MIN_ARENA // 16) + 64  # two columns → > _MIN_ARENA total
            before = len(team._retired)
            out = team.call("outbox", common=(length,), parallel=True)
            for rank, wire in enumerate(out):
                assert wire.arena_name is None  # spilled: owned, not parked
                assert np.all(wire.columns[1] == float(rank))
            # The spilled reply grew the armed out arena; the replaced
            # segment went to the graveyard, not /dev/shm limbo.
            assert len(team._retired) > before
            grown = [s for pair in team._out for s in pair if s.size > _MIN_ARENA]
            assert grown
            # A spill parks nothing, so the flip stays put and the next
            # reply lands in the arena the spill grew.
            again = team.call("outbox", common=(length,), parallel=True)
            assert all(wire.arena_name is not None for wire in again)
        finally:
            team.close()

    def test_zero_length_message_fast_path(self):
        empty = Message(vertex=np.empty(0, dtype=np.int64), dist=np.empty(0))
        team = _process_team()
        try:
            out = team.call("echo", common=(empty,), parallel=True)
            for msg in out:
                assert isinstance(msg, Message) and len(msg) == 0
                assert tuple(msg.names) == ("vertex", "dist")
        finally:
            team.close()


# -- shared-memory lifecycle (satellite regression) --------------------------


class TestShmLifecycle:
    def test_close_is_idempotent(self):
        team = _process_team()
        team.close()
        team.close()
        with pytest.raises(RuntimeError, match="closed"):
            team.call("identity")

    def test_worker_death_unlinks_all_segments(self):
        baseline = _shm_names()
        team = _process_team()
        # Force growth so retired segments exist too.
        team.call("make_array", common=(_MIN_ARENA + 64,), parallel=True)
        team.call("outbox", common=((_MIN_ARENA // 16) + 64,), parallel=True)
        assert _shm_names() - baseline  # the team is holding segments
        with pytest.raises(
            WorkerError, match=r"rank worker 0 \(ranks \[0\]\) died mid-call in 'die'"
        ):
            team.call("die", parallel=True)
        # The failed call tore the team down: nothing may leak.
        assert _shm_names() - baseline == set()
        assert team._closed

    def test_thread_error_keeps_team_usable(self):
        ranks = [_Rank(r) for r in range(2)]
        team = ParkedThreadTeam(ranks, 2)
        try:
            with pytest.raises(AttributeError):
                team.call("no_such_method", parallel=True)
            assert team.call("identity", parallel=True) == [0, 1]
        finally:
            team.close()

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_lowest_failing_rank_raises_and_its_worker_stops(self, backend):
        # Worker 0 hosts ranks [0, 2], worker 1 ranks [1, 3]: both fail,
        # the lowest failing rank's exception surfaces with its own type,
        # and no worker runs a rank after its first failure.
        ranks = [_Rank(r) for r in range(4)]
        team = RankExecutor(backend, workers=2).team(ranks)
        try:
            with pytest.raises(ValueError, match="rank 1 failed"):
                team.call("fail_on", common=({1, 2},), parallel=True)
            assert [r.calls for r in ranks] == [1, 0, 0, 0]
            assert team.call("identity", parallel=True) == [0, 1, 2, 3]
        finally:
            team.close()

    def test_executor_close_unlinks_segments(self):
        baseline = _shm_names()
        with RankExecutor("process", workers=2) as exec_obj:
            team = exec_obj.team([_Rank(r) for r in range(2)])
            assert team.call("identity") == [0, 1]
            team.close()
        assert _shm_names() - baseline == set()


# -- shutdown under interrupt and timeout ------------------------------------


class TestShutdown:
    def test_dead_parked_worker_fails_fast(self, monkeypatch):
        monkeypatch.setattr(parked, "_WORKER_TIMEOUT", 5.0)
        baseline = _shm_names()
        team = _process_team(num_ranks=4)
        # Kill a worker while it is parked: its pipe end closes, so the
        # next dispatch must fail fast (EOF, not a timeout) and tear down.
        team._procs[1].kill()
        team._procs[1].join()
        t0 = time.perf_counter()
        with pytest.raises(
            WorkerError,
            match=r"rank worker 1 \(ranks \[1, 3\]\) died mid-call in 'identity'",
        ):
            team.call("identity", parallel=True)
        assert time.perf_counter() - t0 < 4.0  # EOF beat the stall timeout
        assert team._closed
        assert _shm_names() - baseline == set()

    def test_stalled_worker_times_out(self, monkeypatch):
        monkeypatch.setattr(parked, "_WORKER_TIMEOUT", 1.0)
        baseline = _shm_names()
        team = _process_team()
        with pytest.raises(
            WorkerError, match=r"rank worker 0 \(ranks \[0\]\) stalled in 'hang'"
        ):
            team.call("hang", parallel=True)
        assert team._closed
        assert _shm_names() - baseline == set()

    def test_keyboard_interrupt_in_rank_method_propagates(self):
        class _Interrupts:
            def __init__(self, rank):
                self.rank = rank

            def interrupt(self):
                raise KeyboardInterrupt

            def identity(self):
                return self.rank

        team = ParkedThreadTeam([_Interrupts(r) for r in range(2)], 2)
        try:
            with pytest.raises(KeyboardInterrupt):
                team.call("interrupt", parallel=True)
            assert team.call("identity", parallel=True) == [0, 1]
        finally:
            team.close()

    def test_process_interrupt_mid_call_then_close_is_clean(self, monkeypatch):
        monkeypatch.setattr(parked, "_WORKER_TIMEOUT", 5.0)
        baseline = _shm_names()
        team = _process_team()
        # One round trip first, so the worker is parked when the signal
        # lands: CPython drops signals that reach a child between fork()
        # and its after-fork hook, and the join below then never returns.
        assert team.call("identity", parallel=True) == [0, 1]
        # SIGINT the parked worker: it dies (default handler), the call
        # fails, and close() — already run by the failure path — leaves
        # nothing behind; a second close stays a no-op.
        os.kill(team._procs[1].pid, signal.SIGINT)
        team._procs[1].join(timeout=30)
        assert not team._procs[1].is_alive()
        with pytest.raises(WorkerError):
            team.call("identity", parallel=True)
        team.close()
        assert _shm_names() - baseline == set()

    def test_thread_close_releases_parked_workers(self):
        team = ParkedThreadTeam([_Rank(r) for r in range(3)], 2)
        assert team.call("identity", parallel=True) == [0, 1, 2]
        team.close()
        for thread in team._threads:
            thread.join(timeout=5)
            assert not thread.is_alive()

    def test_thread_team_reports_the_workers_it_runs(self):
        with RankExecutor("thread", workers=32) as exec_obj:
            team = exec_obj.team([_Rank(r) for r in range(2)])
            assert len(team._threads) == 2  # crew clamps to rank count
            assert team.num_workers == 2  # and reports the clamped crew
            team.close()
