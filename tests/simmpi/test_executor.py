"""Unit tests for the rank-execution backends (repro.simmpi.executor)."""

import numpy as np
import pytest

from repro.obs.tracer import Tracer
from repro.simmpi.executor import (
    EXECUTOR_BACKENDS,
    ProcessExecutor,
    RankExecutor,
    SerialExecutor,
    ThreadExecutor,
    WorkerError,
    _decode,
    _encode,
    _PayloadWriter,
    make_executor,
    resolve_executor,
)
from repro.simmpi.fabric import Message


class _Counter:
    """A tiny stateful rank: accumulates, echoes, and can fail on demand."""

    def __init__(self, rank):
        self.rank = rank
        self.total = 0

    def add(self, x):
        self.total += x
        return self.total

    def identity(self):
        return self.rank

    def scaled(self, arr, factor):
        return arr * factor + self.rank

    def echo(self, value):
        return value

    def boom(self):
        raise ValueError(f"rank {self.rank} exploded")


def _teams(num_ranks=4, tracer=None):
    """One team per backend over fresh rank objects, plus cleanup handles."""
    made = []
    for backend in EXECUTOR_BACKENDS:
        ranks = [_Counter(r) for r in range(num_ranks)]
        exec_obj = make_executor(backend, workers=2)
        made.append((backend, exec_obj, exec_obj.team(ranks, tracer=tracer)))
    return made


class TestEncodeDecode:
    def roundtrip(self, obj):
        writer = _PayloadWriter()
        meta = _encode(obj, writer)
        buf = bytearray(max(writer.total, 1))
        writer.write_into(buf)
        return _decode(meta, buf)

    def test_array_roundtrip(self):
        arr = np.arange(37, dtype=np.float64).reshape(37)
        out = self.roundtrip(arr)
        assert out.dtype == arr.dtype
        assert np.array_equal(out, arr)

    def test_empty_array_roundtrip(self):
        arr = np.empty(0, dtype=np.int64)
        out = self.roundtrip(arr)
        assert out.dtype == np.int64 and out.size == 0

    def test_message_roundtrip(self):
        msg = Message(
            vertex=np.array([3, 1, 4], dtype=np.int64),
            dist=np.array([0.5, 1.5, 2.5]),
        )
        out = self.roundtrip(msg)
        assert isinstance(out, Message)
        assert list(out.fields) == list(msg.fields)
        for k in msg.fields:
            assert np.array_equal(out[k], msg[k])

    def test_nested_containers(self):
        obj = {
            "a": (np.arange(5), [np.ones(3), 7]),
            "b": {"x": None, "y": "text"},
        }
        out = self.roundtrip(obj)
        assert np.array_equal(out["a"][0], np.arange(5))
        assert np.array_equal(out["a"][1][0], np.ones(3))
        assert out["a"][1][1] == 7
        assert out["b"] == {"x": None, "y": "text"}

    def test_mixed_dtypes_stay_aligned(self):
        obj = [
            np.arange(3, dtype=np.uint8),
            np.arange(4, dtype=np.float64),
            np.arange(5, dtype=np.int32),
        ]
        out = self.roundtrip(obj)
        for got, want in zip(out, obj):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_decoded_arrays_are_owned_copies(self):
        # Decoded arrays must not alias the arena: the next superstep
        # overwrites it.
        arr = np.arange(8, dtype=np.int64)
        writer = _PayloadWriter()
        meta = _encode(arr, writer)
        buf = bytearray(writer.total)
        writer.write_into(buf)
        out = _decode(meta, buf)
        buf[:] = b"\0" * len(buf)
        assert np.array_equal(out, arr)


class TestTeams:
    def test_results_in_rank_order(self):
        for backend, exec_obj, team in _teams():
            try:
                assert team.call("identity") == [0, 1, 2, 3], backend
            finally:
                team.close()
                exec_obj.close()

    def test_common_and_per_rank_args(self):
        base = np.arange(4, dtype=np.float64)
        for backend, exec_obj, team in _teams():
            try:
                out = team.call(
                    "scaled",
                    per_rank=[(base + i,) for i in range(4)],
                    common=(10.0,),
                    parallel=True,
                )
                for i, got in enumerate(out):
                    assert np.array_equal(got, (base + i) * 10.0 + i), backend
            finally:
                team.close()
                exec_obj.close()

    def test_state_persists_across_calls(self):
        for backend, exec_obj, team in _teams():
            try:
                team.call("add", common=(5,))
                out = team.call("add", common=(2,))
                assert out == [7, 7, 7, 7], backend
            finally:
                team.close()
                exec_obj.close()

    def test_message_payload_roundtrip(self):
        msg = Message(vertex=np.array([1, 2], dtype=np.int64), dist=np.ones(2))
        for backend, exec_obj, team in _teams():
            try:
                out = team.call(
                    "echo", per_rank=[(msg,)] * 4, parallel=True
                )
                for got in out:
                    assert np.array_equal(got["vertex"], msg["vertex"]), backend
                    assert np.array_equal(got["dist"], msg["dist"]), backend
            finally:
                team.close()
                exec_obj.close()

    def test_large_payload_grows_arena(self):
        # Bigger than the 1 MiB starting arena in both directions: the
        # command arena grows on dispatch, the reply spills once then the
        # reply arena grows for the next call.
        big = np.arange(600_000, dtype=np.float64)  # 4.8 MB
        ranks = [_Counter(r) for r in range(3)]
        exec_obj = ProcessExecutor(workers=2)
        team = exec_obj.team(ranks)
        try:
            for _ in range(2):  # second pass exercises the grown arenas
                out = team.call(
                    "scaled", per_rank=[(big,)] * 3, common=(2.0,), parallel=True
                )
                for i, got in enumerate(out):
                    assert got[0] == i and got[-1] == big[-1] * 2.0 + i
        finally:
            team.close()
            exec_obj.close()

    def test_worker_error_propagates(self):
        ranks = [_Counter(r) for r in range(2)]
        exec_obj = ProcessExecutor(workers=2)
        team = exec_obj.team(ranks)
        try:
            with pytest.raises(WorkerError, match="exploded"):
                team.call("boom", parallel=True)
            # The team survives a failed call.
            assert team.call("identity") == [0, 1]
        finally:
            team.close()
            exec_obj.close()

    def test_thread_error_propagates(self):
        ranks = [_Counter(r) for r in range(2)]
        exec_obj = ThreadExecutor(workers=2)
        team = exec_obj.team(ranks)
        try:
            with pytest.raises(ValueError, match="exploded"):
                team.call("boom", parallel=True)
        finally:
            team.close()
            exec_obj.close()

    def test_closed_team_rejects_calls(self):
        ranks = [_Counter(r) for r in range(2)]
        exec_obj = ProcessExecutor(workers=1)
        team = exec_obj.team(ranks)
        team.close()
        team.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            team.call("identity")
        exec_obj.close()


class TestTiming:
    def test_parallel_calls_accumulate_step_timing(self):
        for backend, exec_obj, team in _teams():
            try:
                team.call("identity", parallel=True)
                team.call("identity", parallel=True)
                critical_path, sum_of_ranks = team.take_step_timing()
                assert critical_path > 0.0, backend
                assert sum_of_ranks >= critical_path, backend
                # take_step_timing resets.
                assert team.take_step_timing() == (0.0, 0.0), backend
            finally:
                team.close()
                exec_obj.close()

    def test_control_calls_are_not_accounted(self):
        for backend, exec_obj, team in _teams():
            try:
                team.call("identity")  # parallel=False
                assert team.take_step_timing() == (0.0, 0.0), backend
            finally:
                team.close()
                exec_obj.close()

    def test_rank_task_events_emitted_when_tracing(self):
        tracer = Tracer()
        ranks = [_Counter(r) for r in range(3)]
        exec_obj = SerialExecutor()
        team = exec_obj.team(ranks, tracer=tracer)
        try:
            team.call("identity", parallel=True)
        finally:
            team.close()
        tasks = [
            e for e in tracer.events
            if e.get("name") == "rank_task" and e.get("cat") == "executor"
        ]
        assert len(tasks) == 3
        assert sorted(t["tags"]["rank"] for t in tasks) == [0, 1, 2]
        assert all(t["tags"]["method"] == "identity" for t in tasks)


class TestFactories:
    def test_backend_registry(self):
        assert EXECUTOR_BACKENDS == ("serial", "thread", "process")
        for backend in EXECUTOR_BACKENDS:
            exec_obj = make_executor(backend, workers=2)
            assert isinstance(exec_obj, RankExecutor)
            assert exec_obj.name == backend
            exec_obj.close()

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            make_executor("gpu")

    def test_instance_passthrough_rejects_workers(self):
        exec_obj = SerialExecutor()
        assert make_executor(exec_obj) is exec_obj
        with pytest.raises(ValueError, match="cannot be combined"):
            make_executor(exec_obj, workers=2)

    def test_resolve_default_is_serial_not_owned(self):
        exec_obj, owns = resolve_executor(None)
        assert isinstance(exec_obj, SerialExecutor) and not owns

    def test_resolve_workers_without_backend_raises(self):
        with pytest.raises(ValueError, match="requires an executor backend"):
            resolve_executor(None, workers=4)

    def test_resolve_string_is_owned(self):
        exec_obj, owns = resolve_executor("thread", workers=2)
        assert isinstance(exec_obj, ThreadExecutor) and owns
        exec_obj.close()

    def test_resolve_instance_is_borrowed(self):
        inst = ThreadExecutor(workers=2)
        exec_obj, owns = resolve_executor(inst)
        assert exec_obj is inst and not owns
        inst.close()

    def test_invalid_worker_counts_raise(self):
        with pytest.raises(ValueError, match="workers"):
            ThreadExecutor(workers=0)
        with pytest.raises(ValueError, match="workers"):
            ProcessExecutor(workers=-1)

    def test_executor_reuse_across_teams(self):
        # One executor, several sequential teams (the harness pattern).
        exec_obj = ThreadExecutor(workers=2)
        try:
            for _ in range(3):
                team = exec_obj.team([_Counter(r) for r in range(2)])
                assert team.call("identity", parallel=True) == [0, 1]
                team.close()
        finally:
            exec_obj.close()

    def test_context_manager_closes(self):
        with ThreadExecutor(workers=1) as exec_obj:
            team = exec_obj.team([_Counter(0)])
            assert team.call("identity") == [0]
            team.close()
        # The executor pools nothing; the crew belonged to the team.
        assert not any(t.is_alive() for t in team._threads)
