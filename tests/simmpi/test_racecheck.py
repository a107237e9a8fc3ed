"""Seeded-defect corpus for the runtime race & arena-lifetime checker.

Every scenario plants one specific violation of the PR 8 transport
contract and asserts that exactly the intended check fires — stale
generation reads raise :class:`StaleViewError`, use-after-close raises
:class:`ArenaClosedError` (with racecheck *off* — that guard is always
on), and thread-backend writes to identity-shared arrays raise
:class:`RaceCheckViolation`.  Clean variants of each scenario must stay
silent, and no scenario may leak a ``/dev/shm`` segment.
"""

import os

import numpy as np
import pytest

from repro.obs.tracer import Tracer
from repro.simmpi.executor import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.simmpi.fabric import Fabric, Wire
from repro.simmpi.machine import small_cluster
from repro.simmpi.parked import ParkedProcessTeam, ParkedThreadTeam
from repro.simmpi.racecheck import (
    ArenaClosedError,
    RaceCheckViolation,
    StaleViewError,
)


class _Rank:
    """A rank with lazy-outbox behaviour and a seeded shared-write defect."""

    def __init__(self, rank, shared=None):
        self.rank = rank
        if shared is not None:
            self.shared = shared  # identity-shared across ranks (thread team)

    def identity(self):
        return self.rank

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
        return (int(msg["vertex"].sum()), float(msg["dist"].sum()))

    def read_shared(self):
        return float(self.shared.sum())

    def poke_shared(self):
        # The seeded defect: a parallel rank task mutating an array that
        # other concurrently running ranks read through the same object.
        if self.rank == 0:
            self.shared[1] += 3.0
        return self.rank


def _shm_names():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-/dev/shm platforms
        return set()


def _process_team(racecheck=False, tracer=None):
    ranks = [_Rank(r) for r in range(2)]
    return ParkedProcessTeam(ranks, 2, tracer=tracer, racecheck=racecheck)


def _handles(out):
    """The arena-backed wire handles among a lazy call's results."""
    return [w for w in out if isinstance(w, Wire) and w.arena_name is not None]


def _route(wires):
    """Route flushed wires like an engine does: through a fabric."""
    return Fabric(small_cluster(2), 2).exchange(wires)


# -- generation checks (process backend) -------------------------------------


class TestStaleGenerations:
    def test_read_within_window_is_clean(self):
        team = _process_team(racecheck=True)
        try:
            first = team.call("outbox", common=(3,), parallel=True, lazy=True)
            team.call("outbox", common=(4,), parallel=True, lazy=True)
            # One intervening lazy call: the double buffer still protects
            # the old generation, so materializing must succeed.
            assert len(_handles(first)) == 2
            for handle in _handles(first):
                assert handle.columns[0].size == 3
            assert team.racecheck.handles_checked >= len(_handles(first))
        finally:
            team.close()

    def test_materialize_past_window_raises_stale(self):
        team = _process_team(racecheck=True)
        try:
            first = team.call("outbox", common=(3,), parallel=True, lazy=True)
            team.call("outbox", common=(4,), parallel=True, lazy=True)
            team.call("outbox", common=(5,), parallel=True, lazy=True)
            # Two lazy calls since mint: the arena was recycled underneath.
            stale = _handles(first)
            assert stale
            with pytest.raises(StaleViewError, match="stale-view"):
                stale[0].columns  # noqa: B018 - materialization is the effect
        finally:
            team.close()

    def test_reshipping_stale_handle_raises_at_dispatch(self):
        team = _process_team(racecheck=True)
        try:
            first = team.call("outbox", common=(3,), parallel=True, lazy=True)
            team.call("outbox", common=(4,), parallel=True, lazy=True)
            team.call("outbox", common=(5,), parallel=True, lazy=True)
            routed = _route(first)
            # The defect is caught before the workers ever see the call.
            with pytest.raises(StaleViewError, match="stale-view"):
                team.call(
                    "consume", per_rank=[(m,) for m in routed], parallel=True
                )
        finally:
            team.close()

    def test_flush_apply_pattern_is_clean(self):
        # The fabric's real usage: mint, route, consume on the next call.
        team = _process_team(racecheck=True)
        try:
            out = team.call("outbox", common=(7,), parallel=True, lazy=True)
            routed = _route(out)
            assert all(
                src.arena_name is not None for m in routed for src, _, _ in m.pieces
            )
            got = team.call(
                "consume", per_rank=[(m,) for m in routed], parallel=True
            )
            assert len(got) == 2
            # One handle per rank per lazy call, each checked once at the
            # dispatch that ships its runs (to both ranks).
            assert team.racecheck.handles_minted == 2
            assert team.racecheck.handles_checked == 2
        finally:
            team.close()

    def test_racecheck_off_skips_generation_checks(self):
        team = _process_team(racecheck=False)
        try:
            first = team.call("outbox", common=(3,), parallel=True, lazy=True)
            team.call("outbox", common=(4,), parallel=True, lazy=True)
            team.call("outbox", common=(5,), parallel=True, lazy=True)
            # Unchecked mode preserves the old (unsafe) behaviour: no raise.
            _handles(first)[0].columns
            assert team.racecheck is None
        finally:
            team.close()


# -- arena lifetime (always on) ----------------------------------------------


class TestArenaLifetime:
    def test_use_after_close_raises_even_without_racecheck(self):
        before = _shm_names()
        team = _process_team(racecheck=False)
        try:
            out = team.call("outbox", common=(5,), parallel=True, lazy=True)
            held = _handles(out)
            assert held
        finally:
            team.close()
        with pytest.raises(ArenaClosedError, match="after the owning team"):
            held[0].columns  # noqa: B018
        # ArenaClosedError is a lifetime bug, not a race-mode violation.
        assert not issubclass(ArenaClosedError, RaceCheckViolation)
        assert _shm_names() == before

    def test_concat_over_closed_handles_raises(self):
        team = _process_team(racecheck=False)
        try:
            out = team.call("outbox", common=(5,), parallel=True, lazy=True)
            routed = _route(out)[0]
        finally:
            team.close()
        # The inbox gathers from the handles on first read — too late now.
        with pytest.raises(ArenaClosedError):
            routed.fields  # noqa: B018

    def test_materialized_handles_survive_close(self):
        team = _process_team(racecheck=True)
        try:
            out = team.call("outbox", common=(5,), parallel=True, lazy=True)
            held = _handles(out)
            copies = [np.array(h.columns[0]) for h in held]
        finally:
            team.close()
        # Materializing copied the bytes out of the arena; close() must
        # not invalidate already-owned payloads.
        assert held
        for handle, copy in zip(held, copies):
            assert np.array_equal(handle.columns[0], copy)

    def test_close_with_held_handles_leaks_nothing(self):
        before = _shm_names()
        team = _process_team(racecheck=True)
        out = team.call("outbox", common=(5,), parallel=True, lazy=True)
        held = _handles(out)
        team.close()
        team.close()  # idempotent with detached handles outstanding
        assert held
        assert _shm_names() == before


# -- shared-write intervals (thread backend) ----------------------------------


def _thread_team(racecheck=True, tracer=None):
    shared = np.arange(16, dtype=np.float64)
    ranks = [_Rank(r, shared=shared) for r in range(4)]
    return ParkedThreadTeam(ranks, 2, tracer=tracer, racecheck=racecheck), shared


class TestSharedWriteTracker:
    def test_read_only_phase_is_clean(self):
        team, shared = _thread_team()
        try:
            got = team.call("read_shared", parallel=True)
            assert got == [float(shared.sum())] * 4
            assert team.racecheck.shared_arrays == 1
            assert team.racecheck.regions_checked == 1
        finally:
            team.close()

    def test_parallel_write_to_shared_array_raises(self):
        team, _ = _thread_team()
        try:
            with pytest.raises(RaceCheckViolation, match="'shared'"):
                team.call("poke_shared", parallel=True)
        finally:
            team.close()

    def test_violation_names_ranks_and_byte_interval(self):
        team, _ = _thread_team()
        try:
            with pytest.raises(RaceCheckViolation) as exc_info:
                team.call("poke_shared", parallel=True)
            text = str(exc_info.value)
            assert "shared-write" in text
            assert "[0, 1, 2, 3]" in text  # every rank shares the array
            assert "byte interval" in text
        finally:
            team.close()

    def test_serial_call_path_is_not_tracked(self):
        # Non-parallel calls run one rank at a time; a write there is
        # sequenced, not racy, and must not trip the tracker.
        team, shared = _thread_team()
        try:
            team.call("poke_shared")
            assert shared[1] == 4.0
        finally:
            team.close()

    def test_racecheck_off_has_no_tracker(self):
        team, _ = _thread_team(racecheck=False)
        try:
            team.call("poke_shared", parallel=True)  # defect goes unnoticed
            assert team.racecheck is None
        finally:
            team.close()


# -- tracer mirroring and audit reports ---------------------------------------


class TestAuditPlumbing:
    def test_violations_mirror_into_tracer_events(self):
        tracer = Tracer()
        team, _ = _thread_team(tracer=tracer)
        try:
            with pytest.raises(RaceCheckViolation):
                team.call("poke_shared", parallel=True)
        finally:
            team.close()
        racecheck_events = [e for e in tracer.events if e["cat"] == "racecheck"]
        names = [e["name"] for e in racecheck_events]
        assert "enabled" in names
        violations = [e for e in racecheck_events if e["name"] == "violation"]
        assert len(violations) == 1
        assert violations[0]["tags"]["kind"] == "shared-write"
        assert violations[0]["tags"]["attr"] == "shared"

    def test_process_report_counts_every_minted_handle(self):
        team = _process_team(racecheck=True)
        try:
            out = team.call("outbox", common=(6,), parallel=True, lazy=True)
            for handle in _handles(out):
                handle.columns  # noqa: B018
            report = team.racecheck.report()
        finally:
            team.close()
        assert report["backend"] == "process"
        assert report["handles_minted"] == len(_handles(out))
        assert report["handles_checked"] >= report["handles_minted"]
        assert report["violations"] == 0

    def test_executor_team_threads_racecheck_through(self):
        for executor, backend in (
            (ThreadExecutor(workers=2), "thread"),
            (ProcessExecutor(workers=2), "process"),
        ):
            ranks = [_Rank(r) for r in range(2)]
            team = executor.team(ranks, racecheck=True)
            try:
                assert team.racecheck is not None
                assert team.racecheck.report()["backend"] == backend
            finally:
                team.close()

    def test_serial_team_reports_uniform_zero_audit(self):
        ranks = [_Rank(r) for r in range(2)]
        team = SerialExecutor().team(ranks, racecheck=True)
        try:
            report = team.racecheck.report()
        finally:
            team.close()
        assert report == {
            "backend": "serial",
            "handles_minted": 0,
            "handles_checked": 0,
            "shared_arrays": 0,
            "regions_checked": 0,
            "violations": 0,
        }
