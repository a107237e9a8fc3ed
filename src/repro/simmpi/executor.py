"""Pluggable rank-execution backends: run simulated ranks on real cores.

The engines are bulk-synchronous: between two fabric barriers every rank
runs the same compute phase (``relax_bucket``, ``process_inbox``,
``relax_block``, ...) against state no other rank can touch.  Those phases
are therefore embarrassingly parallel, and this module is the one place
that exploits it.  An engine builds its per-rank objects exactly as
before, wraps them in a :class:`RankTeam`, and from then on drives every
phase through :meth:`RankTeam.call` — the team decides *where* the rank
methods run:

* ``serial`` — in the calling thread, in rank order: today's behavior and
  the default.
* ``thread`` — on resident rank threads parked on a shared barrier pair
  (:mod:`repro.simmpi.parked`).  The hot phases are numpy kernels that
  release the GIL, so real cores overlap them.  Rank objects stay
  in-process; nothing is copied, and a phase costs two barrier crossings
  instead of per-rank pool submissions.
* ``process`` — on resident worker processes, each parked on its own
  ``multiprocessing`` semaphore (:mod:`repro.simmpi.parked`; a shared
  barrier could wedge the dispatcher on a dead worker).  Workers are
  forked from the parent *after* the rank objects exist, so the initial
  state transfers by copy-on-write instead of pickling; steady-state
  arguments and results (wires, messages, numpy arrays) move through
  ``multiprocessing.shared_memory`` arenas without ever being pickled,
  and a ``lazy=True`` result's send buffer stays in the producing
  worker's arena until the destination ranks read their runs of it
  (zero-copy inter-rank transport).

Determinism guarantee: compute phases may interleave freely because ranks
share no mutable state (shared inputs — the graph, the owner array — are
read-only), and every barrier stays canonical: ``call`` returns results in
rank order, and the fabric's exchange/reduction order is fixed rank order.
All three backends therefore produce **bit-identical** distances, modeled
time, and comm bytes — the equivalence-matrix tests pin this, with faults
and the sanitizer on.

The team also measures parallel efficiency: every ``parallel=True`` phase
records per-rank wall durations, accumulated into a per-superstep
``critical_path`` (sum of per-phase maxima — the floor with infinite
cores) vs ``sum_of_ranks`` (total rank-seconds — the serial cost), which
the engines tag onto their superstep spans and RunReport surfaces.
"""

# repro-lint: disable-file=det-parallel-primitives

from __future__ import annotations

import math
import multiprocessing
import os
import time
from typing import Any, Callable, Sequence

import numpy as np

from repro.obs.profile import split_call_buckets
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simmpi.fabric import Message, Wire

__all__ = [
    "EXECUTOR_BACKENDS",
    "ProcessExecutor",
    "RankExecutor",
    "RankTeam",
    "SerialExecutor",
    "ThreadExecutor",
    "WorkerError",
    "make_executor",
    "resolve_executor",
]

#: Backend names accepted by :func:`make_executor`, in documentation order.
EXECUTOR_BACKENDS = ("serial", "thread", "process")

# Shared-memory payload layout: array offsets are aligned so any dtype can
# be mapped in place on the worker side.
_ALIGN = 16
_MIN_ARENA = 1 << 20


class WorkerError(RuntimeError):
    """A rank method raised inside a process-backend worker.

    The original traceback is embedded in the message; the exception type
    itself cannot cross the process boundary without pickling arbitrary
    user state, which the transport layer never does.
    """


# -- pickle-free payload transport (process backend) ------------------------
#
# Arguments and results are mostly numpy arrays, wires and messages.  The
# encoder walks a value, parks every array in a shared-memory arena, and
# returns a small metadata tree (offsets + dtypes + shapes) that *is*
# cheap to send over the control pipe.  Scalars and other plain leaves ride
# along in the metadata.  The decoder maps each array straight out of the
# arena.  Nothing array-shaped is ever pickled.
#
# Two tags carry the wire.  ``"w"`` is a send buffer: each column of a
# :class:`Wire` is written once, with its counts and displacements.
# ``"g"`` is a :class:`Message` as the list of pieces it gathers from: a
# piece whose source wire is parked in a worker's out arena ships as a
# reference (arena name, column offsets, start, count) and the decoding
# worker reads it straight from that arena; any other piece is written to
# the arena at hand.


class _PayloadWriter:
    """Collects arrays during encoding; writes them into a buffer at once."""

    __slots__ = ("arrays", "total")

    def __init__(self) -> None:
        self.arrays: list[tuple[np.ndarray, int]] = []
        self.total = 0

    def reserve(self, array: np.ndarray) -> int:
        offset = -(-self.total // _ALIGN) * _ALIGN
        self.arrays.append((array, offset))
        self.total = offset + array.nbytes
        return offset

    def write_into(self, buf) -> None:
        for array, offset in self.arrays:
            if array.nbytes == 0:
                continue
            dst = np.frombuffer(buf, dtype=np.uint8, count=array.nbytes, offset=offset)
            dst[:] = array.reshape(-1).view(np.uint8)


def _encode(obj: Any, writer: _PayloadWriter):
    if isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        return ("a", writer.reserve(a), a.dtype.str, a.shape)
    if isinstance(obj, Wire):
        return (
            "w",
            obj.names,
            [(writer.reserve(c), c.dtype.str) for c in obj.columns],
            obj.length,
            _encode(obj.counts, writer),
            _encode(obj.displs, writer),
        )
    if isinstance(obj, Message):
        pieces = []
        for wire, start, count in obj.pieces:
            if not count:
                continue  # an empty message keeps one piece, for its schema
            if wire.arena_name is not None:
                pieces.append((wire.arena_name, wire.offsets, start, count))
            else:
                offsets = tuple(
                    writer.reserve(c[start : start + count]) for c in wire.columns
                )
                pieces.append((None, offsets, 0, count))
        return ("g", obj.names, tuple(dt.str for dt in obj.dtypes), pieces)
    if isinstance(obj, tuple):
        return ("t", [_encode(x, writer) for x in obj])
    if isinstance(obj, list):
        return ("l", [_encode(x, writer) for x in obj])
    if isinstance(obj, dict):
        return ("d", [(k, _encode(v, writer)) for k, v in obj.items()])
    return ("p", obj)


def _decode_array(buf, offset: int, dtype_str: str, shape) -> np.ndarray:
    dtype = np.dtype(dtype_str)
    count = math.prod(shape)
    if count == 0:
        return np.empty(shape, dtype=dtype)
    return (
        np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
        .reshape(shape)
        .copy()
    )


def _decode(
    meta,
    buf,
    attach: Callable[[str], Any] | None = None,
    park: Callable[..., Wire] | None = None,
) -> Any:
    """Rebuild a value from its metadata tree and the arena ``buf``.

    ``attach(name)`` maps another arena by name (workers only: message
    pieces parked in other workers' out arenas).  ``park``, when given,
    receives every wire's header instead of its columns being copied out
    — the parent uses it to leave lazy replies in the out arena.
    """
    tag = meta[0]
    if tag == "a":
        return _decode_array(buf, meta[1], meta[2], meta[3])
    if tag == "w":
        _, names, refs, length, counts, displs = meta
        counts = _decode(counts, buf)
        displs = _decode(displs, buf)
        if park is not None:
            return park(names, refs, length, counts, displs)
        columns = [_decode_array(buf, off, dt, (length,)) for off, dt in refs]
        return Wire(names, columns, counts, displs)
    if tag == "g":
        _, names, dtypes, pieces = meta
        if attach is None and any(arena is not None for arena, *_ in pieces):
            raise RuntimeError(
                "message piece parked in a shared-memory arena decoded "
                "outside the process backend (no arena attach function)"
            )
        fields = {}
        for j, (name, dt) in enumerate(zip(names, dtypes)):
            dtype = np.dtype(dt)
            # One copy total per field: pieces map to arena *views*, and
            # the concatenate allocates the owned destination array.
            views = [
                np.frombuffer(
                    buf if arena is None else attach(arena),
                    dtype=dtype,
                    count=count,
                    offset=offsets[j] + start * dtype.itemsize,
                )
                for arena, offsets, start, count in pieces
            ]
            fields[name] = np.concatenate(views) if views else np.empty(0, dtype)
        return Message(**fields)
    if tag == "t":
        return tuple(_decode(m, buf, attach, park) for m in meta[1])
    if tag == "l":
        return [_decode(m, buf, attach, park) for m in meta[1]]
    if tag == "d":
        return {k: _decode(m, buf, attach, park) for k, m in meta[1]}
    return meta[1]


# -- teams ------------------------------------------------------------------


class RankTeam:
    """Drives one engine run's rank objects through an execution backend.

    ``call(method, per_rank=None, common=(), parallel=False)`` invokes
    ``getattr(rank, method)(*per_rank[i], *common)`` on every rank and
    returns the results **in rank order** (the determinism anchor).
    ``parallel=True`` marks a compute phase: it may run on real cores and
    its per-rank wall durations feed the critical-path accounting;
    ``parallel=False`` is for cheap control reads that stay sequential.

    ``lazy=True`` marks a call whose results are the wires of an outbox
    flush, which the fabric will route straight into the *next* call.
    Backends with an inter-process transport then return each
    :class:`~repro.simmpi.fabric.Wire` as a handle — its columns stay in
    the producing worker's arena until the destination ranks read them.
    In-process backends ignore the flag; results are bit-identical either
    way.
    """

    backend = "?"
    num_workers = 1
    #: The team's :class:`~repro.simmpi.racecheck.RaceChecker` when the
    #: run was started with ``racecheck=True``; ``None`` otherwise.  The
    #: driver reads it to attach the audit report to the run's meta.
    racecheck = None

    def __init__(self, num_ranks: int, tracer: Tracer | None) -> None:
        self.num_ranks = num_ranks
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._critical_path = 0.0
        self._sum_of_ranks = 0.0

    def _account(
        self,
        method: str,
        durations: Sequence[float],
        starts: Sequence[float] | None = None,
    ) -> None:
        self._critical_path += max(durations)
        self._sum_of_ranks += sum(durations)
        if self.tracer.enabled:
            # Emitted from the driver thread after the gather — the tracer
            # is not thread-safe and workers must never touch it.  ``start``
            # and ``end`` are absolute monotonic timestamps (comparable
            # across forked workers); ``wait`` is this rank's barrier skew:
            # how long it idled until the phase's slowest task finished.
            phase_end = (
                max(s + d for s, d in zip(starts, durations)) if starts else 0.0
            )
            for rank, seconds in enumerate(durations):
                extra = {}
                if starts:
                    extra = {
                        "start": starts[rank],
                        "end": starts[rank] + seconds,
                        "wait": max(0.0, phase_end - (starts[rank] + seconds)),
                    }
                self.tracer.event(
                    "rank_task",
                    cat="executor",
                    method=method,
                    rank=rank,
                    seconds=seconds,
                    **extra,
                )

    def _profile_call(
        self,
        method: str,
        parallel: bool,
        t_begin: float,
        t_dispatched: float,
        t_end: float,
        starts: Sequence[float] | None,
        durations: Sequence[float] | None,
        ser_out: float = 0.0,
        ser_in: float = 0.0,
        spills: int = 0,
        transport_in: float = 0.0,
    ) -> None:
        """Emit one ``phase_call`` attribution event (tracer-on only)."""
        wall = t_end - t_begin
        buckets = split_call_buckets(
            wall,
            dispatch_window=t_dispatched - t_begin,
            starts=starts,
            durations=durations,
            workers=self.num_workers,
            ser_out=ser_out,
            ser_in=ser_in,
            transport_in=transport_in,
            parallel=parallel,
        )
        self.tracer.event(
            "phase_call",
            cat="executor",
            method=method,
            parallel=parallel,
            backend=self.backend,
            workers=self.num_workers,
            ranks=self.num_ranks,
            wall_s=wall,
            spills=spills,
            **{f"{name}_s": seconds for name, seconds in buckets.items()},
        )

    def take_step_timing(self) -> tuple[float, float]:
        """Return and reset (critical_path, sum_of_ranks) wall seconds.

        ``critical_path`` sums each parallel phase's slowest rank — the
        superstep's lower bound with unlimited cores; ``sum_of_ranks`` sums
        every rank's duration — its serial cost.  Their ratio is the
        superstep's available parallelism.
        """
        timing = (self._critical_path, self._sum_of_ranks)
        self._critical_path = 0.0
        self._sum_of_ranks = 0.0
        return timing

    def call(
        self,
        method: str,
        per_rank: Sequence[tuple] | None = None,
        common: tuple = (),
        parallel: bool = False,
        lazy: bool = False,
    ) -> list:
        raise NotImplementedError

    def close(self) -> None:
        """Release the team's workers; the team is unusable afterwards."""


class SerialTeam(RankTeam):
    """All rank methods run inline in the calling thread, in rank order."""

    backend = "serial"

    def __init__(self, ranks: Sequence, tracer: Tracer | None = None) -> None:
        super().__init__(len(ranks), tracer)
        self.ranks = list(ranks)

    def call(self, method, per_rank=None, common=(), parallel=False, lazy=False):
        profiling = self.tracer.enabled
        timed = parallel or profiling
        t_begin = time.perf_counter() if profiling else 0.0
        results = []
        starts = [] if timed else None
        durations = [] if timed else None
        for i, rank in enumerate(self.ranks):
            args = (tuple(per_rank[i]) + common) if per_rank is not None else common
            if timed:
                t0 = time.perf_counter()
                results.append(getattr(rank, method)(*args))
                starts.append(t0)
                durations.append(time.perf_counter() - t0)
            else:
                results.append(getattr(rank, method)(*args))
        if parallel:
            self._account(method, durations, starts)
        if profiling:
            self._profile_call(
                method, parallel, t_begin, t_begin, time.perf_counter(),
                starts, durations,
            )
        return results


# -- executors --------------------------------------------------------------


class RankExecutor:
    """Factory for :class:`RankTeam` instances; owns any persistent pool.

    One executor can serve many sequential runs (the harness reuses one
    across all benchmark roots); each run builds one team from its freshly
    constructed rank objects.  ``close()`` releases pooled resources.
    """

    name = "?"

    def team(
        self,
        ranks: Sequence,
        tracer: Tracer | None = None,
        racecheck: bool = False,
    ) -> RankTeam:
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled workers (idempotent)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class SerialExecutor(RankExecutor):
    """The default backend: everything runs inline, exactly as before."""

    name = "serial"

    def __init__(self, workers: int | None = None) -> None:
        # ``workers`` is accepted for CLI uniformity; one thread is all
        # there is.
        self.workers = 1

    def team(self, ranks, tracer=None, racecheck=False):
        team = SerialTeam(ranks, tracer)
        if racecheck:
            # No concurrency to check, but attach a checker anyway so
            # racecheck runs report uniformly across backends.
            from repro.simmpi.racecheck import RaceChecker

            team.racecheck = RaceChecker(team.backend, team.tracer)
        return team


class ThreadExecutor(RankExecutor):
    """Resident parked rank threads; each team owns its thread crew.

    Threads are spawned per team (parked on a barrier pair for the team's
    whole run) rather than pooled across teams — the crew holds direct
    references to the team's rank objects, so it cannot outlive them.
    """

    name = "thread"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")

    def team(self, ranks, tracer=None, racecheck=False):
        from repro.simmpi.parked import ParkedThreadTeam

        return ParkedThreadTeam(ranks, self.workers, tracer, racecheck=racecheck)


class ProcessExecutor(RankExecutor):
    """Fork-based parked worker processes with shared-memory transport.

    Workers belong to the team (they must be forked after the rank objects
    exist to inherit them copy-on-write), so this executor holds only the
    configuration; the fork-availability check happens here, once, instead
    of failing mid-run.
    """

    name = "process"

    def __init__(self, workers: int | None = None) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "the process executor needs the fork start method (POSIX); "
                "use executor='thread' on this platform"
            )
        self.workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")

    def team(self, ranks, tracer=None, racecheck=False):
        from repro.simmpi.parked import ParkedProcessTeam

        return ParkedProcessTeam(ranks, self.workers, tracer, racecheck=racecheck)


_FACTORY = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}
assert tuple(_FACTORY) == EXECUTOR_BACKENDS


def make_executor(
    spec: str | RankExecutor = "serial", workers: int | None = None
) -> RankExecutor:
    """Build an executor from a backend name, or pass one through.

    ``workers`` sizes the pool (default: the host's CPU count); it cannot
    be combined with an already-constructed executor instance.
    """
    if isinstance(spec, RankExecutor):
        if workers is not None:
            raise ValueError(
                "workers= cannot be combined with an executor instance; "
                "size the executor when constructing it"
            )
        return spec
    try:
        factory = _FACTORY[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown executor backend {spec!r}; "
            f"options: {', '.join(EXECUTOR_BACKENDS)}"
        ) from None
    return factory(workers=workers)


def resolve_executor(
    spec: str | RankExecutor | None, workers: int | None = None
) -> tuple[RankExecutor, bool]:
    """Resolve an engine's ``executor=`` argument to ``(executor, owns)``.

    ``owns`` tells the caller whether it created the executor (a string
    spec) and must close it, or borrowed one (an instance, or the serial
    default) whose lifetime belongs elsewhere.
    """
    if spec is None:
        if workers is not None:
            raise ValueError(
                "workers= requires an executor backend "
                "(executor='thread' or 'process')"
            )
        return SerialExecutor(), False
    if isinstance(spec, RankExecutor):
        return make_executor(spec, workers), False
    return make_executor(spec, workers), True
