"""Pluggable rank-execution backends: run simulated ranks on real cores.

The engines are bulk-synchronous: between two fabric barriers every rank
runs the same compute phase (``relax_bucket``, ``process_inbox``,
``relax_block``, ...) against state no other rank can touch.  Those phases
are therefore embarrassingly parallel, and this module is the one place
that exploits it.  An engine builds its per-rank objects exactly as
before, wraps them in a :class:`RankTeam`, and from then on drives every
phase through :meth:`RankTeam.call` — the team decides *where* the rank
methods run, and what of their results stays in shared memory:

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
  ``multiprocessing.shared_memory`` arenas without ever being pickled —
  every command is its array payload plus a small pickled metadata tuple
  in the worker's cmd arena, which a fixed header slot points at — and
  a result's :class:`~repro.simmpi.fabric.Wire` stays in the
  producing worker's arena until the destination ranks read their runs
  of it (zero-copy inter-rank transport).

``call`` is written once, on :class:`RankTeam`: the closed check, the
critical-path accounting and the ``phase_call`` attribution.  A backend
supplies only :meth:`RankTeam._run`, which decides where the ranks run;
on every backend they run through :func:`run_rank_tasks`, the one loop
that builds a rank's arguments, times its task and invokes its method.
An executor is just the ``(backend, workers)`` pair that builds a run's
team.

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
the engines tag onto their superstep spans and ``repro inspect`` surfaces.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Callable, Sequence

from repro.obs.profile import split_call_buckets
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simmpi.racecheck import RaceChecker

__all__ = [
    "EXECUTOR_BACKENDS",
    "RankExecutor",
    "RankTeam",
    "WorkerError",
    "resolve_executor",
]

#: Backend names accepted by :class:`RankExecutor`, in documentation order.
EXECUTOR_BACKENDS = ("serial", "thread", "process")


class WorkerError(RuntimeError):
    """A rank method raised inside a process-backend worker.

    The original traceback is embedded in the message; the exception type
    itself cannot cross the process boundary without pickling arbitrary
    user state, which the transport layer never does.
    """


def run_rank_tasks(ranks, ids, method, args_of, results, starts, durations):
    """Run ``method`` on ``ranks[i]`` for each ``i`` of ``ids``, in order.

    The one place any backend invokes a rank method.  ``args_of(i)``
    builds rank ``i``'s argument tuple; the call's result, start
    timestamp and wall seconds land at index ``i`` of ``results``,
    ``starts`` and ``durations``.  The loop stops at the first rank that
    raises (building its arguments included) and returns ``(i, exc)``;
    ``None`` when every rank ran.
    """
    for i in ids:
        try:
            args = args_of(i)
            t0 = time.perf_counter()
            results[i] = getattr(ranks[i], method)(*args)
        except BaseException as exc:  # the caller decides how it surfaces
            return i, exc
        starts[i] = t0
        durations[i] = time.perf_counter() - t0
    return None


class RankTeam:
    """Drives one engine run's rank objects; this base runs them inline.

    ``call(method, per_rank=None, common=(), parallel=False)`` invokes
    ``getattr(rank, method)(*per_rank[i], *common)`` on every rank and
    returns the results **in rank order** (the determinism anchor).
    ``parallel=True`` marks a compute phase: it may run on real cores and
    its per-rank wall durations feed the critical-path accounting;
    ``parallel=False`` is for cheap control reads that stay sequential.

    A backend overrides :meth:`_run` and nothing else of ``call``; this
    class is the ``serial`` backend — every rank method runs in the
    calling thread, in rank order.  ``num_workers`` counts the workers
    that actually run: ``min(workers, ranks)``, and 1 on serial.
    """

    backend = "serial"

    def __init__(
        self,
        ranks: Sequence,
        num_workers: int = 1,
        tracer: Tracer | None = None,
        racecheck: bool = False,
    ) -> None:
        self.ranks = list(ranks)
        self.num_ranks = len(self.ranks)
        self.num_workers = max(1, min(int(num_workers), self.num_ranks))
        #: Rank ids per worker: rank ``i`` runs on worker ``i % num_workers``.
        self._rank_ids = [
            list(range(w, self.num_ranks, self.num_workers))
            for w in range(self.num_workers)
        ]
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The team's :class:`~repro.simmpi.racecheck.RaceChecker` when the
        #: run was started with ``racecheck=True``; ``None`` otherwise.  The
        #: driver reads it to attach the audit report to the run's meta.
        #: Serial attaches one too, so racecheck runs report uniformly.
        self.racecheck = RaceChecker(self.backend, self.tracer) if racecheck else None
        self._closed = False
        self._critical_path = 0.0
        self._sum_of_ranks = 0.0

    def call(
        self,
        method: str,
        per_rank: Sequence[tuple] | None = None,
        common: tuple = (),
        parallel: bool = False,
    ) -> list:
        if self._closed:
            raise RuntimeError("team is closed")
        profiling = self.tracer.enabled
        t_begin = time.perf_counter() if profiling else 0.0
        results, starts, durations, costs = self._run(
            method, per_rank, tuple(common), parallel, profiling
        )
        if parallel:
            self._account(method, durations, starts)
        if profiling:
            self._profile_call(
                method, parallel, t_begin, time.perf_counter(),
                starts, durations, **costs,
            )
        return results

    def _run(self, method, per_rank, common, parallel, profiling):
        """Run ``method`` on every rank: ``(results, starts, durations, costs)``.

        ``starts``/``durations`` are per-rank wall readings, read when
        ``parallel`` or ``profiling``; ``costs`` holds the
        :meth:`_profile_call` keywords the backend measured beyond them.
        Inline, the ranks run in rank order in the calling thread.
        """
        n = self.num_ranks
        results, starts, durations = [None] * n, [0.0] * n, [0.0] * n
        failed = run_rank_tasks(
            self.ranks, range(n), method, self._args_of(per_rank, common),
            results, starts, durations,
        )
        if failed is not None:
            raise failed[1]
        return results, starts, durations, {}

    @staticmethod
    def _args_of(per_rank, common) -> Callable[[int], tuple]:
        """Rank ``i``'s argument tuple: ``(*per_rank[i], *common)``."""
        if per_rank is None:
            return lambda i: common
        return lambda i: tuple(per_rank[i]) + common

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
        t_end: float,
        starts: Sequence[float] | None,
        durations: Sequence[float] | None,
        t_dispatched: float | None = None,
        ser_out: float = 0.0,
        ser_in: float = 0.0,
        spills: int = 0,
        transport_in: float = 0.0,
    ) -> None:
        """Emit one ``phase_call`` attribution event (tracer-on only)."""
        wall = t_end - t_begin
        buckets = split_call_buckets(
            wall,
            dispatch_window=0.0 if t_dispatched is None else t_dispatched - t_begin,
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

    def close(self) -> None:
        """Release the team's workers (idempotent); later calls raise."""
        self._closed = True


class RankExecutor:
    """Which backend runs a run's ranks, and on how many workers.

    A plain ``(backend, workers)`` value: the workers belong to each team
    (they must start after the rank objects exist — the process backend
    forks them to inherit the ranks copy-on-write), so one executor serves
    any number of sequential runs and :meth:`close` has nothing to
    release.  ``workers`` defaults to the host's CPU count and is always
    1 on ``serial``.
    """

    def __init__(self, backend: str = "serial", workers: int | None = None) -> None:
        if backend not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"unknown executor backend {backend!r}; "
                f"options: {', '.join(EXECUTOR_BACKENDS)}"
            )
        if backend == "process" and "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "the process executor needs the fork start method (POSIX); "
                "use executor='thread' on this platform"
            )
        if backend == "serial":
            workers = 1
        elif workers is None:
            workers = os.cpu_count() or 1
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.backend = backend
        self.workers = workers

    def team(
        self,
        ranks: Sequence,
        tracer: Tracer | None = None,
        racecheck: bool = False,
    ) -> RankTeam:
        """A team of this backend over one run's freshly built ``ranks``."""
        if self.backend == "serial":
            team_cls = RankTeam
        else:
            from repro.simmpi import parked  # parked imports this module

            team_cls = (
                parked.ParkedThreadTeam if self.backend == "thread"
                else parked.ParkedProcessTeam
            )
        return team_cls(ranks, self.workers, tracer, racecheck)

    def close(self) -> None:
        """Nothing to release: workers belong to teams (kept for callers)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def resolve_executor(
    spec: str | RankExecutor | None, workers: int | None = None
) -> tuple[RankExecutor, bool]:
    """Resolve an engine's ``executor=`` argument to ``(executor, owns)``.

    ``owns`` is true when the executor was built here from a backend name
    rather than passed in (an instance, or the serial default).  Since an
    executor holds no resources, nothing needs closing either way.
    """
    if spec is None:
        if workers is not None:
            raise ValueError(
                "workers= requires an executor backend "
                "(executor='thread' or 'process')"
            )
        return RankExecutor(), False
    if isinstance(spec, RankExecutor):
        if workers is not None:
            raise ValueError(
                "workers= cannot be combined with an executor instance; "
                "size the executor when constructing it"
            )
        return spec, False
    return RankExecutor(spec, workers), True
