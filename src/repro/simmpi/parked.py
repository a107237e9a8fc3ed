"""Resident parked rank workers: the thread and process backends.

PR 5's backends paid a dispatch tax on every phase: the thread team
submitted one pool task per rank per call, and the process team pickled a
command tuple onto a pipe per worker per call.  The profiler (PR 6)
priced that tax precisely — dispatch plus serialization was the majority
of the parallel backends' overhead versus serial.  This module replaces
per-call submission with **resident parked workers**:

* :class:`ParkedThreadTeam` — one daemon thread per worker slot, parked
  on a ``threading.Barrier`` pair.  A phase costs two barrier crossings
  (release + join) for the whole team instead of one pool submission per
  rank, and every worker wakes simultaneously, eliminating submission
  skew.
* :class:`ParkedProcessTeam` — one forked worker process per slot,
  parked on a per-worker ``multiprocessing`` go-semaphore.  Every
  command rides the worker's shared-memory **cmd arena**: the array
  payload first, the pickled metadata tuple after it.  A small per-worker
  **control slot** holds only a header — mode, the metadata's offset and
  length, and the cmd arena's name.  Commands never ride the pipe: a
  parked worker is not reading it, and a large pipe write would deadlock
  the dispatcher.  Semaphores, not a shared barrier, park the processes
  deliberately: releasing one never blocks, so a SIGKILLed worker cannot
  wedge the dispatcher (a ``multiprocessing.Barrier`` waiter that dies
  leaves ``notify_all`` waiting forever for its wake acknowledgement);
  death and stalls are detected on the reply pipe instead.

Both teams inherit :meth:`~repro.simmpi.executor.RankTeam.call` and
supply only ``_run``; each worker runs its ranks (rank ``i`` on worker
``i % num_workers``) through :func:`~repro.simmpi.executor.run_rank_tasks`,
the loop the serial team uses too.  The process team also owns the
**zero-copy wire transport**: a reply that holds a
:class:`~repro.simmpi.fabric.Wire` (an outbox flush) is written to the
worker's *out arena* instead of its reply arena, and the driver receives
a handle — header, counts and column offsets — instead of the columns.
The fabric cuts the handles into per-destination pieces, and the
destination worker attaches the owning worker's arena by name and
gathers its pieces straight out of it — one copy end to end, zero
pickling.  No caller flags such a call: the worker decides when its
encoder meets a wire.

Safety invariants of the wire transport:

* **Decode-then-execute**: a worker materializes (copies) every argument
  before running the rank method, so nothing it later writes can alias
  its inputs.
* **Double-buffered out arenas**: each worker alternates between two out
  arenas, flipping on every reply it parks, so parked reply *N+1* never
  overwrites payload from reply *N* that another (slower) worker is still
  reading.  Handles are therefore valid until the owner's next-but-one
  parked reply — the engines' flush → exchange → apply pattern consumes
  them within one.
* **Retired-arena graveyard**: growing an out arena must not unlink the
  old segment — in-flight handles still name it and a consumer may not
  have mapped it yet — so old segments are retired and unlinked only at
  ``close()``.

Lifecycle: ``close()`` is idempotent, survives dead workers (stop
tokens for the living, terminate for the wedged), and always unlinks
every slot and arena including the graveyard — a worker dying mid-call
raises :class:`WorkerError` *after* the team has torn itself down, so
``/dev/shm`` never leaks.
"""

from __future__ import annotations

import functools
import math
import mmap
import multiprocessing
import os
import pickle
import struct
import threading
import time
import traceback
import weakref
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from repro.obs.tracer import Tracer
from repro.simmpi.executor import RankTeam, WorkerError, run_rank_tasks
from repro.simmpi.fabric import Message, Wire
from repro.simmpi.racecheck import SharedArrayTracker

__all__ = ["ParkedProcessTeam", "ParkedThreadTeam"]

# Control-slot protocol (process backend).  Each worker owns one small
# shared-memory slot holding a header — mode, then the offset and length
# of the pickled command in the cmd arena, and that arena's name; the
# parent writes the cmd arena and the header, then releases that
# worker's go-semaphore.
_MODE_CALL = 1  # run the command the header points at
_MODE_STOP = 2  # exit the worker loop

_SLOT = struct.Struct("<qqq64s")  # (mode, offset, length, cmd arena name)

#: How long the dispatcher waits for a dispatched worker's reply before
#: declaring it wedged and tearing the team down.  A dead worker is
#: detected immediately (its pipe end closes); the timeout only fires
#: for a live-but-stuck worker.  Tests shrink this.
_WORKER_TIMEOUT = 60.0


class ParkedThreadTeam(RankTeam):
    """Parallel phases run on resident rank threads parked on a barrier.

    Rank ``i`` belongs to worker thread ``i % num_workers``.  A
    ``parallel=True`` call publishes the command, releases the ``go``
    barrier, and joins the ``done`` barrier; workers never die between
    calls, so there is no submission latency and no skew — everyone
    starts on the same barrier edge.  Control calls and single-rank teams
    run inline (the rank objects live in-process).

    A worker stops at its first failing rank; the driver re-raises the
    lowest failing rank's exception with its original type, and the team
    survives a failed call.
    """

    backend = "thread"

    def __init__(
        self,
        ranks: Sequence,
        num_workers: int,
        tracer: Tracer | None = None,
        racecheck: bool = False,
    ) -> None:
        super().__init__(ranks, num_workers, tracer, racecheck)
        self._tracker = None
        if self.racecheck is not None:
            # Lockset-lite race detection: arrays shared by identity across
            # rank objects are the read-only inputs of every parallel phase;
            # the tracker checksums them around each phase.
            self._tracker = SharedArrayTracker(self.racecheck, self.ranks)
        crew = self.num_workers
        self._go = threading.Barrier(crew + 1)
        self._done = threading.Barrier(crew + 1)
        #: The call being run: method, argument builder, and the per-rank
        #: result/start/duration lists and per-worker failures it fills.
        self._cmd: tuple | None = None
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(t,),
                daemon=True,
                name=f"repro-parked-rank-{t}",
            )
            for t in range(crew)
        ]
        for thread in self._threads:
            thread.start()

    def _worker_loop(self, tid: int) -> None:
        ids = self._rank_ids[tid]
        while True:
            try:
                self._go.wait()
            except threading.BrokenBarrierError:
                return
            method, args_of, results, starts, durations, failures = self._cmd
            failures[tid] = run_rank_tasks(
                self.ranks, ids, method, args_of, results, starts, durations
            )
            try:
                self._done.wait()
            except threading.BrokenBarrierError:
                return

    def _run(self, method, per_rank, common, parallel, profiling):
        if not parallel or self.num_ranks == 1:
            return super()._run(method, per_rank, common, parallel, profiling)
        n = self.num_ranks
        results, starts, durations = [None] * n, [0.0] * n, [0.0] * n
        failures = [None] * self.num_workers
        args_of = self._args_of(per_rank, common)
        self._cmd = (method, args_of, results, starts, durations, failures)
        tracker = self._tracker
        if tracker is not None:
            tracker.before_parallel()
        self._go.wait()
        t_dispatched = time.perf_counter() if profiling else None
        self._done.wait()
        failed = [f for f in failures if f is not None]
        if failed:
            raise min(failed, key=lambda failure: failure[0])[1]
        if tracker is not None:
            tracker.after_parallel(method)
        return results, starts, durations, {"t_dispatched": t_dispatched}

    def close(self):
        if self._closed:
            return
        super().close()
        # Breaking the barriers releases parked workers (they exit on
        # BrokenBarrierError) and any worker mid-phase exits at the next
        # barrier it reaches.  Idempotent by the _closed latch.
        self._go.abort()
        self._done.abort()
        for thread in self._threads:
            thread.join(timeout=5)


# -- process backend ---------------------------------------------------------


# Pickle-free payload transport.
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

# Array offsets are aligned so any dtype can be mapped in place.
_ALIGN = 16
_MIN_ARENA = 1 << 20


class _PayloadWriter:
    """Collects arrays during encoding; writes them into a buffer at once.

    ``wires`` turns true once the encoder meets a :class:`Wire` — a
    worker then parks its reply in the out arena.  ``check``, if set, sees
    every parked source wire of a message piece (the racecheck hook).
    """

    __slots__ = ("arrays", "total", "wires", "check")

    def __init__(self, check: Callable[[Wire], None] | None = None) -> None:
        self.arrays: list[tuple[np.ndarray, int]] = []
        self.total = 0
        self.wires = False
        self.check = check

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
        writer.wires = True
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
            if wire.arena_name is not None and writer.check is not None:
                writer.check(wire)
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
    — the parent uses it to leave a parked reply in the out arena.
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


def _attach_raw(name: str):
    """Map ``/dev/shm/<name>`` directly; returns ``(buffer, close)``.

    In Python 3.11 a ``SharedMemory`` *attach* also registers with a
    resource tracker, and a forked worker cannot reuse the parent's
    tracker (not its child), so it would spawn one of its own that later
    mistakes the parent-owned segments for leaks.  A raw mmap has no
    tracker side effects; the ``SharedMemory`` path is the non-/dev/shm
    fallback.
    """
    path = "/dev/shm/" + name.lstrip("/")
    try:
        fd = os.open(path, os.O_RDWR)
    except OSError:  # pragma: no cover - non-/dev/shm platforms
        segment = shared_memory.SharedMemory(name=name)
        return segment.buf, segment.close
    try:
        mapped = mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)
    return mapped, mapped.close


def _parked_worker_main(conn, slot, go, ranks: dict) -> None:
    """Process-backend worker loop: park, decode, run, encode, reply.

    Runs in a forked child that inherited ``ranks`` (its subset of the
    team's rank objects) by copy-on-write.  The parent's fabric, tracer
    and remaining ranks also exist in this address space but are never
    touched — all interaction is the control slot, the go-semaphore, the
    reply pipe, and the shared-memory arenas named in each command.

    The slot names the cmd arena and where the pickled command sits in
    it, after the call's array payload.  A reply that holds a wire goes
    to the out arena the command names, any other to the reply arena;
    one that outgrows its arena spills over the pipe.  Arena mappings are
    cached by *name* (a worker may read several other workers' out arenas
    in one call); names churn only when the parent grows an arena, so the
    cache stays small.

    Each reply carries the worker's measured decode/encode seconds and
    per-task start timestamps (``perf_counter`` is CLOCK_MONOTONIC on
    Linux, so worker and driver timestamps share a clock).
    """
    attached: dict[str, tuple] = {}  # name -> (buffer, close)
    ids = sorted(ranks)
    dec_s = 0.0

    def attach(name: str):
        cached = attached.get(name)
        if cached is None:
            cached = attached[name] = _attach_raw(name)
        return cached[0]

    def args_of(rk: int) -> tuple:
        # Rank ``rk``'s arguments in the current command (``per_metas``,
        # ``cmd_buf`` and ``common`` are set by the loop below).
        # Decode-then-execute: every argument is an owned copy before the
        # rank method runs, so the reply's encode can never overwrite
        # bytes still in use.
        nonlocal dec_s
        if per_metas is None:
            return common
        td = time.perf_counter()
        args = tuple(_decode(m, cmd_buf, attach) for m in per_metas[rk]) + common
        dec_s += time.perf_counter() - td
        return args

    try:
        while True:
            go.acquire()
            mode, offset, length, name = _SLOT.unpack_from(slot.buf, 0)
            if mode == _MODE_STOP:
                break
            cmd_buf = attach(name.rstrip(b"\0").decode("ascii"))
            (method, common_meta, per_metas,
             rep_name, rep_size, out_name, out_size) = pickle.loads(
                cmd_buf[offset:offset + length]
            )
            results, starts, durations = {}, {}, {}
            writer = _PayloadWriter()
            try:
                td = time.perf_counter()
                common = tuple(_decode(m, cmd_buf, attach) for m in common_meta)
                dec_s = time.perf_counter() - td
                failed = run_rank_tasks(
                    ranks, ids, method, args_of, results, starts, durations
                )
                if failed is not None:
                    raise failed[1]
                metas = [
                    (rk, _encode(results[rk], writer), durations[rk], starts[rk])
                    for rk in ids
                ]
            except BaseException:
                conn.send(("err", method, traceback.format_exc()))
                continue
            te = time.perf_counter()
            payload = None
            # A wire reply parks in the out arena, where the parent hands
            # out handles and nothing moves; the rest uses the reply arena.
            arena, size = (out_name, out_size) if writer.wires else (rep_name, rep_size)
            if writer.total <= size:
                writer.write_into(attach(arena))
            else:
                # Reply outgrew its arena: spill this one over the pipe and
                # report the size so the parent grows the arena for next time.
                payload = bytearray(writer.total)
                writer.write_into(payload)
            conn.send((
                "res", metas, writer.wires, payload is not None, writer.total,
                dec_s, time.perf_counter() - te,
            ))
            if payload is not None:
                conn.send_bytes(bytes(payload))
    finally:
        for buffer, close in attached.values():
            close()
        conn.close()


class ParkedProcessTeam(RankTeam):
    """Parallel phases run on resident forked workers parked on semaphores.

    Rank ``i`` lives in worker ``i % num_workers`` — forked after the
    engine constructed (and seeded) the rank objects, so the initial
    state arrives by copy-on-write, never pickled.  Steady-state traffic
    is pickle-free for arrays: payloads travel through per-worker
    shared-memory arenas; only tiny metadata tuples cross the control
    slots and reply pipes.  Each worker parks on its own go-semaphore;
    the dispatcher arms every slot first, then releases the semaphores
    back to back, so wakeups are skew-free and — unlike a shared barrier
    — a dead worker can never wedge the dispatcher; workers persist for
    the team's whole run — one fork per run, thousands of supersteps
    served.

    Every call runs on the workers, control calls included.  The wires a
    call returns stay in the producing worker's double-buffered out
    arenas; the parent holds handles (zero-copy transport).
    """

    backend = "process"

    def __init__(
        self,
        ranks: Sequence,
        num_workers: int,
        tracer: Tracer | None = None,
        racecheck: bool = False,
    ) -> None:
        # With racecheck on, the base attaches a checker for the generation
        # checks on wire handles; the thread backend's shared-array tracker
        # has no process-side analogue (writes happen in forked address
        # spaces the parent cannot see).
        super().__init__(ranks, num_workers, tracer, racecheck)
        #: Weakrefs to every wire handle this team minted; ``close()``
        #: detaches the live ones from their arenas (always on — this is
        #: the use-after-close guard, independent of ``racecheck``).
        self._minted: list[weakref.ref] = []
        ctx = multiprocessing.get_context("fork")
        workers = self.num_workers
        self._gos = [ctx.Semaphore(0) for _ in range(workers)]
        self._conns = []
        self._procs = []
        self._slots: list[shared_memory.SharedMemory] = []
        self._cmd: list[shared_memory.SharedMemory] = []
        self._rep: list[shared_memory.SharedMemory] = []
        # Double-buffered out arenas: index = (#parked replies) % 2, so
        # parked reply N+1 never overwrites payload from reply N that a
        # slower consumer is still reading.
        self._out: list[list[shared_memory.SharedMemory]] = []
        self._out_flip = [0] * workers
        #: Out arenas retired by growth; their names may still be held by
        #: in-flight wire handles, so they are unlinked only at close.
        self._retired: list[shared_memory.SharedMemory] = []
        for w in range(workers):
            slot = shared_memory.SharedMemory(create=True, size=_SLOT.size)
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_parked_worker_main,
                args=(
                    child_conn,
                    slot,
                    self._gos[w],
                    {i: self.ranks[i] for i in self._rank_ids[w]},
                ),
                daemon=True,
                name=f"repro-rank-worker-{w}",
            )
            proc.start()
            child_conn.close()
            self._slots.append(slot)
            self._conns.append(parent_conn)
            self._procs.append(proc)
            self._cmd.append(shared_memory.SharedMemory(create=True, size=_MIN_ARENA))
            self._rep.append(shared_memory.SharedMemory(create=True, size=_MIN_ARENA))
            self._out.append([
                shared_memory.SharedMemory(create=True, size=_MIN_ARENA),
                shared_memory.SharedMemory(create=True, size=_MIN_ARENA),
            ])

    # -- wire-handle lifetime & generation guards ----------------------------

    def _mint_handle(self, worker: int, out, *header) -> Wire:
        """A handle to a wire ``worker`` just parked in its out arena ``out``.

        Stamped with the mint generation — the worker's out-arena flip
        counter *after* the parked reply; the handle's double-buffered
        arena half is written again by the worker's second parked reply
        after the mint, so the handle is stale once
        ``_out_flip[worker] >= gen + 2``.
        """
        handle = Wire.parked(*header, out.name, out.buf)
        handle._team_ref = weakref.ref(self)
        handle._worker = worker
        handle._gen = self._out_flip[worker]
        self._minted.append(weakref.ref(handle))
        if self.racecheck is not None:
            self.racecheck.handles_minted += 1
        return handle

    def _check_handle(self, handle: Wire) -> None:
        """Generation check for one team-minted handle (``racecheck=True``)."""
        checker = self.racecheck
        if checker is None:
            return
        checker.handles_checked += 1
        current = self._out_flip[handle._worker]
        if current >= handle._gen + 2:
            checker._violate(
                "stale-view",
                f"wire handle into worker {handle._worker}'s out arena "
                f"({handle.arena_name!r}, minted at generation "
                f"{handle._gen}) used at generation {current}: the "
                f"double-buffered arena was recycled by later parked "
                f"replies and its payload bytes overwritten",
                worker=handle._worker,
                minted_gen=handle._gen,
                current_gen=current,
            )

    @staticmethod
    def _grown(segment: shared_memory.SharedMemory, nbytes: int):
        """A segment of at least ``nbytes``; reuses or replaces ``segment``.

        POSIX keeps an unlinked segment alive while mapped, so the old one
        can be unlinked immediately — cmd/rep names are only ever read
        within the call that sent them.  (Out arenas must NOT come through
        here; see :meth:`_regrown_out`.)
        """
        if segment.size >= nbytes:
            return segment
        segment.close()
        segment.unlink()
        size = max(_MIN_ARENA, 1 << (nbytes - 1).bit_length())
        return shared_memory.SharedMemory(create=True, size=size)

    def _regrown_out(self, w: int, idx: int, nbytes: int) -> None:
        """Replace out arena ``(w, idx)`` with one of >= ``nbytes``.

        The old segment goes to the retirement graveyard instead of being
        unlinked: handles from the previous parked reply may still name
        it, and a consumer worker that has not yet mapped that name must
        still be able to open it.  Graveyard segments are unlinked at
        close; the power-of-two growth schedule bounds their total size by
        roughly the final arena size.
        """
        old = self._out[w][idx]
        if old.size >= nbytes:
            return
        self._retired.append(old)
        size = max(_MIN_ARENA, 1 << (nbytes - 1).bit_length())
        self._out[w][idx] = shared_memory.SharedMemory(create=True, size=size)

    def _fail(self, detail: str):
        """Tear the team down after a worker death, then raise WorkerError.

        Closing *before* raising is the /dev/shm-leak fix: the old GC
        backstop only ran if the (now broken) team object happened to be
        collected, leaving arenas linked when the driver aborted on the
        error.
        """
        self.close()
        raise WorkerError(detail)

    def _run(self, method, per_rank, common, parallel, profiling):
        ser_out = self._dispatch(method, per_rank, common, profiling)
        t_dispatched = time.perf_counter() if profiling else None
        results: list = [None] * self.num_ranks
        durations = [0.0] * self.num_ranks
        starts = [0.0] * self.num_ranks if profiling else None
        ser_in, transport_in, spills = self._gather(
            results, durations, starts, profiling, method
        )
        return results, starts, durations, {
            "t_dispatched": t_dispatched, "ser_out": ser_out, "ser_in": ser_in,
            "spills": spills, "transport_in": transport_in,
        }

    def _dispatch(self, method, per_rank, common, profiling):
        """Arm every worker's control slot, then release their semaphores.

        Each command names the worker's current out-arena half, where a
        reply holding a wire will park.  With racecheck on, the encoder
        checks each team-minted handle a message ships, once per call and
        before any worker is released: workers copy its bytes straight out
        of its arena.  Returns the measured parent-side encode + arena-write
        seconds (0.0 unless ``profiling``).
        """
        check = None
        if self.racecheck is not None:
            seen: set[int] = set()

            def check(wire: Wire) -> None:
                if id(wire) not in seen and wire._team_ref() is self:
                    seen.add(id(wire))
                    self._check_handle(wire)

        ser_out = 0.0
        for w in range(self.num_workers):
            t0 = time.perf_counter() if profiling else 0.0
            writer = _PayloadWriter(check)
            common_meta = tuple(_encode(a, writer) for a in common)
            per_metas = None
            if per_rank is not None:
                per_metas = {
                    i: tuple(_encode(a, writer) for a in per_rank[i])
                    for i in self._rank_ids[w]
                }
            out = self._out[w][self._out_flip[w] & 1]
            rep = self._rep[w]
            blob = pickle.dumps(
                (method, common_meta, per_metas, rep.name, rep.size, out.name, out.size),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            # The command follows the array payload in the cmd arena; never
            # the pipe — a parked worker is not reading it, and a large pipe
            # write would deadlock the dispatcher.
            offset = writer.total
            cmd = self._cmd[w] = self._grown(self._cmd[w], offset + len(blob))
            writer.write_into(cmd.buf)
            cmd.buf[offset:offset + len(blob)] = blob
            _SLOT.pack_into(
                self._slots[w].buf, 0, _MODE_CALL, offset, len(blob),
                cmd.name.encode("ascii"),
            )
            if profiling:
                ser_out += time.perf_counter() - t0
        # All slots are armed before any worker wakes, so the back-to-back
        # releases are one skew-free dispatch edge.  Release never blocks;
        # a dead worker simply leaves its token unconsumed and is caught
        # on the reply pipe in _gather.
        for go in self._gos:
            go.release()
        return ser_out

    def _gather(self, results, durations, starts, profiling, method):
        """Collect one reply per worker.

        A reply parked in the out arena advances that worker's flip and
        comes back as wire handles; a spilled reply grows the arena it
        outgrew.  Returns ``(ser_in, transport_in, spills)``: parent-side
        reply materialization seconds when ``profiling``, the worker-side
        arena copy seconds carried in each reply (payload movement, not
        serialization — nothing is pickled), and the count of replies
        that overflowed their arena onto the pipe.  A rank-method
        exception surfaces as :class:`WorkerError` *after* all replies
        drain (the team survives); a dead worker tears the team down
        first.
        """
        failure = None
        ser_in = 0.0
        transport_in = 0.0
        spills = 0
        for w, conn in enumerate(self._conns):
            try:
                # A dead worker's pipe end closes, so poll() returns
                # immediately and recv() raises EOFError; the timeout only
                # fires for a live-but-wedged worker.
                if not conn.poll(_WORKER_TIMEOUT):
                    self._fail(
                        f"rank worker {w} (ranks {self._rank_ids[w]}) stalled "
                        f"in {method!r} (no reply in {_WORKER_TIMEOUT:.0f}s)"
                    )
                msg = conn.recv()
            except (EOFError, OSError):
                self._fail(
                    f"rank worker {w} (ranks {self._rank_ids[w]}) died "
                    f"mid-call in {method!r}"
                )
            if msg[0] == "err":
                if failure is None:
                    failure = (w, msg[1], msg[2])
                continue
            _, metas, wires, spilled, total, worker_dec, worker_enc = msg
            transport_in += worker_dec + worker_enc
            park = None
            if spilled:
                spills += 1
                buf = conn.recv_bytes()
                if wires:
                    self._regrown_out(w, self._out_flip[w] & 1, total)
                else:
                    self._rep[w] = self._grown(self._rep[w], total)
            elif wires:
                out = self._out[w][self._out_flip[w] & 1]
                self._out_flip[w] += 1
                buf = out.buf
                park = functools.partial(self._mint_handle, w, out)
            else:
                buf = self._rep[w].buf
            t0 = time.perf_counter() if profiling else 0.0
            for rk, meta, duration, start in metas:
                results[rk] = _decode(meta, buf, park=park)
                durations[rk] = duration
                if starts is not None:
                    starts[rk] = start
            if profiling:
                ser_in += time.perf_counter() - t0
        if failure is not None:
            w, failed_method, tb = failure
            raise WorkerError(
                f"rank worker {w} failed in {failed_method!r}:\n{tb.rstrip()}"
            )
        return ser_in, transport_in, spills

    def close(self):
        if self._closed:
            return
        super().close()
        # Orderly shutdown: arm a STOP in each living worker's slot and
        # hand it a token.  A parked worker wakes, reads STOP, and exits;
        # a worker still mid-call re-parks when it finishes, consumes the
        # token, and exits then.  Dead workers are skipped; wedged ones
        # fall through to terminate below.
        for w, proc in enumerate(self._procs):
            if proc.is_alive():
                _SLOT.pack_into(self._slots[w].buf, 0, _MODE_STOP, 0, 0, b"")
                self._gos[w].release()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung-worker backstop
                proc.terminate()
                proc.join(timeout=1)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        # Detach every live handle we minted *before* closing the arenas:
        # an un-materialized handle would otherwise hold an exported
        # memoryview (making segment.close() raise BufferError and leaving
        # a silent read-from-unlinked-mapping window) — detached handles
        # fail loud with ArenaClosedError instead.
        for ref in self._minted:
            handle = ref()
            if handle is not None:
                handle._buf = None
        self._minted.clear()
        segments = [
            *self._slots, *self._cmd, *self._rep, *self._retired,
            *(seg for pair in self._out for seg in pair),
        ]
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # a leaked wire handle still views it
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass

    def __del__(self):  # pragma: no cover - GC backstop for leaked teams
        try:
            self.close()
        except Exception:
            pass
