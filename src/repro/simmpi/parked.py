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
  parked on a per-worker ``multiprocessing`` go-semaphore.  Commands
  travel through a fixed per-worker shared-memory **control slot** (a
  mode word plus the pickled metadata tuple); array payloads ride the
  existing cmd/rep arenas.  Oversized metadata spills to the cmd arena
  tail — never the pipe, because a parked worker is not reading and a
  large pipe write would deadlock the dispatcher.  Semaphores, not a
  shared barrier, park the processes deliberately: releasing one never
  blocks, so a SIGKILLed worker cannot wedge the dispatcher (a
  ``multiprocessing.Barrier`` waiter that dies leaves ``notify_all``
  waiting forever for its wake acknowledgement); death and stalls are
  detected on the reply pipe instead.

The process team also implements the **zero-copy lazy transport** for
``call(..., lazy=True)`` phases (outbox flushes): the worker writes each
column of its :class:`~repro.simmpi.fabric.Wire` into a worker-owned *out
arena* once, and the driver receives a handle — header, counts and
column offsets — instead of the columns.  The fabric cuts the handles
into per-destination pieces, and the destination worker attaches the
owning worker's arena by name and gathers its pieces straight out of it
— one copy end to end, zero pickling.

Safety invariants of the lazy transport:

* **Decode-then-execute**: a worker materializes (copies) every lazy
  argument before running the rank method, so nothing it later writes
  can alias its inputs.
* **Double-buffered out arenas**: each worker alternates between two out
  arenas, so the reply of lazy call *N+1* never overwrites payload from
  call *N* that another (slower) worker is still reading.  Handles are
  therefore valid until the owner's next-but-one lazy reply — the
  engines' flush → exchange → apply pattern consumes them within one.
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
from typing import Sequence

from repro.obs.tracer import Tracer
from repro.simmpi.executor import (
    _ALIGN,
    _MIN_ARENA,
    RankTeam,
    SerialTeam,
    WorkerError,
    _decode,
    _encode,
    _PayloadWriter,
)
from repro.simmpi.fabric import Message, Wire
from repro.simmpi.racecheck import RaceChecker, SharedArrayTracker

__all__ = ["ParkedProcessTeam", "ParkedThreadTeam"]

# Control-slot protocol (process backend).  Each worker owns one small
# shared-memory slot; the parent writes a header + payload, then releases
# that worker's go-semaphore.
_MODE_CALL = 1  # pickled command inline in the slot after the header
_MODE_CALL_ARENA = 2  # command in the cmd arena (offset/length in header)
_MODE_STOP = 3  # exit the worker loop

_SLOT_HEADER = struct.Struct("<qqq")  # (mode, a, b)
_SLOT_SIZE = 1 << 16

#: Sentinel in the command tuple's ``cmd_name`` field for arena-mode
#: commands: "the arena you read this command from".
_CMD_NAME_FROM_SLOT = "@slot"

#: How long the dispatcher waits for a dispatched worker's reply before
#: declaring it wedged and tearing the team down.  A dead worker is
#: detected immediately (its pipe end closes); the timeout only fires
#: for a live-but-stuck worker.  Tests shrink this.
_WORKER_TIMEOUT = 60.0


class ParkedThreadTeam(RankTeam):
    """Parallel phases run on resident rank threads parked on a barrier.

    Rank ``i`` belongs to worker thread ``i % crew`` (the crew is capped
    at the rank count).  A ``parallel=True`` call publishes the command,
    releases the ``go`` barrier, and joins the ``done`` barrier; workers
    never die between calls, so there is no submission latency and no
    skew — everyone starts on the same barrier edge.  Control calls and
    single-rank teams run inline (the rank objects live in-process).

    Exceptions raised by rank methods are captured per rank and re-raised
    in the driver, lowest rank first, with their original type; the team
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
        super().__init__(len(ranks), tracer)
        self.ranks = list(ranks)
        self.num_workers = max(1, int(num_workers))
        self._closed = False
        self._tracker = None
        if racecheck:
            # Lockset-lite race detection: arrays shared by identity across
            # rank objects are the read-only inputs of every parallel phase;
            # the tracker checksums them around each phase.
            self.racecheck = RaceChecker(self.backend, self.tracer)
            self._tracker = SharedArrayTracker(self.racecheck, ranks)
        crew = min(self.num_workers, max(1, len(self.ranks)))
        self._assign = [
            [i for i in range(len(self.ranks)) if i % crew == t] for t in range(crew)
        ]
        self._go = threading.Barrier(crew + 1)
        self._done = threading.Barrier(crew + 1)
        self._cmd: tuple | None = None
        self._results: list = []
        self._errors: list = []
        self._starts: list = []
        self._durations: list = []
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
        while True:
            try:
                self._go.wait()
            except threading.BrokenBarrierError:
                return
            method, per_rank, common = self._cmd
            for i in self._assign[tid]:
                args = (tuple(per_rank[i]) + common) if per_rank is not None else common
                t0 = time.perf_counter()
                try:
                    self._results[i] = getattr(self.ranks[i], method)(*args)
                except BaseException as exc:  # re-raised by the driver
                    self._errors[i] = exc
                self._starts[i] = t0
                self._durations[i] = time.perf_counter() - t0
            try:
                self._done.wait()
            except threading.BrokenBarrierError:
                return

    def call(self, method, per_rank=None, common=(), parallel=False, lazy=False):
        if self._closed:
            raise RuntimeError("team is closed")
        if not parallel or self.num_ranks == 1:
            return SerialTeam.call(self, method, per_rank, common, parallel)
        profiling = self.tracer.enabled
        t_begin = time.perf_counter() if profiling else 0.0
        n = self.num_ranks
        self._results = [None] * n
        self._errors = [None] * n
        self._starts = [0.0] * n
        self._durations = [0.0] * n
        self._cmd = (method, per_rank, tuple(common))
        tracker = self._tracker
        if tracker is not None:
            tracker.before_parallel()
        self._go.wait()
        t_dispatched = time.perf_counter() if profiling else t_begin
        self._done.wait()
        for exc in self._errors:
            if exc is not None:
                raise exc
        if tracker is not None:
            tracker.after_parallel(method)
        starts, durations = self._starts, self._durations
        self._account(method, durations, starts)
        if profiling:
            self._profile_call(
                method, True, t_begin, t_dispatched, time.perf_counter(),
                starts, durations,
            )
        return self._results

    def close(self):
        if self._closed:
            return
        self._closed = True
        # Breaking the barriers releases parked workers (they exit on
        # BrokenBarrierError) and any worker mid-phase exits at the next
        # barrier it reaches.  Idempotent by the _closed latch.
        self._go.abort()
        self._done.abort()
        for thread in self._threads:
            thread.join(timeout=5)


# -- process backend ---------------------------------------------------------


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


def _parked_worker_main(conn, slot, go, ranks: dict, profiled: bool) -> None:
    """Process-backend worker loop: park, decode, dispatch, encode, reply.

    Runs in a forked child that inherited ``ranks`` (its subset of the
    team's rank objects) by copy-on-write.  The parent's fabric, tracer
    and remaining ranks also exist in this address space but are never
    touched — all interaction is the control slot, the go-semaphore, the
    reply pipe, and the shared-memory arenas named in each command.

    Arena mappings are cached by *name* (a worker may read several other
    workers' out arenas in one lazy call); names churn only when the
    parent grows an arena, so the cache stays small.

    ``profiled`` is latched at fork time from the team's tracer: when a
    real tracer is attached, each reply carries the worker's measured
    decode/encode seconds and per-task start timestamps (``perf_counter``
    is CLOCK_MONOTONIC on Linux, so worker and driver timestamps share a
    clock); when tracing is off only the per-task durations are taken.
    """
    attached: dict[str, tuple] = {}  # name -> (buffer, close)

    def attach(name: str):
        cached = attached.get(name)
        if cached is None:
            cached = attached[name] = _attach_raw(name)
        return cached[0]

    try:
        while True:
            go.acquire()
            mode, a, b = _SLOT_HEADER.unpack_from(slot.buf, 0)
            if mode == _MODE_STOP:
                break
            if mode == _MODE_CALL:
                cmd = pickle.loads(bytes(slot.buf[_SLOT_HEADER.size:_SLOT_HEADER.size + a]))
                slot_arena = None
            else:  # _MODE_CALL_ARENA
                (nlen,) = struct.unpack_from("<q", slot.buf, _SLOT_HEADER.size)
                name_off = _SLOT_HEADER.size + 8
                slot_arena = bytes(slot.buf[name_off:name_off + nlen]).decode("ascii")
                cmd = pickle.loads(bytes(attach(slot_arena)[a:a + b]))
            (method, common_meta, per_metas,
             cmd_name, rep_name, rep_size, out_name, out_size) = cmd
            if cmd_name == _CMD_NAME_FROM_SLOT:
                cmd_name = slot_arena
            cmd_buf = attach(cmd_name) if cmd_name else b""
            dec_s = enc_s = 0.0
            try:
                td = time.perf_counter() if profiled else 0.0
                common = tuple(_decode(m, cmd_buf, attach) for m in common_meta)
                if profiled:
                    dec_s += time.perf_counter() - td
                writer = _PayloadWriter()
                metas = []
                for rk in sorted(ranks):
                    if per_metas is not None:
                        td = time.perf_counter() if profiled else 0.0
                        # Decode-then-execute: every argument is an owned
                        # copy before the rank method runs, so the encode
                        # below can never overwrite bytes still in use.
                        args = tuple(_decode(m, cmd_buf, attach) for m in per_metas[rk])
                        if profiled:
                            dec_s += time.perf_counter() - td
                        args += common
                    else:
                        args = common
                    t0 = time.perf_counter()
                    result = getattr(ranks[rk], method)(*args)
                    duration = time.perf_counter() - t0
                    metas.append((rk, _encode(result, writer), duration, t0))
            except BaseException:
                conn.send(("err", method, traceback.format_exc()))
                continue
            te = time.perf_counter() if profiled else 0.0
            payload = None
            if out_name is not None and writer.total <= out_size:
                # Lazy reply: park the payload in this worker's out arena;
                # the parent hands out wire handles, nothing moves.
                writer.write_into(attach(out_name))
                where = "out"
            elif out_name is None and writer.total <= rep_size:
                writer.write_into(attach(rep_name))
                where = "rep"
            else:
                # Reply outgrew its arena: spill this one over the pipe and
                # report the size so the parent grows the arena for next time.
                payload = bytearray(writer.total)
                writer.write_into(payload)
                where = "pipe"
            if profiled:
                enc_s = time.perf_counter() - te
            conn.send(("res", metas, where, writer.total, dec_s, enc_s))
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
    the dispatcher arms every involved slot first, then releases the
    semaphores back to back, so wakeups are skew-free and — unlike a
    shared barrier — a dead worker can never wedge the dispatcher;
    workers persist for the team's whole run — one fork per run,
    thousands of supersteps served.

    The wires a ``call(..., lazy=True)`` returns stay in the producing
    worker's double-buffered out arenas; the parent holds handles
    (zero-copy transport).
    """

    backend = "process"

    def __init__(
        self,
        ranks: Sequence,
        num_workers: int,
        tracer: Tracer | None = None,
        racecheck: bool = False,
    ) -> None:
        super().__init__(len(ranks), tracer)
        if racecheck:
            # Generation checks on lazy handles; the thread backend's
            # shared-array tracker has no process-side analogue (writes
            # happen in forked address spaces the parent cannot see).
            self.racecheck = RaceChecker(self.backend, self.tracer)
        #: Weakrefs to every wire handle this team minted; ``close()``
        #: detaches the live ones from their arenas (always on — this is
        #: the use-after-close guard, independent of ``racecheck``).
        self._minted: list[weakref.ref] = []
        ctx = multiprocessing.get_context("fork")
        workers = max(1, min(int(num_workers), len(ranks)))
        self.num_workers = workers
        self._rank_ids = [
            [i for i in range(len(ranks)) if i % workers == w] for w in range(workers)
        ]
        self._closed = False
        self._gos = [ctx.Semaphore(0) for _ in range(workers)]
        self._conns = []
        self._procs = []
        self._slots: list[shared_memory.SharedMemory] = []
        self._cmd: list[shared_memory.SharedMemory | None] = []
        self._rep: list[shared_memory.SharedMemory] = []
        # Double-buffered lazy out arenas: index = (#lazy calls) % 2, so
        # the reply of lazy call N+1 never overwrites payload from call N
        # that a slower consumer is still reading.
        self._out: list[list[shared_memory.SharedMemory]] = []
        self._out_flip = [0] * workers
        #: Out arenas retired by growth; their names may still be held by
        #: in-flight wire handles, so they are unlinked only at close.
        self._retired: list[shared_memory.SharedMemory] = []
        for w in range(workers):
            slot = shared_memory.SharedMemory(create=True, size=_SLOT_SIZE)
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_parked_worker_main,
                args=(
                    child_conn,
                    slot,
                    self._gos[w],
                    {i: ranks[i] for i in self._rank_ids[w]},
                    self.tracer.enabled,
                ),
                daemon=True,
                name=f"repro-rank-worker-{w}",
            )
            proc.start()
            child_conn.close()
            self._slots.append(slot)
            self._conns.append(parent_conn)
            self._procs.append(proc)
            self._cmd.append(None)
            self._rep.append(shared_memory.SharedMemory(create=True, size=_MIN_ARENA))
            self._out.append([
                shared_memory.SharedMemory(create=True, size=_MIN_ARENA),
                shared_memory.SharedMemory(create=True, size=_MIN_ARENA),
            ])

    # -- lazy-handle lifetime & generation guards ---------------------------

    def _mint_handle(self, worker: int, out, *header) -> Wire:
        """A handle to a wire ``worker`` just parked in its out arena ``out``.

        Stamped with the mint generation — the worker's out-arena flip
        counter *after* the minting dispatch; the handle's double-buffered
        arena half is re-armed for writing by the second lazy dispatch
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
                f"lazy handle into worker {handle._worker}'s out arena "
                f"({handle.arena_name!r}, minted at generation "
                f"{handle._gen}) used at generation {current}: the "
                f"double-buffered arena was recycled by later lazy calls "
                f"and its payload bytes overwritten",
                worker=handle._worker,
                minted_gen=handle._gen,
                current_gen=current,
            )

    def _check_lazy_args(self, per_rank, common) -> None:
        """Validate every team-minted handle about to ship into a worker.

        Workers copy a shipped handle's bytes straight out of the named
        arena (even when the driver already read ``columns``), so
        staleness must be caught here, before dispatch.  A handle is
        checked once per call, however many ranks receive a run of it.
        """
        stack = list(common)
        if per_rank is not None:
            stack.extend(a for args in per_rank for a in args)
        seen: set[int] = set()
        while stack:
            obj = stack.pop()
            if isinstance(obj, Wire):
                if obj.arena_name is not None and id(obj) not in seen:
                    seen.add(id(obj))
                    ref = obj._team_ref
                    if ref is not None and ref() is self:
                        self._check_handle(obj)
            elif isinstance(obj, Message):
                stack.extend(wire for wire, _, _ in obj.pieces)
            elif isinstance(obj, (tuple, list)):
                stack.extend(obj)
            elif isinstance(obj, dict):
                stack.extend(obj.values())

    @staticmethod
    def _grown(segment: shared_memory.SharedMemory | None, nbytes: int):
        """A segment of at least ``nbytes``; reuses or replaces ``segment``.

        POSIX keeps an unlinked segment alive while mapped, so the old one
        can be unlinked immediately — cmd/rep names are only ever read
        within the call that sent them.  (Out arenas must NOT come through
        here; see :meth:`_regrown_out`.)
        """
        if segment is not None and segment.size >= nbytes:
            return segment
        if segment is not None:
            segment.close()
            segment.unlink()
        size = max(_MIN_ARENA, 1 << (nbytes - 1).bit_length())
        return shared_memory.SharedMemory(create=True, size=size)

    def _regrown_out(self, w: int, idx: int, nbytes: int) -> None:
        """Replace out arena ``(w, idx)`` with one of >= ``nbytes``.

        The old segment goes to the retirement graveyard instead of being
        unlinked: handles from the previous lazy call may still name it,
        and a consumer worker that has not yet mapped that name must still
        be able to open it.  Graveyard segments are unlinked at close; the
        power-of-two growth schedule bounds their total size by roughly
        the final arena size.
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

    def _dispatch(self, method, per_rank, common, profiling=False, lazy=False):
        """Arm every worker's control slot, then release their semaphores.

        Returns ``(involved, lazy_idx, ser_out)``: the workers taking part
        in the call (all of them), the out-arena index armed per worker
        when ``lazy``, and the measured parent-side encode + arena-write
        seconds (0.0 unless ``profiling``).
        """
        involved = tuple(range(self.num_workers))
        ser_out = 0.0
        lazy_idx: dict[int, int] = {}
        for w in involved:
            t0 = time.perf_counter() if profiling else 0.0
            writer = _PayloadWriter()
            common_meta = tuple(_encode(a, writer) for a in common)
            per_metas = None
            if per_rank is not None:
                per_metas = {
                    i: tuple(_encode(a, writer) for a in per_rank[i])
                    for i in self._rank_ids[w]
                }
            out_name = out_size = None
            if lazy:
                idx = self._out_flip[w] & 1
                self._out_flip[w] += 1
                lazy_idx[w] = idx
                out = self._out[w][idx]
                out_name, out_size = out.name, out.size
            cmd_name = None
            if writer.total:
                self._cmd[w] = self._grown(self._cmd[w], writer.total)
                cmd_name = self._cmd[w].name
            cmd = (method, common_meta, per_metas,
                   cmd_name, self._rep[w].name, self._rep[w].size,
                   out_name, out_size)
            blob = pickle.dumps(cmd, protocol=pickle.HIGHEST_PROTOCOL)
            slot_buf = self._slots[w].buf
            header = _SLOT_HEADER.size
            if header + len(blob) <= _SLOT_SIZE:
                if writer.total:
                    writer.write_into(self._cmd[w].buf)
                slot_buf[header:header + len(blob)] = blob
                _SLOT_HEADER.pack_into(slot_buf, 0, _MODE_CALL, len(blob), 0)
            else:
                # Metadata overflow: append the command to the cmd arena
                # tail (the worker is parked, not reading its pipe — a
                # large pipe write here would deadlock the dispatcher).
                meta_off = -(-writer.total // _ALIGN) * _ALIGN
                cmd_with_name = cmd[:3] + (_CMD_NAME_FROM_SLOT,) + cmd[4:]
                blob = pickle.dumps(cmd_with_name, protocol=pickle.HIGHEST_PROTOCOL)
                self._cmd[w] = self._grown(self._cmd[w], meta_off + len(blob))
                if writer.total:
                    writer.write_into(self._cmd[w].buf)
                self._cmd[w].buf[meta_off:meta_off + len(blob)] = blob
                name = self._cmd[w].name.encode("ascii")
                struct.pack_into("<q", slot_buf, header, len(name))
                slot_buf[header + 8:header + 8 + len(name)] = name
                _SLOT_HEADER.pack_into(
                    slot_buf, 0, _MODE_CALL_ARENA, meta_off, len(blob)
                )
            if profiling:
                ser_out += time.perf_counter() - t0
        # All slots are armed before any worker wakes, so the back-to-back
        # releases are one skew-free dispatch edge.  Release never blocks;
        # a dead worker simply leaves its token unconsumed and is caught
        # on the reply pipe in _gather.
        for w in involved:
            self._gos[w].release()
        return involved, lazy_idx, ser_out

    def _gather(self, involved, lazy_idx, results, durations, starts=None,
                profiling=False, method="?"):
        """Collect one reply per involved worker.

        Returns ``(ser_in, transport_in, spills)``: parent-side reply
        materialization seconds when ``profiling``, the worker-side
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
        for w in involved:
            try:
                # A dead worker's pipe end closes, so poll() returns
                # immediately and recv() raises EOFError; the timeout only
                # fires for a live-but-wedged worker.
                if not self._conns[w].poll(_WORKER_TIMEOUT):
                    self._fail(
                        f"rank worker {w} stalled in {method!r} "
                        f"(no reply in {_WORKER_TIMEOUT:.0f}s)"
                    )
                msg = self._conns[w].recv()
            except (EOFError, OSError):
                self._fail(f"rank worker {w} died mid-call in {method!r}")
            if msg[0] == "err":
                if failure is None:
                    failure = (w, msg[1], msg[2])
                continue
            _, metas, where, total, worker_dec, worker_enc = msg
            transport_in += worker_dec + worker_enc
            park = None
            if where == "rep":
                buf = self._rep[w].buf
            elif where == "out":
                out = self._out[w][lazy_idx[w]]
                buf = out.buf
                park = functools.partial(self._mint_handle, w, out)
            else:  # pipe spill
                spills += 1
                buf = self._conns[w].recv_bytes()
                if w in lazy_idx:
                    self._regrown_out(w, lazy_idx[w], total)
                else:
                    self._rep[w] = self._grown(self._rep[w], total)
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

    def call(self, method, per_rank=None, common=(), parallel=False, lazy=False):
        if self._closed:
            raise RuntimeError("team is closed")
        profiling = self.tracer.enabled
        t_begin = time.perf_counter() if profiling else 0.0
        if self.racecheck is not None:
            self._check_lazy_args(per_rank, common)
        if per_rank is not None:
            per_rank = {i: tuple(args) for i, args in enumerate(per_rank)}
        involved, lazy_idx, ser_out = self._dispatch(
            method, per_rank, tuple(common),
            profiling=profiling, lazy=lazy,
        )
        t_dispatched = time.perf_counter() if profiling else t_begin
        results: list = [None] * self.num_ranks
        durations = [0.0] * self.num_ranks
        starts = [0.0] * self.num_ranks if profiling else None
        ser_in, transport_in, spills = self._gather(
            involved, lazy_idx, results, durations, starts, profiling, method
        )
        if parallel:
            self._account(method, durations, starts)
        if profiling:
            self._profile_call(
                method, parallel, t_begin, t_dispatched, time.perf_counter(),
                starts, durations, ser_out, ser_in, spills, transport_in,
            )
        return results

    def close(self):
        if self._closed:
            return
        self._closed = True
        # Orderly shutdown: arm a STOP in each living worker's slot and
        # hand it a token.  A parked worker wakes, reads STOP, and exits;
        # a worker still mid-call re-parks when it finishes, consumes the
        # token, and exits then.  Dead workers are skipped; wedged ones
        # fall through to terminate below.
        for w, proc in enumerate(self._procs):
            if proc.is_alive():
                _SLOT_HEADER.pack_into(self._slots[w].buf, 0, _MODE_STOP, 0, 0)
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
            if segment is None:
                continue
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
