"""The message fabric: moves numpy buffers between ranks and charges time.

The fabric is the single point through which all inter-rank data flows, so
it is also where measurement (bytes, messages, supersteps — exact) happens;
the seconds come from one place, :meth:`~repro.simmpi.topology.Topology.price`.

One rank sends one :class:`Wire` per exchange: a struct-of-arrays send
buffer (e.g. ``vertex`` ids plus tentative ``dist`` values) in destination
order with a count and a displacement per rank — the alltoallv layout the
real codes pack update records into.  One rank receives one
:class:`Message`, gathered from its runs of the senders' wires.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simmpi.clock import SimClock
from repro.simmpi.faults import FaultPlan, FaultSpec, UndeliverableMessageError
from repro.simmpi.machine import MachineSpec
from repro.simmpi.racecheck import ArenaClosedError
from repro.simmpi.sanitizer import FabricSanitizer
from repro.simmpi.topology import Schedule, Topology
from repro.simmpi.trace import CommTrace

__all__ = ["Fabric", "Message", "Wire"]


class _Header:
    """Column names and dtypes: all the fabric may know about a payload.

    The cost model, fault injection, the trace and the sanitizer read
    this header and the counts next to it; only a receiving rank reads
    the columns themselves.
    """

    __slots__ = ()

    names: tuple[str, ...]
    dtypes: tuple[np.dtype, ...]

    @property
    def schema(self) -> tuple[tuple[str, str], ...]:
        return tuple((k, str(dt)) for k, dt in zip(self.names, self.dtypes))

    @property
    def record_bytes(self) -> int:
        return sum(dt.itemsize for dt in self.dtypes)


class Wire(_Header):
    """What one rank sends in one exchange: one flat buffer plus counts.

    ``columns`` holds one contiguous array per name, all of one length;
    destination ``d`` receives the ``counts[d]`` records starting at
    ``displs[d]`` of every column — the alltoallv layout.  Runs may
    overlap: a broadcast is one copy of the records with every receiver's
    run at displacement 0.  ``displs=None`` packs the runs back to back
    in destination order.

    On the process backend the parent holds a wire as a *handle*
    (:meth:`parked`): the columns stay in the out arena the producing
    worker wrote them to, only the header and the counts crossed, and a
    destination worker reads its run straight from the arena.  ``columns``
    on a handle copies the buffer out, for debugging; no steady-state
    consumer calls it.  A handle is valid until its worker's next-but-one
    parked reply (out arenas are double-buffered).  The team stamps it with
    the mint generation (``_team_ref``, ``_worker``, ``_gen``): closing
    the team detaches it, so a late read raises :class:`ArenaClosedError`
    instead of touching an unlinked mapping, and under ``racecheck=True``
    every read verifies the generation.
    """

    __slots__ = (
        "names", "dtypes", "length", "counts", "displs", "_columns",
        "arena_name", "offsets", "_buf", "_team_ref", "_worker", "_gen",
        "__weakref__",
    )

    def __init__(self, names, columns, counts, displs=None) -> None:
        self.names = tuple(names)
        self._columns = tuple(np.ascontiguousarray(c) for c in columns)
        if not self._columns or len(self._columns) != len(self.names):
            raise ValueError("a wire needs at least one column, and a name for each")
        self.dtypes = tuple(c.dtype for c in self._columns)
        self.length = self._columns[0].shape[0]
        if any(c.shape != (self.length,) for c in self._columns):
            shapes = dict(zip(self.names, (c.shape for c in self._columns)))
            raise ValueError(f"columns must be equal-length 1-D arrays, got {shapes}")
        self.counts = np.asarray(counts, dtype=np.int64)
        if displs is None:
            displs = np.cumsum(self.counts) - self.counts
        self.displs = np.asarray(displs, dtype=np.int64)
        if self.counts.ndim != 1 or self.displs.shape != self.counts.shape:
            raise ValueError("counts and displs must be 1-D, one entry per rank")
        if self.counts.size and (
            min(self.counts.min(), self.displs.min()) < 0
            or (self.displs + self.counts).max() > self.length
        ):
            raise ValueError("a destination's run lies outside the send buffer")
        self.arena_name = None

    @classmethod
    def parked(cls, names, refs, length, counts, displs, arena_name, buf) -> "Wire":
        """A handle to a wire whose columns sit in the arena ``buf`` maps.

        ``refs`` holds one ``(byte offset, dtype string)`` per column.
        """
        self = object.__new__(cls)
        self.names = tuple(names)
        self.offsets = tuple(off for off, _ in refs)
        self.dtypes = tuple(np.dtype(dt) for _, dt in refs)
        self.length = length
        self.counts = counts
        self.displs = displs
        self._columns = None
        self.arena_name = arena_name
        self._buf = buf
        self._team_ref = None
        self._worker = self._gen = 0
        return self

    @property
    def nbytes(self) -> int:
        """Bytes this wire puts on the network, every receiver counted."""
        return int(self.counts.sum()) * self.record_bytes

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The send buffer; a handle copies it out of its arena, once.

        That read raises :class:`ArenaClosedError` after the owning team
        closed (always checked), and a stale-generation violation when
        the team runs with ``racecheck=True``.
        """
        if self._columns is None:
            if self._buf is None:
                raise ArenaClosedError(
                    f"wire handle (arena {self.arena_name!r}) used after the "
                    f"owning team closed and released its arenas; read "
                    f".columns before close()"
                )
            team = self._team_ref() if self._team_ref is not None else None
            if team is not None:
                team._check_handle(self)
            self._columns = tuple(
                np.frombuffer(self._buf, dtype=dt, count=self.length, offset=off).copy()
                for dt, off in zip(self.dtypes, self.offsets)
            )
        return self._columns

    @classmethod
    def from_mapping(cls, outbox: Mapping[int, "Message"], num_ranks: int) -> "Wire | None":
        """The door for ``{dst: Message}`` outboxes, converted once, here.

        Callers outside the rank layer (tests, benchmark probes) describe
        a send as one message per destination; the fabric moves only
        wires, so the messages are laid end to end in destination order.
        ``None`` when nothing non-empty is addressed.
        """
        for dst in outbox:
            if not (0 <= dst < num_ranks):
                raise ValueError(f"message addressed to invalid rank {dst}")
        sends = [
            (dst, m) for dst, m in sorted(outbox.items()) if m is not None and len(m)
        ]
        if not sends:
            return None
        body = Message.gather([piece for _, m in sends for piece in m.pieces])
        counts = np.zeros(num_ranks, dtype=np.int64)
        counts[[dst for dst, _ in sends]] = [len(m) for _, m in sends]
        return cls(body.names, body.columns, counts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = f", arena={self.arena_name!r}" if self.arena_name else ""
        return f"Wire(n={self.length}, names={list(self.names)}{where})"


class Message(_Header):
    """What one rank receives: an immutable bundle of named numpy arrays.

    A message is ``pieces`` of wires — ``(wire, start, count)`` runs, in
    delivery order — and its arrays are assembled when a field is first
    read: by the receiving rank, wherever it runs.  Length, byte size and
    schema come from the wire headers and never touch payload.
    ``Message(vertex=..., dist=...)`` wraps the given arrays as one piece.
    """

    __slots__ = ("names", "dtypes", "nbytes", "pieces", "_length", "_fields")

    def __init__(self, **fields: np.ndarray) -> None:
        if not fields:
            raise ValueError("a message needs at least one field")
        wire = Wire(fields, fields.values(), counts=())
        self._set_pieces([(wire, 0, wire.length)])

    @classmethod
    def gather(cls, pieces: list) -> "Message":
        """The message made of the given ``(wire, start, count)`` pieces.

        All wires must share one schema.  Nothing is copied here, and a
        lone piece never is: its fields are views of the wire's columns.
        """
        self = object.__new__(cls)
        self._set_pieces(pieces)
        return self

    def _set_pieces(self, pieces: list) -> None:
        head = pieces[0][0]
        for wire, _, _ in pieces[1:]:
            if wire.names != head.names or wire.dtypes != head.dtypes:
                raise ValueError(
                    f"incompatible message schemas: {head.schema} vs {wire.schema}"
                )
        # An empty piece contributes no bytes and should cost no copy;
        # all-empty keeps the first so the schema survives.
        self.pieces = [p for p in pieces if p[2]] or pieces[:1]
        self.names = head.names
        self.dtypes = head.dtypes
        self._length = sum(count for _, _, count in self.pieces)
        self.nbytes = self._length * head.record_bytes
        self._fields = None

    @property
    def fields(self) -> dict[str, np.ndarray]:
        if self._fields is None:
            runs = [
                [c[start : start + count] for c in wire.columns]
                for wire, start, count in self.pieces
            ]
            if len(runs) == 1:
                columns = runs[0]
            else:
                columns = [np.concatenate(parts) for parts in zip(*runs)]
            self._fields = dict(zip(self.names, columns))
        return self._fields

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(self.fields.values())

    def __getitem__(self, key: str) -> np.ndarray:
        return self.fields[key]

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Message(n={len(self)}, fields={list(self.names)})"


class Fabric:
    """Bulk-synchronous communication between ``num_ranks`` simulated ranks.

    Every collective builds a :class:`~repro.simmpi.topology.Schedule` of
    hops on :attr:`topology` and charges what its one ``price`` returns.
    With ``hierarchical=True`` an exchange routes inter-supernode traffic
    through supernode leader ranks (gather -> leader exchange -> scatter),
    the aggregation a 10^5-rank machine needs to avoid per-step O(P)
    message fan-out.  Payload *delivery* is unchanged — only the modeled
    time and the forwarded-bytes accounting differ.

    ``faults`` (a :class:`~repro.simmpi.faults.FaultPlan`, a
    :class:`~repro.simmpi.faults.FaultSpec`, a CLI spec string, or ``None``)
    subjects every communication phase to the deterministic fault schedule:
    dropped messages are retransmitted under an ack/retry protocol with
    timeout and exponential backoff, delayed messages and stalled ranks
    charge extra simulated time, and degraded links move bytes at reduced
    bandwidth.  Delivery is still guaranteed (or
    :class:`UndeliverableMessageError` after ``max_retries``), so the
    engines' answers are bit-identical with faults on or off; only the
    modeled time, the ``faults`` clock component and the retransmission
    accounting change.  ``faults=None`` costs one attribute check.

    ``sanitize=True`` attaches a
    :class:`~repro.simmpi.sanitizer.FabricSanitizer` that audits every
    collective for schema matching, message conservation, NaN reductions
    and no-progress livelock, raising
    :class:`~repro.simmpi.sanitizer.SanitizerViolation` on the first
    broken invariant and mirroring it as a ``cat="sanitizer"`` tracer
    event.  ``sanitize=False`` costs one attribute check per collective.
    """

    def __init__(
        self,
        machine: MachineSpec,
        num_ranks: int,
        hierarchical: bool = False,
        tracer: Tracer | None = None,
        faults: FaultPlan | FaultSpec | str | None = None,
        sanitize: bool = False,
    ) -> None:
        self.machine = machine
        self.topology = Topology(machine, num_ranks)
        self.num_ranks = num_ranks
        self.hierarchical = bool(hierarchical)
        self.clock = SimClock()
        self.trace = CommTrace(num_ranks)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Simulated timestamps in telemetry come from this fabric's clock.
        self.tracer.use_sim_clock(self.clock)
        self._tiers = self.topology.tier_matrix()
        # Per-rank accumulated work units by component, for load-balance reports.
        self.work_per_rank: dict[str, np.ndarray] = {}
        # Bytes each rank packed into its sends since the last take_packed().
        self._packed = np.zeros(num_ranks, dtype=np.int64)
        # Fault injection: None (the free path) or a deterministic plan.
        self.faults = FaultPlan.coerce(faults, num_ranks)
        self.sanitizer: FabricSanitizer | None = None
        if sanitize:
            self.sanitizer = FabricSanitizer(num_ranks, tracer=self.tracer)
            if self.tracer.enabled:
                self.tracer.event(
                    "enabled",
                    cat="sanitizer",
                    deadlock_threshold=self.sanitizer.deadlock_threshold,
                )

    # -- data movement ----------------------------------------------------

    def exchange(
        self, sends: list[Wire | Mapping[int, Message] | None]
    ) -> list[Message | None]:
        """Personalized all-to-all: one send per rank -> one inbox per rank.

        ``sends[src]`` is the :class:`Wire` rank ``src`` flushed, or
        ``None`` when it sends nothing (a ``{dst: Message}`` mapping is
        converted at the door, :meth:`Wire.from_mapping`).  Returns, for
        every rank, the records addressed to it (sources in rank order)
        as one :class:`Message`, or ``None`` when it received nothing.
        Charges one superstep of communication time:
        ``max over ranks of max(send time, recv time) + barrier``.

        Everything here reads headers and counts; payload is first
        touched by the rank that reads a field of its inbox.

        When tracing, the whole collective runs inside a ``fabric_exchange``
        span: its *wall* duration is the driver-side cost of moving payloads
        between ranks, which the profiler attributes to the transport
        bucket (timing flows through the tracer, never ad-hoc clocks).
        """
        with self.tracer.span("fabric_exchange", cat="fabric", kind="alltoallv"):
            return self._exchange_body(sends)

    def _exchange_body(self, sends: list) -> list[Message | None]:
        if len(sends) != self.num_ranks:
            raise ValueError(f"need {self.num_ranks} outboxes, got {len(sends)}")
        p = self.num_ranks
        counts = np.zeros((p, p), dtype=np.int64)
        displs = np.zeros((p, p), dtype=np.int64)
        record_bytes = np.zeros((p, 1), dtype=np.int64)
        wires: list[Wire | None] = []
        for src, wire in enumerate(sends):
            if isinstance(wire, Mapping):
                wire = Wire.from_mapping(wire, p)
            wires.append(wire)
            if wire is None:
                continue
            if wire.counts.shape != (p,):
                raise ValueError(
                    f"rank {src} sent counts for {wire.counts.size} ranks, not {p}"
                )
            counts[src] = wire.counts
            displs[src] = wire.displs
            record_bytes[src] = wire.record_bytes
        bytes_matrix = counts * record_bytes
        self._packed += bytes_matrix.sum(axis=1)
        # A record a rank addresses to itself is packed and delivered, but
        # it crosses no link: it is not traffic.
        np.fill_diagonal(bytes_matrix, 0)
        slow = None if self.faults is None else self.faults.link_beta_factor
        fault_tags = self._record(
            "alltoallv",
            bytes_matrix,
            int(np.count_nonzero(bytes_matrix)),
            self.topology.exchange(bytes_matrix, self.hierarchical, slow),
            # Retransmissions go direct, over the same (degraded) links.
            retry=lambda m: self.topology.exchange(m, slow=slow),
        )
        # Destination-major, sources ascending: the delivery order.
        inbound: list[list] = [[] for _ in range(p)]
        dsts, srcs = np.nonzero(counts.T)
        for dst, src, start, count in zip(
            dsts.tolist(), srcs.tolist(),
            displs[srcs, dsts].tolist(), counts[srcs, dsts].tolist(),
        ):
            inbound[dst].append((wires[src], start, count))
        delivered = [Message.gather(pieces) if pieces else None for pieces in inbound]
        if self.sanitizer is not None:
            self.sanitizer.check_exchange(
                self.trace.supersteps - 1, wires, delivered, fault_tags
            )
        return delivered

    def _record(
        self, kind: str, bytes_matrix: np.ndarray, messages: int, schedule: Schedule, retry
    ) -> dict:
        """The one record path of :meth:`exchange` and :meth:`allgather`.

        Prices ``schedule``, accounts ``bytes_matrix`` in :class:`CommTrace`,
        replays the fault schedule (``retry`` maps retransmitted bytes to
        the schedule that re-moves them) and emits the superstep's
        ``exchange`` event.  Returns the event's fault tags.
        """
        comm, sync = self.topology.price(schedule)
        self.clock.charge("comm", comm)
        self.clock.charge("sync", sync)
        self.trace.record_exchange(bytes_matrix, self._tiers, messages)
        self.trace.bytes_forwarded += schedule.forwarded
        self.trace.barriers += 1
        step = self.trace.supersteps - 1
        fault_tags: dict[str, int] = {}
        if self.faults is not None:
            fault_tags = self._inject_faults(step, bytes_matrix, retry)
        if self.tracer.enabled:
            # One telemetry row per CommTrace superstep: over a run, its
            # bytes add up to CommTrace.total_bytes.
            self.tracer.event(
                "exchange", cat="fabric", kind=kind, step=step,
                bytes=int(bytes_matrix.sum()), messages=messages, **fault_tags,
            )
        return fault_tags

    # -- fault injection ----------------------------------------------------

    def _inject_faults(self, step: int, bytes_matrix: np.ndarray, retry) -> dict:
        """Apply the fault schedule to the superstep recorded last.

        Models the ack/retry protocol: delayed messages and stalled ranks
        extend the phase (charged to the ``faults`` clock component);
        dropped messages wait out an ack timeout with exponential backoff
        and are retransmitted (the ``retry`` schedule's wire time charged
        to ``comm``, bytes recorded as retransmissions).  Returns tags
        for the superstep's telemetry event.
        """
        plan = self.faults
        spec = plan.spec
        src, dst = np.nonzero(bytes_matrix)
        fault_wait = 0.0
        # Delay/jitter: the phase completes when the slowest delayed
        # message lands.
        if src.size and (spec.delay > 0.0 or spec.jitter > 0.0):
            fault_wait += float(plan.delay_of(step, src, dst).max())
        # Transient rank stalls: BSP semantics, the slowest rank bounds the
        # step, so the worst stall is the global cost.
        stall = plan.stall_times(step)
        num_stalled = int(np.count_nonzero(stall))
        if num_stalled:
            worst_stall = float(stall.max())
            fault_wait += worst_stall
            self.trace.stalls += num_stalled
            if self.tracer.enabled:
                self.tracer.event(
                    "fault",
                    cat="fabric",
                    kind="stall",
                    step=step,
                    ranks=num_stalled,
                    seconds=worst_stall,
                )
        # Drops -> ack/retry rounds with timeout + exponential backoff.
        retry_bytes = 0
        drop_events = 0
        rounds = 0
        if src.size and spec.drop > 0.0:
            dropped = plan.drop_mask(step, src, dst, 0)
            timeout = self.topology.ack_timeout(spec.timeout)
            attempt = 0
            while dropped.any():
                attempt += 1
                if attempt > spec.max_retries:
                    pairs = list(zip(src.tolist(), dst.tolist()))[:4]
                    raise UndeliverableMessageError(
                        f"messages on links {pairs} still dropped after "
                        f"{spec.max_retries} retries (drop={spec.drop}, "
                        f"seed={spec.seed}, superstep={step})"
                    )
                src, dst = src[dropped], dst[dropped]
                drop_events += int(src.size)
                rounds += 1
                retry_matrix = np.zeros_like(bytes_matrix)
                retry_matrix[src, dst] = bytes_matrix[src, dst]
                round_bytes = int(retry_matrix.sum())
                retry_bytes += round_bytes
                # Senders detect the loss after the (backed-off) ack
                # timeout, then resend over the wire.
                fault_wait += timeout * spec.backoff ** (attempt - 1)
                self.clock.charge("comm", self.topology.price(retry(retry_matrix))[0])
                if self.tracer.enabled:
                    self.tracer.event(
                        "fault",
                        cat="fabric",
                        kind="retry",
                        step=step,
                        attempt=attempt,
                        messages=int(src.size),
                        bytes=round_bytes,
                    )
                dropped = plan.drop_mask(step, src, dst, attempt)
        if fault_wait > 0.0:
            self.clock.charge("faults", fault_wait)
        if drop_events:
            self.trace.record_retransmissions(retry_bytes, drop_events, rounds)
        return {"retry_bytes": retry_bytes, "drops": drop_events, "retries": rounds}

    # -- collectives -------------------------------------------------------

    def allreduce(self, values: np.ndarray, op: str = "sum") -> float:
        """Reduce one scalar contribution per rank; all ranks get the result.

        Charged as a reduce+broadcast latency tree (payloads are a few
        bytes, so only alpha matters).  When tracing, the collective runs
        inside a ``fabric_allreduce`` span whose wall duration the profiler
        attributes to barrier wait (it is a synchronization point).
        """
        with self.tracer.span("fabric_allreduce", cat="fabric", op=op):
            return self._allreduce_body(values, op)

    def _allreduce_body(self, values: np.ndarray, op: str) -> float:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.num_ranks,):
            raise ValueError(f"expected one value per rank, got shape {values.shape}")
        ops = {"sum": np.sum, "min": np.min, "max": np.max}
        if op not in ops:
            raise ValueError(f"unsupported allreduce op {op!r}")
        if self.sanitizer is not None:
            self.sanitizer.check_allreduce(values, op)
        self.clock.charge("sync", self.topology.price(Schedule(syncs=2))[1])
        self.trace.allreduces += 1
        if self.tracer.enabled:
            self.tracer.event("allreduce", cat="fabric", op=op)
        return float(ops[op](values))

    def allreduce_any(self, flags: np.ndarray) -> bool:
        """Logical-OR allreduce (termination detection)."""
        return self.allreduce(np.asarray(flags, dtype=np.float64), op="max") > 0.0

    def allgather(self, contributions: list[Message | None]) -> list[Message | None]:
        """Every rank contributes a message; all ranks receive them all.

        Returns, for each rank, the concatenation of every non-empty
        contribution in rank order (``None`` when nothing was contributed).
        Modeled as recursive doubling: log2(P) rounds, each moving the
        accumulated payload, so the per-rank cost is
        ``alpha * log2(P) + total_bytes * beta`` — far cheaper than the
        P*(P-1) point-to-point emulation and the reason real codes use the
        collective for frontier bitmaps.

        When tracing, the collective runs inside a ``fabric_allgather``
        span; the profiler attributes its wall duration to transport.
        """
        with self.tracer.span("fabric_allgather", cat="fabric"):
            return self._allgather_body(contributions)

    def _allgather_body(
        self, contributions: list[Message | None]
    ) -> list[Message | None]:
        if len(contributions) != self.num_ranks:
            raise ValueError(f"need {self.num_ranks} contributions, got {len(contributions)}")
        nonempty = [m for m in contributions if m is not None and len(m) > 0]
        p = self.num_ranks
        sizes = np.array(
            [0 if m is None else m.nbytes for m in contributions], dtype=np.int64
        )
        self._packed += sizes
        if nonempty and p > 1:
            # Traffic accounting: each rank ends up holding every byte once.
            bytes_matrix = np.where(np.eye(p, dtype=bool), 0, sizes[:, None])
            self._record(
                "allgather",
                bytes_matrix,
                len(nonempty),
                self.topology.allgather(int(sizes.sum())),
                # A lost round of the recursive-doubling tree re-moves the
                # accumulated payload after the backed-off timeout.
                retry=lambda m: self.topology.allgather(int(m.sum())),
            )
        else:
            self.clock.charge("sync", self.topology.price(Schedule(syncs=1))[1])
            self.trace.barriers += 1
        gathered = (
            Message.gather([piece for m in nonempty for piece in m.pieces])
            if nonempty
            else None
        )
        delivered = [gathered for _ in range(self.num_ranks)]
        if self.sanitizer is not None:
            self.sanitizer.check_allgather(
                self.trace.supersteps - 1, contributions, delivered
            )
        return delivered

    # -- compute charging ----------------------------------------------------

    def take_packed(self) -> np.ndarray:
        """Return and reset the bytes each rank packed (rank-local records
        included: packing is memcpy work) since the last call."""
        packed, self._packed = self._packed, np.zeros(self.num_ranks, dtype=np.int64)
        return packed

    _RATE_BY_COMPONENT = {
        "edges": "edge_rate",
        "bucket_ops": "bucket_rate",
        "bytes": "memcpy_rate",
    }

    def charge_compute(self, **work: np.ndarray) -> None:
        """Charge one compute phase given per-rank work counts.

        ``work`` maps a component name (``edges``, ``bucket_ops``,
        ``bytes``) to an array of per-rank operation counts.  The phase
        takes as long as its slowest rank — this is where load imbalance
        becomes simulated time.
        """
        per_rank = np.zeros(self.num_ranks, dtype=np.float64)
        for component, counts in work.items():
            rate_attr = self._RATE_BY_COMPONENT.get(component)
            if rate_attr is None:
                raise ValueError(f"unknown work component {component!r}")
            counts = np.asarray(counts, dtype=np.float64)
            if counts.shape != (self.num_ranks,):
                raise ValueError(f"expected one count per rank for {component!r}")
            if np.any(counts < 0):
                raise ValueError(f"negative work counts for {component!r}")
            per_rank += counts / getattr(self.machine, rate_attr)
            acc = self.work_per_rank.setdefault(
                component, np.zeros(self.num_ranks, dtype=np.int64)
            )
            acc += counts.astype(np.int64)
        self.clock.charge("compute", float(per_rank.max()))

    # -- reporting -----------------------------------------------------------

    def compute_imbalance(self, component: str = "edges") -> float:
        """Max/mean of accumulated per-rank work (1.0 = balanced)."""
        acc = self.work_per_rank.get(component)
        if acc is None or acc.mean() == 0:
            return 1.0
        return float(acc.max() / acc.mean())
