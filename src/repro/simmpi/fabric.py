"""The message fabric: moves numpy buffers between ranks and charges time.

The fabric is the single point through which all inter-rank data flows, so
it is also where measurement (bytes, messages, supersteps — exact) and
modeling (seconds — alpha-beta with topology tiers) happen.

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
from repro.simmpi.topology import Topology
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
    lazy reply (out arenas are double-buffered).  The team stamps it with
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

    With ``hierarchical=True`` the cost model routes inter-supernode
    traffic through supernode leader ranks (gather -> leader exchange ->
    scatter), the aggregation a 10^5-rank machine needs to avoid per-step
    O(P) message fan-out.  Payload *delivery* is unchanged — only the
    modeled time and the forwarded-bytes accounting differ.

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
        self._alpha = self.topology.alpha_matrix()
        self._beta = self.topology.beta_matrix()
        self._tiers = self.topology.tier_matrix()
        # Per-rank accumulated work units by component, for load-balance reports.
        self.work_per_rank: dict[str, np.ndarray] = {}
        # Fault injection: None (the free path) or a deterministic plan.
        self.faults = FaultPlan.coerce(faults, num_ranks)
        if self.faults is not None:
            spec = self.faults.spec
            self._fault_timeout = (
                spec.timeout
                if spec.timeout is not None
                else 4.0 * max(machine.alpha_inter, machine.alpha_intra)
            )
            if self.faults.link_beta_factor is not None:
                self._beta_faulty = self._beta * self.faults.link_beta_factor
            else:
                self._beta_faulty = self._beta
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
        msg_count = int(np.count_nonzero(counts))
        if msg_count == 0:
            step = 0.0
        elif self.hierarchical and self.topology.num_supernodes() > 1:
            step = self._hierarchical_step_cost(bytes_matrix)
        elif self.faults is not None:
            step = self._direct_step_cost(bytes_matrix, beta=self._beta_faulty)
        else:
            step = self._direct_step_cost(bytes_matrix)
        self.clock.charge("comm", step)
        self.clock.charge("sync", self.topology.barrier_cost())
        self.trace.record_exchange(bytes_matrix, self._tiers, msg_count)
        self.trace.barriers += 1
        fault_tags: dict[str, int] = {}
        if self.faults is not None:
            fault_tags = self._inject_faults(
                self.trace.supersteps - 1,
                bytes_matrix,
                retry_cost=lambda m: self._direct_step_cost(m, beta=self._beta_faulty),
            )
        if self.tracer.enabled:
            # One telemetry row per CommTrace superstep, byte-exact: the
            # timeline report's totals must equal CommTrace.total_bytes.
            self.tracer.event(
                "exchange",
                cat="fabric",
                kind="alltoallv",
                step=self.trace.supersteps - 1,
                bytes=int(bytes_matrix.sum()),
                messages=msg_count,
                **fault_tags,
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

    def _direct_step_cost(
        self, bytes_matrix: np.ndarray, beta: np.ndarray | None = None
    ) -> float:
        """Each message costs alpha + bytes*beta on both sides; a rank's
        step cost is the max of its send and receive pipelines.  ``beta``
        overrides the healthy inverse-bandwidth matrix (degraded links)."""
        if beta is None:
            beta = self._beta
        has_msg = bytes_matrix > 0
        per_pair = np.where(has_msg, self._alpha + bytes_matrix * beta, 0.0)
        send_time = per_pair.sum(axis=1)
        recv_time = per_pair.sum(axis=0)
        return float(np.maximum(send_time, recv_time).max())

    # -- fault injection ----------------------------------------------------

    def _inject_faults(self, step: int, bytes_matrix: np.ndarray, retry_cost) -> dict:
        """Apply the fault schedule to the superstep recorded last.

        Models the ack/retry protocol: delayed messages and stalled ranks
        extend the phase (charged to the ``faults`` clock component);
        dropped messages wait out an ack timeout with exponential backoff
        and are retransmitted (wire time charged to ``comm`` via
        ``retry_cost``, bytes recorded as retransmissions).  Returns tags
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
                fault_wait += self._fault_timeout * spec.backoff ** (attempt - 1)
                self.clock.charge("comm", retry_cost(retry_matrix))
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

    def _hierarchical_step_cost(self, bytes_matrix: np.ndarray) -> float:
        """Three-stage leader routing for inter-supernode traffic.

        Stage A: members forward their inter-SN payload to the supernode
        leader (intra-SN hop).  Stage B: leaders exchange aggregated
        payloads (inter-SN hop).  Stage C: destination leaders scatter to
        members (intra-SN hop).  Intra-SN traffic still goes direct and
        overlaps stage A.  The stages serialize; the slowest rank bounds
        each stage.  Every hop moves its bytes at its own link's
        bandwidth, so a degraded link slows exactly the hops routed over
        it.
        """
        m = self.machine
        p = self.num_ranks
        sn = self.topology.supernode
        num_sn = self.topology.num_supernodes()
        # Bandwidth divisor of each (src, dst) link; 1.0 on a healthy one.
        slow = self.faults.link_beta_factor if self.faults is not None else None
        if slow is None:
            slow = np.ones((p, p))
        ranks = np.arange(p)
        inter_mask = sn[:, None] != sn[None, :]
        intra_bytes = np.where(~inter_mask, bytes_matrix, 0)
        inter_bytes = np.where(inter_mask, bytes_matrix, 0)
        # Leaders are the first rank of each supernode (supernodes hold
        # contiguous rank ranges, so ``sn`` is sorted).
        leaders = np.searchsorted(sn, np.arange(num_sn))
        leader_of = leaders[sn]
        is_leader = leader_of == ranks
        # Stage A: member -> leader gather of outbound inter-SN payload.
        out_inter = inter_bytes.sum(axis=1)
        up = out_inter * slow[ranks, leader_of]
        a_send = np.where(
            (out_inter > 0) & ~is_leader, m.alpha_intra + up * m.beta_intra, 0.0
        )
        a_recv = np.zeros(p)
        np.add.at(a_recv, leader_of, np.where(~is_leader, up, 0))
        a_recv = np.where(a_recv > 0, m.alpha_intra + a_recv * m.beta_intra, 0.0)
        stage_a = float(np.maximum(a_send, a_recv).max())
        # Forwarded bytes: everything a non-leader handed to its leader, and
        # everything a destination leader re-sends (stage C), counted as
        # extra intra-SN traffic.
        forwarded = int(np.where(~is_leader, out_inter, 0).sum())
        # Stage B: leader <-> leader aggregated exchange.
        sn_matrix = np.zeros((num_sn, num_sn), dtype=np.int64)
        for s1 in range(num_sn):
            rows = sn == s1
            for s2 in range(num_sn):
                if s1 != s2:
                    sn_matrix[s1, s2] = inter_bytes[np.ix_(rows, sn == s2)].sum()
        has = sn_matrix > 0
        per_pair = np.where(
            has,
            m.alpha_inter + sn_matrix * slow[np.ix_(leaders, leaders)] * m.beta_inter,
            0.0,
        )
        stage_b = float(np.maximum(per_pair.sum(axis=1), per_pair.sum(axis=0)).max())
        # Stage C: destination leader -> member scatter.
        in_inter = inter_bytes.sum(axis=0)
        down = in_inter * slow[leader_of, ranks]
        c_recv = np.where(
            (in_inter > 0) & ~is_leader, m.alpha_intra + down * m.beta_intra, 0.0
        )
        c_send = np.zeros(p)
        np.add.at(c_send, leader_of, np.where(~is_leader, down, 0))
        c_send = np.where(c_send > 0, m.alpha_intra + c_send * m.beta_intra, 0.0)
        stage_c = float(np.maximum(c_send, c_recv).max())
        forwarded += int(np.where(~is_leader, in_inter, 0).sum())
        self.trace.bytes_forwarded += forwarded
        # Direct intra-SN traffic overlaps stage A.
        has_intra = intra_bytes > 0
        intra_pair = np.where(
            has_intra, m.alpha_intra + intra_bytes * slow * m.beta_intra, 0.0
        )
        direct = float(
            np.maximum(intra_pair.sum(axis=1), intra_pair.sum(axis=0)).max()
        )
        return max(stage_a, direct) + stage_b + stage_c

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
        self.clock.charge("sync", 2.0 * self.topology.barrier_cost())
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
        total_bytes = sum(m.nbytes for m in nonempty)
        if nonempty and self.num_ranks > 1:
            depth = int(np.ceil(np.log2(self.num_ranks)))
            worst_alpha = max(
                float(self._alpha.max(initial=0.0)), self.machine.alpha_intra
            )
            worst_beta = max(float(self._beta.max(initial=0.0)), self.machine.beta_intra)
            self.clock.charge("comm", depth * worst_alpha + total_bytes * worst_beta)
            # Traffic accounting: each rank ends up holding every byte once.
            p = self.num_ranks
            bytes_matrix = np.zeros((p, p), dtype=np.int64)
            for src, m in enumerate(contributions):
                if m is not None and len(m) > 0:
                    bytes_matrix[src, :] = m.nbytes
                    bytes_matrix[src, src] = 0
            self.trace.record_exchange(bytes_matrix, self._tiers, len(nonempty))
            fault_tags: dict[str, int] = {}
            if self.faults is not None:
                # A lost round of the recursive-doubling tree re-moves the
                # accumulated payload after the backed-off timeout.
                fault_tags = self._inject_faults(
                    self.trace.supersteps - 1,
                    bytes_matrix,
                    retry_cost=lambda m: depth * worst_alpha + float(m.sum()) * worst_beta,
                )
            if self.tracer.enabled:
                self.tracer.event(
                    "exchange",
                    cat="fabric",
                    kind="allgather",
                    step=self.trace.supersteps - 1,
                    bytes=int(bytes_matrix.sum()),
                    messages=len(nonempty),
                    **fault_tags,
                )
        self.clock.charge("sync", self.topology.barrier_cost())
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
