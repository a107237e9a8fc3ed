"""The vertex-kernel substrate: write ~100 lines, get a distributed engine.

A :class:`Kernel` describes only the algorithm — what per-vertex state to
allocate, which vertices are active, what records they emit along their
out-edges, and how arriving records fold into owned state.  Everything
else is supplied by :func:`run_kernel` on top of the superstep driver:
owner routing over contiguous 1-D partitions, the simulated fabric with
its cost model, fault injection and the sanitizer, rank-execution
backends (serial/thread/process), tracer spans and profile buckets, and
the uniform :class:`~repro.engine.driver.RunSummary`.

The substrate is deliberately order-disciplined so kernels can be exact:
records travel the wire in *(owner rank ascending, generation order)*
and arrive concatenated in source-rank order, which means a kernel that
generates in (source vertex, adjacency position) order and applies with
a stable per-target grouping reproduces a sequential oracle bitwise —
including floating-point sums (see the PageRank kernel).

The shipped kernels (:mod:`repro.engine.kernels`) are ∆-stepping
(``sssp_batch``, whose one-lane case is ``repro.run(kernel="sssp")``),
direction-optimizing BFS (``repro.run(kernel="bfs")``, whose bottom-up
levels are gather passes steered by a per-rank statistic), ``bfs64``,
connected components, PageRank and k-core; the README's
"Writing a kernel" walk-through builds connected components from scratch
on this interface.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any, Protocol

import numpy as np

from repro.core.delegation import DelegateTable
from repro.engine.driver import (
    EngineContext,
    RunSummary,
    attach_fabric_outcome,
    run_superstep_engine,
)
from repro.engine.rank import Outbox, OwnerRouter, Rank
from repro.engine.validation import check_num_ranks, check_roots, make_partition
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer
from repro.simmpi.executor import RankExecutor
from repro.simmpi.fabric import Message, Wire
from repro.simmpi.faults import FaultPlan, FaultSpec
from repro.simmpi.machine import MachineSpec

__all__ = ["Kernel", "RankContext", "run_kernel"]


@dataclass(frozen=True)
class RankContext:
    """The fixed, read-only view a kernel's rank-side hooks receive.

    Owned vertices are the contiguous global range ``[lo, hi)`` —
    rank ``r`` owns ``[starts[r], starts[r + 1])``;
    ``local_graph`` holds their out-edges with *local* row indices and
    *global* adjacency targets, so ``global id = local id + lo`` is the
    whole index translation a kernel ever needs.  When the kernel
    delegates ``hubs``, an owned hub's row is empty and row
    ``owned_count + s`` holds this rank's slice of ``hubs[s]``.
    """

    rank: int
    num_ranks: int
    num_vertices: int
    lo: int
    hi: int
    local_graph: CSRGraph | None
    starts: np.ndarray

    @property
    def owned_count(self) -> int:
        return self.hi - self.lo

    def owned_roots(self, kernel: str, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Range-check a root batch; return the lanes whose root this rank
        owns and those roots' local ids."""
        roots = check_roots(kernel, roots, self.num_vertices)
        lanes = np.flatnonzero((roots >= self.lo) & (roots < self.hi))
        return lanes, roots[lanes] - self.lo


class Kernel(Protocol):
    """What an algorithm must provide to run on the substrate.

    Attributes:
        name: kernel name (lands in run meta, spans and the CLI).
        vote_op: allreduce op combining per-rank votes (``"min"``/``"sum"``/``"max"``).
        drain: whether a superstep loops generate→exchange→apply until no
            rank has active vertices (k-core's peeling cascade) instead of
            running exactly one pass (label propagation, power iteration).
        wire_fields: ``((name, dtype), ...)`` declaring the wire record
            after its implicit ``vertex`` target field.  ``gen_messages``
            returns a tuple of equal-length value arrays (one per field,
            in declaration order) alongside the targets, and
            ``apply_messages`` receives the same tuple back — each field
            travels as its own named :class:`Message` array, so the
            sanitizer's schema and conservation audits cover every field.
            A one-value kernel declares ``(("value", dtype),)``;
            lane-indexed kernels (batched multi-source BFS/SSSP) ship
            ``(vertex, lane-mask, payload)`` records without packing
            tricks.

    All rank-side hooks receive ``(state, ctx)`` and must touch nothing
    else: under the process backend they execute in forked workers, so
    mutations of kernel-object attributes would be lost.  ``done`` is the
    one parent-side hook and may keep parent-side state.

    Some hooks are optional.  ``begin_step(state, ctx, reduced)`` runs
    before a superstep's first generate.  ``gen_settled(state, ctx)``
    returns ``(targets_global, values, edges_scanned)`` like
    ``gen_messages``; when a kernel defines it, each superstep ends with
    one extra generate → exchange → apply pass that sends what it returns
    — the records owed by vertices the superstep settled (∆-stepping's
    heavy edges, relaxed once with final distances), as one ``epoch`` span.
    ``phases`` names the span phase of a drain pass and of that closing
    pass (or of an exchange pass and of a gather pass).

    ``gen_messages`` and ``gen_settled`` are generate hooks: each must
    write no state key that ``apply_messages`` writes (nor ``gen_gather``
    one that ``apply_gathered`` writes) — except that a
    generate hook may fold records into the state early (∆-stepping's
    fusion applies owned-target records in place) with the very helper
    that ``apply_messages`` folds through, when that helper is all
    ``apply_messages`` writes the key with (lint rule
    ``shm-kernel-phase``).

    A per-rank statistic: ``stat(state, ctx)`` is a pure readout, summed
    by an allreduce right after each superstep's vote allreduce, and the
    parent-side ``observe(reduced, total)`` reads both sums before the
    superstep runs (BFS: frontier out-edges, for Beamer's switch).

    Gather passes: a superstep starting while the parent-side ``gathering``
    is true sends no records — each rank's ``gen_gather(state, ctx)``
    returns a ``{field: array}`` contribution, the fabric allgathers them,
    and each rank's ``apply_gathered(state, ctx, gathered)`` folds the one
    message holding all of them in rank order and returns the edges it
    scanned (BFS: the bottom-up frontier bitmap).

    A kernel with non-empty ``hubs`` delegates them (rows split over the
    ranks, see :class:`RankContext`), and each pass gains an announcement
    round: each rank broadcasts what ``take_announced(state, ctx)``
    returns (``(hubs, values)`` or ``None``), and passes what it received
    to ``expand_announced(state, ctx, hubs, values, settled)``, whose
    records (as ``gen_messages``) go out in the pass's exchange.

    A state holding ``"indptr"`` / ``"adj"`` / ``"weight"`` is the rank's
    one copy of its edges (``ctx.local_graph`` is then dropped), and
    ``state["halo"]`` the arrays sized by the rank's remote targets.
    ``edges_counter`` renames the edges-scanned counter, ``steps_counter``
    the supersteps counter; ``passes_counter`` names one counting the drain
    passes.
    """

    name: str
    vote_op: str
    drain: bool
    wire_fields: tuple[tuple[str, np.dtype], ...]

    def init_state(self, ctx: RankContext) -> dict:
        """Allocate one rank's owned-local state (arrays sized by owned_count)."""
        ...

    def frontier_from(self, state: dict, ctx: RankContext) -> np.ndarray:
        """Local ids of the vertices active this pass.  Must be pure."""
        ...

    def gen_messages(
        self, state: dict, ctx: RankContext, frontier: np.ndarray
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...], int]:
        """Emit ``(targets_global, values, edges_scanned)`` from the frontier."""
        ...

    def apply_messages(
        self,
        state: dict,
        ctx: RankContext,
        targets: np.ndarray,
        values: tuple[np.ndarray, ...],
    ) -> None:
        """Fold arrived records (targets already local) into owned state."""
        ...

    def vote(self, state: dict, ctx: RankContext) -> float:
        """This rank's contribution to the convergence allreduce."""
        ...

    def done(self, reduced: float, steps: int) -> bool:
        """Whether the allreduced vote, after ``steps`` supersteps, means done."""
        ...

    def export_state(self, state: dict, ctx: RankContext) -> dict:
        """The per-rank arrays ``finalize`` assembles the answer from."""
        ...

    def finalize(self, graph: CSRGraph, exports: list[dict], steps: int) -> Any:
        """Build the kernel-typed result from per-rank exports in rank order."""
        ...


class _KernelRank(Rank):
    """Generic per-rank plumbing shared by every vertex kernel.

    Owns the wire concerns a kernel never sees — routing generated records
    to their owners and unpacking the inbox — on top of the rank
    substrate.  All kernel state lives in ``self.state`` in owned-local
    index space.
    """

    def __init__(
        self, rank: int, graph: CSRGraph, router: OwnerRouter, kernel: Kernel
    ) -> None:
        super().__init__(rank, router)
        self.kernel = kernel
        # repro: index-space: rows=global
        rows = np.arange(self.lo, self.hi)
        hubs = getattr(kernel, "hubs", ())
        if len(hubs):
            # Hub delegation: empty hub rows, this rank's slices appended.
            slices = DelegateTable.build(graph, hubs, rank, router.num_ranks)
            own = graph.extract_rows(rows, keep=~slices.is_hub(rows))
            local_graph = CSRGraph(
                np.concatenate((own.indptr, own.num_edges + slices.indptr[1:])),
                np.concatenate((own.adj, slices.adj)),
                np.concatenate((own.weight, slices.weight)),
                rows.size + len(hubs),
            )
        else:
            local_graph = graph.extract_rows(rows)
        self.ctx = RankContext(
            rank=rank,
            num_ranks=router.num_ranks,
            num_vertices=graph.num_vertices,
            lo=self.lo,
            hi=self.hi,
            local_graph=local_graph,
            starts=router.starts,
        )
        self.state = kernel.init_state(self.ctx)
        if "adj" in self.state:
            # One copy of the rank's edges: the kernel's.
            self.ctx = replace(self.ctx, local_graph=None)
        names = tuple(name for name, _ in kernel.wire_fields)
        # Self-addressed records go through the fabric like any others:
        # the inbox then holds *every* record for an owned vertex
        # concatenated in source-rank order, which is what lets
        # order-sensitive kernels reproduce a sequential oracle bitwise
        # (and keeps the sanitizer's conservation audit covering the whole
        # payload).  They are packed, and the packing is charged as
        # memcpy, but they cross no link: they are not traffic.
        self.outbox = Outbox(router, ("vertex", *names))
        # Hub announcements: one copy of the records for every other rank.
        self.announcements = Outbox(router, ("vertex", *names)) if len(hubs) else None
        self.others = np.delete(np.arange(router.num_ranks), rank) if len(hubs) else None
        self.begin_step = getattr(kernel, "begin_step", None)
        self.stat = getattr(kernel, "stat", None)

    # -- kernel hook dispatch ------------------------------------------------

    def kernel_generate(self, settled: bool) -> None:
        """Run the kernel's generate hook and route what it emitted."""
        if settled:
            targets, values, scanned = self.kernel.gen_settled(self.state, self.ctx)
        else:
            frontier = self.kernel.frontier_from(self.state, self.ctx)
            if frontier.size == 0:
                return
            targets, values, scanned = self.kernel.gen_messages(
                self.state, self.ctx, frontier
            )
        self.step_edges += int(scanned)
        self.outbox.route(targets, *values)

    def _unpack(self, msg: Message | None) -> tuple:
        """``(vertex, values)`` columns of an inbox; empty for ``None``."""
        fields = self.kernel.wire_fields
        if msg is None:
            return np.empty(0, dtype=np.int64), tuple(
                np.empty(0, dtype=dtype) for _, dtype in fields
            )
        return msg["vertex"], tuple(msg[name] for name, _ in fields)

    def kernel_vote(self) -> tuple:
        """``(vote,)``, or ``(vote, stat)`` when the kernel keeps a statistic."""
        vote = float(self.kernel.vote(self.state, self.ctx))
        if self.stat is None:
            return (vote,)
        return vote, float(self.stat(self.state, self.ctx))

    def _readout(self, drain: bool) -> tuple:
        """A pass's ``(edges, pending, vote[, stat])``: the cost model's
        charge, the drain loop's quiescence vote (active vertices, when
        draining) and the next allreduces' inputs — pure readouts, so
        per-pass evaluation matches the unfused phase order bit for bit."""
        pending = float(self.kernel.frontier_from(self.state, self.ctx).size) if drain else 0.0
        return (float(self.take_step_work()), pending, *self.kernel_vote())

    # -- fused superstep phases (one team call per exchange side) -----------

    def superstep_send(
        self, reduced: float, begin: bool, settled: bool
    ) -> Wire | None:
        """The whole outbound half of one pass, as a single team call.

        begin-step (first pass of a superstep only) → generate → route →
        flush.  Returns the flushed wire for the fabric exchange.  Fusing
        the phases costs one dispatch where the unfused driver paid three.
        ``settled`` selects the kernel's ``gen_settled`` hook for the
        superstep's closing pass.
        """
        if begin and self.begin_step is not None:
            self.begin_step(self.state, self.ctx, reduced)
        self.kernel_generate(settled)
        if self.announcements is None:
            return self.outbox.flush()
        announced = self.kernel.take_announced(self.state, self.ctx)
        if announced is not None:
            self.announcements.route(announced[0], *announced[1])
        return self.announcements.flush(to=self.others)

    def superstep_relay(self, msg: Message | None, settled: bool) -> Wire | None:
        """The announcement round's inbound half: expand the hubs the other
        ranks announced (``msg`` is ``None`` when none did), then flush the
        pass's records."""
        # repro: index-space: hubs=global
        hubs, values = self._unpack(msg)
        targets, values, scanned = self.kernel.expand_announced(
            self.state, self.ctx, hubs, values, settled
        )
        self.step_edges += int(scanned)
        self.outbox.route(targets, *values)
        return self.outbox.flush()

    def superstep_recv(self, msg: Message | None, drain: bool) -> tuple:
        """The whole inbound half of one pass, as a single team call: fold
        the inbox (possibly empty) into owned state, then :meth:`_readout`.

        The kernel always runs — vertex programs like PageRank update
        every owned vertex each pass even when nothing arrived.
        """
        # repro: index-space: targets=global
        targets, values = self._unpack(msg)
        self.kernel.apply_messages(self.state, self.ctx, self.to_local(targets), values)
        return self._readout(drain)

    def gather_send(self, reduced: float, begin: bool) -> Message:
        """A gather pass's :meth:`superstep_send`: the rank's contribution."""
        if begin and self.begin_step is not None:
            self.begin_step(self.state, self.ctx, reduced)
        return Message(**self.kernel.gen_gather(self.state, self.ctx))

    def gather_recv(self, msg: Message, drain: bool) -> tuple:
        """A gather pass's :meth:`superstep_recv`."""
        self.step_edges += int(self.kernel.apply_gathered(self.state, self.ctx, msg))
        return self._readout(drain)

    # -- introspection ------------------------------------------------------

    def answer(self) -> dict:
        return {"kernel": self.kernel.export_state(self.state, self.ctx)}

    def resident(self) -> dict[str, dict[str, np.ndarray]]:
        # A kernel's per-vertex arrays are the ones it exports; whatever
        # else it keeps in ``state`` is scratch.
        state = self.state
        owner = state if "adj" in state else vars(self.ctx.local_graph)
        edges = {"adj": owner["adj"], "weight": owner["weight"]}
        indptr = owner["indptr"]
        exported = {
            k: np.asarray(v)
            for k, v in self.kernel.export_state(state, self.ctx).items()
        }
        held = {id(v) for v in (*exported.values(), *edges.values(), indptr)}
        groups = {
            "vertex": {**exported, "local_indptr": indptr},
            "edges": edges,
            "other": {
                k: v
                for k, v in state.items()
                if isinstance(v, np.ndarray) and id(v) not in held
            },
        }
        if "halo" in state:
            groups["halo"] = state["halo"]
        return groups


class _KernelEngine:
    """Adapter expressing a vertex kernel as a :class:`SuperstepEngine`.

    ``kernel`` is a :class:`Kernel` instance or a registered name; its
    vertices are split over ``num_ranks`` by a contiguous 1-D ``partition``.
    ``hierarchical`` routes the fabric's inter-supernode traffic through
    supernode leaders; ``meta`` lands in the run's meta.
    """

    layout = "dist1d"

    def __init__(
        self,
        graph: CSRGraph,
        kernel: Kernel | str,
        num_ranks: int,
        partition: str = "block",
        hierarchical: bool = False,
        meta: dict | None = None,
    ) -> None:
        if isinstance(kernel, str):
            from repro.engine.kernels import make_kernel

            kernel = make_kernel(kernel)
        check_num_ranks(num_ranks)
        self.partition = make_partition(graph, partition, num_ranks)
        self.kernel = kernel
        self.kernel_name = kernel.name
        self.vote_op = kernel.vote_op
        self.hierarchical = hierarchical
        self.meta = meta or {}
        self.announces = len(getattr(kernel, "hubs", ())) > 0
        self.phases = getattr(kernel, "phases", None)
        self.closes = hasattr(kernel, "gen_settled")
        self.gathers = hasattr(kernel, "gen_gather")
        self.observes = hasattr(kernel, "stat")
        # Per-rank statistics awaiting the next superstep's allreduce.
        self.stats: np.ndarray | None = None
        self.steps = 0
        self.passes = 0

    def build_ranks(self, graph: CSRGraph, num_ranks: int) -> list[_KernelRank]:
        router = OwnerRouter(self.partition)
        return [
            _KernelRank(r, graph, router, self.kernel) for r in range(num_ranks)
        ]

    def votes(self, ctx: EngineContext) -> np.ndarray:
        return self._carry(np.array(ctx.team.call("kernel_vote"), dtype=np.float64), 0)

    def _carry(self, rows: np.ndarray, col: int) -> np.ndarray:
        """Column ``col`` of per-rank ``rows``; the statistics after it wait."""
        if self.observes:
            self.stats = rows[:, col + 1]
        return rows[:, col]

    def done(self, reduced: float) -> bool:
        return self.kernel.done(reduced, self.steps)

    def _pass(
        self, ctx: EngineContext, reduced: float, begin: bool = False,
        settled: bool = False, gather: bool = False, frontier: int | None = None,
    ) -> np.ndarray:
        """One generate → exchange → apply pass, in its own superstep span;
        per-rank ``superstep_recv`` rows.

        Two fused team calls (one per exchange side), three with hub
        announcements: their broadcast round runs only when some rank
        announced, which a real machine learns from the preceding
        allreduce at no cost.  A ``gather`` pass allgathers the kernel's
        contributions instead of exchanging records.
        """
        team, fabric = ctx.team, ctx.fabric
        tags = {"kernel": self.kernel_name, "step": self.steps}
        if self.phases is not None:
            tags["phase"] = self.phases[settled or gather]
        if frontier is not None:
            tags["frontier"] = frontier
        with ctx.tracer.span("superstep", cat="engine", **tags) as sp:
            if gather:
                parts = team.call("gather_send", common=(reduced, begin), parallel=True)
                inboxes, recv = fabric.allgather(parts), "gather_recv"
            else:
                outboxes = team.call(
                    "superstep_send", common=(reduced, begin, settled),
                    parallel=True,
                )
                if self.announces:
                    if any(wire is not None for wire in outboxes):
                        inboxes = fabric.exchange(outboxes)
                    else:
                        inboxes = [None] * ctx.num_ranks
                    outboxes = team.call(
                        "superstep_relay", per_rank=[(m,) for m in inboxes],
                        common=(settled,), parallel=True,
                    )
                inboxes, recv = fabric.exchange(outboxes), "superstep_recv"
            rows = team.call(
                recv, per_rank=[(m,) for m in inboxes],
                common=(self.kernel.drain and not settled,), parallel=True,
            )
            stats = np.array(rows, dtype=np.float64)
            ctx.charge(stats, "edges")
            ctx.close_step(sp)
        self.passes += not settled
        return stats

    def step(self, ctx: EngineContext, reduced: float) -> np.ndarray:
        self.steps += 1
        kernel = self.kernel
        if self.observes:
            kernel.observe(reduced, ctx.fabric.allreduce(self.stats, op="sum"))
        gather = self.gathers and kernel.gathering
        # A closing kernel's superstep is an epoch of phase-tagged passes.
        with ctx.tracer.span(
            "epoch", cat="engine", epoch=self.steps
        ) if self.closes else nullcontext():
            # One generate→exchange→apply pass per superstep; draining
            # kernels (k-core, ∆-stepping's bucket) repeat until every
            # rank's frontier is empty, with quiescence detected by an
            # any-allreduce.  A drain pass's frontier is what the previous
            # pass left pending.
            stats = self._pass(ctx, reduced, begin=True, gather=gather)
            while kernel.drain and ctx.fabric.allreduce_any(stats[:, 1]):
                stats = self._pass(
                    ctx, reduced, gather=gather, frontier=int(stats[:, 1].sum())
                )
            if self.closes:
                stats = self._pass(ctx, reduced, settled=True)
        # The last pass's votes are the next superstep's: the hooks are
        # pure, so they equal what a fresh gather would read.
        return self._carry(stats, 2)

    def finalize(self, ctx: EngineContext, exports: list[dict]) -> tuple[Any, dict]:
        kernel = self.kernel
        result = kernel.finalize(ctx.graph, [e["kernel"] for e in exports], self.steps)
        result.counters.add(getattr(kernel, "steps_counter", "supersteps"), self.steps)
        if hasattr(kernel, "passes_counter"):
            result.counters.add(kernel.passes_counter, self.passes)
        result.meta.update(kernel=self.kernel_name, num_ranks=ctx.num_ranks)
        attach_fabric_outcome(
            result, ctx.fabric, getattr(kernel, "edges_counter", "edges_scanned")
        )
        return result, {"partition": self.partition.kind, **self.meta}


def run_kernel(
    graph: CSRGraph,
    kernel: Kernel | str,
    *,
    num_ranks: int = 8,
    machine: MachineSpec | None = None,
    partition: str = "block",
    tracer: Tracer | None = None,
    faults: FaultPlan | FaultSpec | str | None = None,
    sanitize: bool = False,
    racecheck: bool = False,
    executor: str | RankExecutor | None = None,
    workers: int | None = None,
) -> RunSummary:
    """Run a vertex kernel distributed over a simulated machine.

    ``kernel`` is a :class:`Kernel` instance or a registered name
    (``"cc"``, ``"pagerank"``, ``"kcore"`` —
    :func:`repro.engine.kernels.make_kernel`).  The remaining parameters
    mean exactly what they mean for the SSSP/BFS engines: simulated
    ``machine``, contiguous 1-D ``partition``, telemetry ``tracer``,
    deterministic ``faults``, fabric ``sanitize`` auditing, and the
    rank-execution ``executor`` backend — results are bit-identical
    across backends and with faults on or off.
    """
    return run_superstep_engine(
        graph,
        _KernelEngine(graph, kernel, num_ranks, partition),
        num_ranks=num_ranks,
        machine=machine,
        tracer=tracer,
        faults=faults,
        sanitize=sanitize,
        racecheck=racecheck,
        executor=executor,
        workers=workers,
    )
