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

Connected components, PageRank and k-core
(:mod:`repro.engine.kernels`) are the three shipped kernels; the README's
"Writing a kernel" walk-through builds connected components from scratch
on this interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol

import numpy as np

from repro.engine.driver import (
    EngineContext,
    RunSummary,
    attach_fabric_outcome,
    run_superstep_engine,
)
from repro.engine.rank import Outbox, OwnerRouter, Rank
from repro.engine.validation import check_num_ranks, make_contiguous_partition
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer
from repro.simmpi.executor import RankExecutor
from repro.simmpi.fabric import Message, Wire
from repro.simmpi.faults import FaultPlan, FaultSpec
from repro.simmpi.machine import MachineSpec

__all__ = ["Kernel", "RankContext", "run_kernel"]

#: Finite stand-in for "no vote": sums/mins of it never reach a NaN and
#: the sanitizer's finite-contribution audit stays happy (same convention
#: as the 1-D engine's bucket vote).
VOTE_INF = 1e300


@dataclass(frozen=True)
class RankContext:
    """The fixed, read-only view a kernel's rank-side hooks receive.

    Owned vertices are the contiguous global range ``[lo, hi)``;
    ``local_graph`` holds their out-edges with *local* row indices and
    *global* adjacency targets, so ``global id = local id + lo`` is the
    whole index translation a kernel ever needs.
    """

    rank: int
    num_ranks: int
    num_vertices: int
    lo: int
    hi: int
    local_graph: CSRGraph

    @property
    def owned_count(self) -> int:
        return self.hi - self.lo


class Kernel(Protocol):
    """What an algorithm must provide to run on the substrate.

    Attributes:
        name: kernel name (lands in run meta, spans and the CLI).
        vote_op: allreduce op combining per-rank votes (``"min"``/``"sum"``/``"max"``).
        drain: whether a superstep loops generate→exchange→apply until no
            rank has active vertices (k-core's peeling cascade) instead of
            running exactly one pass (label propagation, power iteration).
        value_dtype: dtype of the ``value`` wire field this kernel emits.
        wire_fields: optional ``((name, dtype), ...)`` declaring a
            *multi-field* wire record.  When present, ``gen_messages``
            returns a tuple of equal-length value arrays (one per field,
            in declaration order) alongside the targets, and
            ``apply_messages`` receives the same tuple back — each field
            travels as its own named :class:`Message` array, so the
            sanitizer's schema and conservation audits cover every field.
            Lane-indexed kernels (batched multi-source BFS/SSSP) use this
            to ship ``(vertex, lane-mask, payload)`` records without
            packing tricks.

    All rank-side hooks receive ``(state, ctx)`` and must touch nothing
    else: under the process backend they execute in forked workers, so
    mutations of kernel-object attributes would be lost.  ``done`` is the
    one parent-side hook and may keep parent-side state.

    Two hooks are optional.  ``begin_step(state, ctx, reduced)`` runs
    before a superstep's first generate.  ``gen_settled(state, ctx)``
    returns ``(targets_global, values, edges_scanned)`` like
    ``gen_messages``; when a kernel defines it, each superstep ends with
    one extra generate → exchange → apply pass that sends what it returns
    — the records owed by vertices the superstep settled (∆-stepping's
    heavy edges, relaxed once with final distances).  It is a generate
    hook: it must write no state key that ``apply_messages`` writes.
    """

    name: str
    vote_op: str
    drain: bool
    value_dtype: np.dtype

    def init_state(self, ctx: RankContext) -> dict:
        """Allocate one rank's owned-local state (arrays sized by owned_count)."""
        ...

    def frontier_from(self, state: dict, ctx: RankContext) -> np.ndarray:
        """Local ids of the vertices active this pass.  Must be pure."""
        ...

    def gen_messages(
        self, state: dict, ctx: RankContext, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Emit ``(targets_global, values, edges_scanned)`` from the frontier."""
        ...

    def apply_messages(
        self, state: dict, ctx: RankContext, targets: np.ndarray, values: np.ndarray
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
        # repro: index-space: owned=global
        lo, hi = int(router.starts[rank]), int(router.starts[rank + 1])
        owned = np.arange(lo, hi, dtype=np.int64)
        self.kernel = kernel
        self.ctx = RankContext(
            rank=rank,
            num_ranks=router.num_ranks,
            num_vertices=graph.num_vertices,
            lo=lo,
            hi=hi,
            local_graph=graph.extract_rows(owned),
        )
        self.state = kernel.init_state(self.ctx)
        # Multi-field wire records: ((name, dtype), ...) or None (legacy
        # single "value" field).  Internally values are always a tuple of
        # equal-length arrays so routing has one code path.
        self._wire_fields = getattr(kernel, "wire_fields", None)
        names = (
            ("value",)
            if self._wire_fields is None
            else tuple(name for name, _ in self._wire_fields)
        )
        # Self-addressed records go through the fabric like any others:
        # the inbox then holds *every* record for an owned vertex
        # concatenated in source-rank order, which is what lets
        # order-sensitive kernels reproduce a sequential oracle bitwise
        # (and keeps the sanitizer's conservation audit covering the whole
        # payload).
        self.outbox = Outbox(router, ("vertex", *names))

    # -- kernel hook dispatch (team-callable) -------------------------------

    def kernel_begin_step(self, reduced: float) -> None:
        begin = getattr(self.kernel, "begin_step", None)
        if begin is not None:
            begin(self.state, self.ctx, reduced)

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
        if self._wire_fields is None:
            values = (values,)
        self.outbox.route(targets, *values)

    def kernel_apply(self, msg: Message | None) -> None:
        """Unpack the inbox (possibly empty) and fold it into owned state.

        The kernel always runs — vertex programs like PageRank update
        every owned vertex each pass even when nothing arrived.
        """
        # repro: index-space: msg["vertex"]=global, targets=local
        if self._wire_fields is not None:
            if msg is None:
                targets = np.empty(0, dtype=np.int64)
                values = tuple(
                    np.empty(0, dtype=dtype) for _, dtype in self._wire_fields
                )
            else:
                targets = msg["vertex"] - self.ctx.lo
                values = tuple(msg[name] for name, _ in self._wire_fields)
        elif msg is None:
            targets = np.empty(0, dtype=np.int64)
            values = np.empty(0, dtype=self.kernel.value_dtype)
        else:
            targets = msg["vertex"] - self.ctx.lo
            values = msg["value"]
        self.kernel.apply_messages(self.state, self.ctx, targets, values)

    def kernel_vote(self) -> float:
        return float(self.kernel.vote(self.state, self.ctx))

    def kernel_pending(self) -> float:
        """Active-vertex count after apply — the drain loop's quiescence vote."""
        return float(self.kernel.frontier_from(self.state, self.ctx).size)

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
        if begin:
            self.kernel_begin_step(reduced)
        self.kernel_generate(settled)
        return self.flush_outbox(self.outbox)

    def superstep_recv(self, msg: Message | None, drain: bool) -> tuple:
        """The whole inbound half of one pass, as a single team call.

        apply → work readout → (pending when draining) → vote.  Returns
        ``(edges, bytes, pending, vote)``; the driver charges the cost
        model from the first two, drives quiescence from the third, and
        hands the fourth to the next vote allreduce — the hooks are pure
        readouts, so per-pass evaluation matches the unfused phase order
        bit for bit.
        """
        self.kernel_apply(msg)
        edges, nbytes = self.take_step_work()
        pending = self.kernel_pending() if drain else 0.0
        return (float(edges), float(nbytes), pending, self.kernel_vote())

    # -- introspection ------------------------------------------------------

    def answer(self) -> dict:
        return {"kernel": self.kernel.export_state(self.state, self.ctx)}

    def resident(self) -> dict[str, dict[str, np.ndarray]]:
        # A kernel's per-vertex arrays are the ones it exports; whatever
        # else it keeps in ``state`` is scratch.
        lg = self.ctx.local_graph
        exported = {
            k: np.asarray(v)
            for k, v in self.kernel.export_state(self.state, self.ctx).items()
        }
        held = {id(v) for v in exported.values()}
        return {
            "vertex": {**exported, "local_indptr": lg.indptr},
            "edges": {"adj": lg.adj, "weight": lg.weight},
            "other": {
                k: v
                for k, v in self.state.items()
                if isinstance(v, np.ndarray) and id(v) not in held
            },
        }


class _KernelEngine:
    """Adapter expressing a vertex kernel as a :class:`SuperstepEngine`.

    ``kernel`` is a :class:`Kernel` instance or a registered name; its
    vertices are split over ``num_ranks`` by a contiguous 1-D ``partition``.
    """

    layout = "dist1d"
    hierarchical = False

    def __init__(
        self,
        graph: CSRGraph,
        kernel: Kernel | str,
        num_ranks: int,
        partition: str = "block",
    ) -> None:
        if isinstance(kernel, str):
            from repro.engine.kernels import make_kernel

            kernel = make_kernel(kernel)
        check_num_ranks(num_ranks)
        self.partition = make_contiguous_partition(
            graph, partition, num_ranks, "the vertex-kernel substrate"
        )
        self.kernel = kernel
        self.kernel_name = kernel.name
        self.vote_op = kernel.vote_op
        self.steps = 0

    def build_ranks(self, graph: CSRGraph, num_ranks: int) -> list[_KernelRank]:
        router = OwnerRouter(self.partition)
        return [
            _KernelRank(r, graph, router, self.kernel) for r in range(num_ranks)
        ]

    def votes(self, ctx: EngineContext) -> np.ndarray:
        return np.array(ctx.team.call("kernel_vote"), dtype=np.float64)

    def done(self, reduced: float) -> bool:
        return self.kernel.done(reduced, self.steps)

    def _pass(
        self, ctx: EngineContext, reduced: float, begin: bool = False,
        settled: bool = False,
    ) -> np.ndarray:
        """One generate → exchange → apply pass; per-rank ``superstep_recv`` rows.

        Two fused team calls (one per exchange side) where the unfused
        driver paid five; the fabric call sequence and values are
        unchanged.
        """
        team, fabric = ctx.team, ctx.fabric
        outboxes = team.call(
            "superstep_send", common=(reduced, begin, settled),
            parallel=True,
        )
        inboxes = fabric.exchange(outboxes)
        stats = np.array(
            team.call(
                "superstep_recv",
                per_rank=[(m,) for m in inboxes],
                common=(self.kernel.drain and not settled,),
                parallel=True,
            ),
            dtype=np.float64,
        )
        ctx.charge(stats, "edges", "bytes")
        return stats

    def step(self, ctx: EngineContext, reduced: float) -> np.ndarray:
        self.steps += 1
        with ctx.tracer.span(
            "superstep", cat="engine", kernel=self.kernel_name, step=self.steps
        ) as sp:
            # One generate→exchange→apply pass per superstep; draining
            # kernels (k-core) repeat until every rank's frontier is empty,
            # with quiescence detected by an any-allreduce like the 1-D
            # engine's light-phase loop.
            stats = self._pass(ctx, reduced, begin=True)
            while self.kernel.drain and ctx.fabric.allreduce_any(stats[:, 2]):
                stats = self._pass(ctx, reduced)
            if hasattr(self.kernel, "gen_settled"):
                stats = self._pass(ctx, reduced, settled=True)
            ctx.close_step(sp)
        # The last pass's votes are the next superstep's: the hooks are
        # pure, so they equal what a fresh gather would read.
        return stats[:, 3]

    def finalize(self, ctx: EngineContext, exports: list[dict]) -> tuple[Any, dict]:
        result = self.kernel.finalize(
            ctx.graph, [e["kernel"] for e in exports], self.steps
        )
        result.counters.add("supersteps", self.steps)
        result.meta.update(kernel=self.kernel_name, num_ranks=ctx.num_ranks)
        attach_fabric_outcome(result, ctx.fabric, "edges_scanned")
        return result, {"partition": self.partition.kind}


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
