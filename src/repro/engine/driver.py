"""The generic superstep driver every distributed engine runs on.

Every distributed engine (2-D frontier relaxation and the vertex-kernel
substrate, 1-D ∆-stepping and BFS included) shares one loop shape: build
per-rank state, seed it, gather per-rank votes once, then repeat *(fabric
allreduce → terminate or run one engine-defined step of team phases and
exchanges, which hands back the next votes)* until the vote converges,
gather the per-rank exports, and assemble a run object.  This module owns
that shape — fabric construction, executor/team lifecycle, the ``solve``
tracer span bounding wall-clock attribution, the per-step work charge and
span tags (:meth:`EngineContext.charge` / :meth:`EngineContext.close_step`),
and the shared finalize bookkeeping (fault counters, sanitizer report,
executor and rank-state meta) — parameterized by a
:class:`SuperstepEngine`.  :func:`repro.run` (and ``run_kernel``) build
the engine and thread the run knobs here.

What stays engine-defined is exactly what differs between engines: rank
construction/seeding, the vote (min live bucket, frontier size), and the
step body (a kernel's passes, row broadcast + column reduce).  The driver
performs team and fabric calls in the same canonical order whatever the
engine, which is why re-expressing an engine on this substrate is
bit-identical: the witness matrix (``tests/witness.py``) pins it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

import numpy as np

from repro.graph.csr import CSRGraph
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simmpi.executor import RankExecutor, RankTeam, resolve_executor
from repro.simmpi.fabric import Fabric
from repro.simmpi.faults import FaultPlan, FaultSpec
from repro.simmpi.machine import MachineSpec, small_cluster

__all__ = [
    "EngineContext",
    "RunSummary",
    "SuperstepEngine",
    "run_superstep_engine",
    "attach_fabric_outcome",
    "rank_state_meta",
]


@dataclass
class RunSummary:
    """What every run produced, whatever the kernel and engine.

    Attributes:
        engine: the layout that ran (``dist1d``/``dist2d``/``shared``).
        kernel: the kernel computed (``sssp``/``bfs``/``cc``/``pagerank``/
            ``kcore``/``bfs64``/``sssp_batch``).
        result: the kernel-typed answer object (with counters, meta and a
            ``validate(graph)`` oracle check).
        num_ranks: simulated ranks (1 for the shared engine).
        modeled_time: simulated seconds charged by the cost model (0.0 for
            the shared engine, which has no cost model).
        time_breakdown: ``modeled_time`` split by cost-model term.
        comm: exact communication statistics (``CommTrace.summary()``
            shape; empty for the shared engine).
        work_imbalance: max over mean of the per-rank edge work charged.
        machine_name: the simulated machine's name.
        step_bytes: bytes moved between ranks per superstep — the traffic
            wavefront; it sums to ``comm["total_bytes"]``.
        meta: what is specific to the engine (``config``/``delta`` for
            1-D ∆-stepping, ``grid``/``max_partners_per_rank`` for the 2-D
            grid, ``partition``) plus ``executor`` and ``rank_state``.
    """

    engine: str
    kernel: str
    result: Any
    num_ranks: int = 1
    modeled_time: float = 0.0
    time_breakdown: dict[str, float] = field(default_factory=dict)
    comm: dict[str, float | int] = field(default_factory=dict)
    work_imbalance: float = 1.0
    machine_name: str = ""
    step_bytes: list[int] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def report(self) -> dict:
        """One kernel-agnostic report dict."""
        return {
            "engine": self.engine,
            "kernel": self.kernel,
            "num_ranks": self.num_ranks,
            "modeled_time": self.modeled_time,
            "time_breakdown": dict(self.time_breakdown),
            "comm": dict(self.comm),
            "counters": self.result.counters.as_dict(),
            "work_imbalance": self.work_imbalance,
            "meta": dict(self.meta),
        }

    def teps(self, graph: CSRGraph) -> float:
        """Traversed edges per simulated second (Graph500 metric)."""
        if self.modeled_time <= 0:
            raise ValueError("run has no positive simulated time")
        return self.result.traversed_edges(graph) / self.modeled_time


@dataclass
class EngineContext:
    """Everything a step body may touch, handed to every engine hook.

    The driver owns construction and teardown; engines only *use* these.
    All rank state interaction goes through ``team``.
    """

    graph: CSRGraph
    num_ranks: int
    machine: MachineSpec
    fabric: Fabric
    team: RankTeam
    tracer: Tracer
    #: Work charged since the last :meth:`close_step`, by component.
    step_work: dict[str, int] = field(default_factory=dict)

    def charge(self, stats: np.ndarray, *columns: str) -> None:
        """Charge one compute phase to the cost model.

        ``stats`` holds one row per rank whose leading columns are the
        work components ``columns`` names (``edges``/``bucket_ops``); the
        last component, ``bytes``, is what the fabric saw each rank pack
        since the previous charge.  The phase lasts as long as its slowest
        rank; its totals count toward the superstep :meth:`close_step` tags.
        """
        work = {c: stats[:, i] for i, c in enumerate(columns)}
        work["bytes"] = self.fabric.take_packed()
        self.fabric.charge_compute(**work)
        for c, counts in work.items():
            self.step_work[c] = self.step_work.get(c, 0) + int(counts.sum())

    def close_step(self, span) -> dict[str, int]:
        """Tag a superstep's span with the work charged since the last
        close and the team's wall timing (``critical_path``/
        ``sum_of_ranks``); return the work totals."""
        work, self.step_work = self.step_work, {}
        critical_path, sum_of_ranks = self.team.take_step_timing()
        span.tag(**work, critical_path=critical_path, sum_of_ranks=sum_of_ranks)
        return work


class SuperstepEngine(Protocol):
    """What an engine must provide to run on the superstep driver.

    Attributes:
        layout: the run's ``engine`` name (``dist1d``/``dist2d``).
        kernel_name: the run's ``kernel`` name.
        hierarchical: whether the fabric aggregates reduces hierarchically.
        vote_op: the allreduce op combining per-rank votes
            (``"min"``/``"sum"``/``"max"``).
    """

    layout: str
    kernel_name: str
    hierarchical: bool
    vote_op: str

    def build_ranks(self, graph: CSRGraph, num_ranks: int) -> list:
        """Construct and seed the per-rank state objects, in rank order."""
        ...

    def votes(self, ctx: EngineContext) -> np.ndarray:
        """The first per-rank convergence votes (float64), gathered via
        the team once per run; later votes come out of :meth:`step`."""
        ...

    def done(self, reduced: float) -> bool:
        """Whether the allreduced vote means the run has converged."""
        ...

    def step(self, ctx: EngineContext, reduced: float) -> np.ndarray:
        """One engine-defined superstep/epoch of team phases + exchanges.

        Returns the next per-rank votes, read out of the step's last
        fused team call, and closes the step with
        :meth:`EngineContext.close_step`.
        """
        ...

    def finalize(self, ctx: EngineContext, exports: list[dict]) -> tuple[Any, dict]:
        """Assemble ``(result, meta)`` from the per-rank final exports.

        ``result`` is the kernel-typed answer; ``meta`` holds what is
        specific to this engine in the run's ``meta``.
        """
        ...


def run_superstep_engine(
    graph: CSRGraph,
    engine: SuperstepEngine,
    *,
    num_ranks: int,
    machine: MachineSpec | None = None,
    tracer: Tracer | None = None,
    faults: FaultPlan | FaultSpec | str | None = None,
    sanitize: bool = False,
    racecheck: bool = False,
    executor: str | RankExecutor | None = None,
    workers: int | None = None,
) -> RunSummary:
    """Run ``engine`` to convergence on a simulated machine.

    The loop is votes, then allreduce → step until done: every engine
    terminates on a fabric allreduce over per-rank votes (so termination
    itself is charged and audited like any collective), each step returns
    the votes it carried out of its last fused call, and everything
    between the first vote and the final export happens inside one
    ``solve`` span — the anchor the wall-clock profiler reconciles its
    buckets against.
    """
    if tracer is None:
        tracer = NULL_TRACER
    if machine is None:
        machine = small_cluster(max(num_ranks, 1))
    fabric = Fabric(
        machine,
        num_ranks,
        hierarchical=engine.hierarchical,
        tracer=tracer,
        faults=faults,
        sanitize=sanitize,
    )
    ranks = engine.build_ranks(graph, num_ranks)
    # The team owns where rank methods execute (inline, parked threads, or
    # forked workers).  It is built after seeding so the process backend's
    # fork inherits the seeded state; from here on every rank interaction
    # goes through the team — the parent's rank objects may be stale copies.
    exec_obj, _ = resolve_executor(executor, workers)
    team = exec_obj.team(ranks, tracer=tracer, racecheck=racecheck)
    ctx = EngineContext(
        graph=graph,
        num_ranks=num_ranks,
        machine=machine,
        fabric=fabric,
        team=team,
        tracer=tracer,
    )
    try:
        # The solve span bounds wall-clock attribution: everything the team
        # and fabric do between here and the final export happens inside
        # it, so the profiler can reconcile its buckets against this one
        # wall duration (setup/teardown are reported separately).
        with tracer.span(
            "solve", cat="engine", backend=team.backend, workers=team.num_workers
        ):
            votes = engine.votes(ctx)
            while True:
                reduced = fabric.allreduce(votes, op=engine.vote_op)
                if engine.done(reduced):
                    break
                votes = engine.step(ctx, reduced)
            exports = team.call("export_final")
    finally:
        team.close()
    result, meta = engine.finalize(ctx, exports)
    if team.racecheck is not None:
        # Next to the sanitizer report: violations raise during the run,
        # so a report landing here certifies zero of them.
        result.meta["racecheck"] = team.racecheck.report()
    return RunSummary(
        engine=engine.layout,
        kernel=engine.kernel_name,
        result=result,
        num_ranks=num_ranks,
        modeled_time=fabric.clock.total,
        time_breakdown=fabric.clock.breakdown(),
        comm=fabric.trace.summary(),
        work_imbalance=fabric.compute_imbalance("edges"),
        machine_name=machine.name,
        step_bytes=list(fabric.trace.step_bytes),
        meta={
            **meta,
            "executor": {"backend": team.backend, "workers": team.num_workers},
            "rank_state": rank_state_meta(exports),
        },
    )


def attach_fabric_outcome(result, fabric: Fabric, edges_counter: str) -> None:
    """Fold what the fabric measured into a result.

    Every engine records these identically: the per-rank edge work the
    cost model was charged, summed under the engine's own counter name;
    fault-injection counters and the spec that produced them (when a plan
    was active); and the sanitizer's audit summary (when auditing was on).
    """
    result.counters.add(
        edges_counter, int(fabric.work_per_rank.get("edges", np.zeros(1)).sum())
    )
    if fabric.faults is not None:
        result.meta["faults"] = fabric.faults.spec.describe()
        result.counters.add("messages_dropped", fabric.trace.messages_dropped)
        result.counters.add("retry_rounds", fabric.trace.retries)
        result.counters.add("bytes_retransmitted", fabric.trace.bytes_retransmitted)
        result.counters.add("rank_stalls", fabric.trace.stalls)
    if fabric.sanitizer is not None:
        result.meta["sanitizer"] = fabric.sanitizer.report()


def rank_state_meta(exports: list[dict]) -> dict:
    """The rank-state block of a run's meta, from per-rank final exports.

    Every rank's ``export_final`` (:class:`repro.engine.rank.Rank`)
    reports ``nbytes`` (resident state, graph share included),
    ``graph_nbytes`` (the rank's share of the input edges — resident in
    any layout) and ``lengths`` (every resident per-vertex array).  A
    rank that also declares halo arrays (a ∆-stepping rank's halo and
    best-sent filter, which size with the remote targets of its edges, fixed at
    build, rather than with owned vertices) reports them apart as
    ``halo_lengths``; ``max_dense_len`` then tracks only the truly dense
    arrays the owned-local layout shrinks from O(n) to O(owned).
    """
    rank_bytes = [e["nbytes"] for e in exports]
    dense = max(max(e["lengths"].values()) for e in exports)
    out = {
        "max_bytes": max(rank_bytes),
        "total_bytes": sum(rank_bytes),
        # Algorithm state only: excludes the rank's share of the input
        # edges (adjacency + weights), which is resident in any layout.
        "max_state_bytes": max(e["nbytes"] - e["graph_nbytes"] for e in exports),
        "max_array_len": dense,
    }
    if "halo_lengths" in exports[0]:
        out["max_dense_len"] = dense
        out["max_array_len"] = max(
            dense, *(max(e["halo_lengths"].values(), default=0) for e in exports)
        )
    return out
