"""The end-to-end Graph500 SSSP benchmark driver.

``run_graph500_sssp`` executes the full benchmark protocol on the simulated
machine: generate the Kronecker edge list, build the CSR (kernel 1, wall-
clock timed), sample roots, run distributed ∆-stepping per root (kernel 3,
simulated-time measured), validate every run, and aggregate TEPS.

With ``batch_roots=`` the per-root loop becomes batched multi-source
sweeps on the ``sssp_batch`` kernel: roots are chunked into groups of at
most ``batch_roots`` and each group is answered by one sweep over a
shared distance matrix.  TEPS accounting stays per-root — every lane
gets its own :class:`RootRun` whose simulated time is the amortized
share ``sweep_seconds / num_lanes`` and whose validation runs on the
lane's reconstructed single-root answer (bit-identical to the unbatched
run by construction).

The harness is what every evaluation experiment calls; its knobs mirror the
real benchmark driver's command line (scale, edgefactor, roots, ranks,
machine, algorithm configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import api
from repro.core.config import SSSPConfig
from repro.graph.csr import CSRGraph, build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph500.roots import sample_roots
from repro.graph500.spec import GRAPH500_EDGEFACTOR, GRAPH500_NUM_ROOTS
from repro.graph500.teps import lane_teps, teps_summary
from repro.graph500.validation import ValidationReport, validate_sssp
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simmpi.executor import RankExecutor, resolve_executor
from repro.simmpi.machine import MachineSpec, small_cluster
from repro.utils.stats import Summary
from repro.utils.timing import Timer

__all__ = ["RootRun", "BenchmarkResult", "run_graph500_sssp", "run_sssp_on_graph"]


@dataclass
class RootRun:
    """Outcome of kernel 3 from one root."""

    root: int
    simulated_seconds: float
    teps: float
    traversed_edges: int
    validation: ValidationReport
    counters: dict[str, int]
    time_breakdown: dict[str, float]
    trace: dict[str, float | int]
    work_imbalance: float
    #: The run's ``meta["racecheck"]`` audit summary when the harness ran
    #: with ``racecheck=True``; ``None`` otherwise.
    racecheck: dict | None = None
    #: Batched-sweep provenance: which lane of which sweep answered this
    #: root, and the sweep's total simulated seconds (``simulated_seconds``
    #: is the amortized ``sweep_seconds / lanes-in-sweep`` share).  All
    #: ``None`` for unbatched per-root runs.
    lane: int | None = None
    batch: int | None = None
    sweep_seconds: float | None = None


@dataclass
class BenchmarkResult:
    """Everything one benchmark invocation produced."""

    scale: int
    edgefactor: int
    seed: int
    num_ranks: int
    machine_name: str
    config: SSSPConfig
    num_vertices: int
    num_edges_generated: int
    num_edges_csr: int
    generation_wall_seconds: float
    construction_wall_seconds: float
    roots: list[RootRun] = field(default_factory=list)

    @property
    def teps(self) -> Summary:
        return teps_summary(np.array([r.teps for r in self.roots]))

    @property
    def all_valid(self) -> bool:
        return all(r.validation.ok for r in self.roots)

    @property
    def mean_simulated_seconds(self) -> float:
        return float(np.mean([r.simulated_seconds for r in self.roots]))

    def totals(self, key: str) -> int:
        """Sum of a counter across roots (e.g. 'edges_relaxed')."""
        return int(sum(r.counters.get(key, 0) for r in self.roots))

    def total_counters(self) -> dict[str, int]:
        """Union-of-keys counter totals across every root.

        Root runs do not all carry the same counter set — batched lanes
        report sweep counters (``epochs``/``edges_scanned``) while
        unbatched runs add relaxation detail — so aggregation takes the
        key union and treats a missing key as 0 rather than raising.
        """
        out: dict[str, int] = {}
        for r in self.roots:
            for key, value in r.counters.items():
                out[key] = out.get(key, 0) + int(value)
        return out

    def row(self) -> dict[str, object]:
        """One summary row for report tables."""
        s = self.teps
        return {
            "scale": self.scale,
            "ranks": self.num_ranks,
            "variant": self.config.variant_name(),
            "roots": len(self.roots),
            "hmean_TEPS": s.hmean,
            "valid": self.all_valid,
            "mean_sim_s": self.mean_simulated_seconds,
        }


def run_sssp_on_graph(
    graph: CSRGraph,
    roots: np.ndarray,
    num_ranks: int,
    machine: MachineSpec,
    config: SSSPConfig,
    validate: bool = True,
    tracer: Tracer | None = None,
    faults: object = None,
    engine: str = "dist1d",
    sanitize: bool = False,
    racecheck: bool = False,
    executor: str | RankExecutor | None = None,
    workers: int | None = None,
    batch_roots: int | None = None,
) -> list[RootRun]:
    """Kernel-3 loop: one distributed run per root, each validated.

    ``faults`` (a spec/plan/CLI string, see :mod:`repro.simmpi.faults`)
    injects the same deterministic fault schedule into every root's fabric;
    ``engine`` selects the distributed SSSP engine (``dist1d``/``dist2d``).
    ``executor``/``workers`` select the rank-execution backend; the backend
    is resolved once and its worker pool is shared across all roots.

    ``batch_roots`` switches to batched multi-source sweeps: the roots
    are chunked into groups of at most ``batch_roots`` and each group is
    answered by one ``sssp_batch`` sweep, split back into per-lane
    :class:`RootRun` entries (amortized timing, per-lane validation).
    """
    if tracer is None:
        tracer = NULL_TRACER
    if batch_roots is not None:
        if batch_roots < 1:
            raise ValueError(f"batch_roots must be >= 1, got {batch_roots}")
        if engine != "dist1d":
            raise ValueError(
                "batched sweeps run on the dist1d vertex-kernel substrate; "
                f"engine={engine!r} does not support batch_roots="
            )
        return _batched_sssp_runs(
            graph,
            roots,
            num_ranks,
            machine,
            config,
            validate,
            tracer=tracer,
            faults=faults,
            sanitize=sanitize,
            racecheck=racecheck,
            executor=executor,
            workers=workers,
            batch_roots=batch_roots,
        )
    exec_obj, owns_executor = resolve_executor(executor, workers)
    runs: list[RootRun] = []
    try:
        for index, root in enumerate(roots):
            # Each root gets a fresh fabric (and simulated clock); detach the
            # previous one so the root span doesn't straddle two clocks.
            tracer.use_sim_clock(None)
            with tracer.span("root", cat="harness", root=int(root), index=index):
                run = api.run(
                    graph,
                    int(root),
                    engine=engine,
                    num_ranks=num_ranks,
                    machine=machine,
                    config=config,
                    faults=faults,
                    tracer=tracer,
                    sanitize=sanitize,
                    racecheck=racecheck,
                    executor=exec_obj,
                )
                traversed = run.result.traversed_edges(graph)
                with tracer.span("validation", cat="harness", root=int(root)):
                    report = (
                        validate_sssp(graph, run.result)
                        if validate
                        else ValidationReport(ok=True, failures=[])
                    )
            runs.append(
                RootRun(
                    root=int(root),
                    simulated_seconds=run.modeled_time,
                    teps=traversed / run.modeled_time,
                    traversed_edges=traversed,
                    validation=report,
                    counters=run.result.counters.as_dict(),
                    time_breakdown=run.time_breakdown,
                    trace=run.comm,
                    work_imbalance=run.work_imbalance,
                    racecheck=run.result.meta.get("racecheck"),
                )
            )
    finally:
        if owns_executor:
            exec_obj.close()
    return runs


def _batched_sssp_runs(
    graph: CSRGraph,
    roots: np.ndarray,
    num_ranks: int,
    machine: MachineSpec,
    config: SSSPConfig,
    validate: bool,
    *,
    tracer: Tracer,
    faults: object,
    sanitize: bool,
    racecheck: bool,
    executor: str | RankExecutor | None,
    workers: int | None,
    batch_roots: int,
) -> list[RootRun]:
    """Kernel-3 loop in batched sweeps: ``sssp_batch``, split per lane.

    One sweep answers up to ``batch_roots`` roots over a shared distance
    matrix; per-lane answers are bit-identical to single-root runs, so
    each lane is validated and TEPS-accounted as its own root with the
    amortized time share ``sweep_seconds / num_lanes``.
    """
    exec_obj, owns_executor = resolve_executor(executor, workers)
    runs: list[RootRun] = []
    try:
        for batch_index in range(0, (len(roots) + batch_roots - 1) // batch_roots):
            chunk = roots[batch_index * batch_roots : (batch_index + 1) * batch_roots]
            chunk = [int(r) for r in chunk]
            num_lanes = len(chunk)
            tracer.use_sim_clock(None)
            with tracer.span(
                "batch", cat="harness", index=batch_index,
                roots=chunk, lanes=num_lanes,
            ):
                run = api.run(
                    graph,
                    chunk,
                    kernel="sssp_batch",
                    num_ranks=num_ranks,
                    machine=machine,
                    config=config,
                    faults=faults,
                    tracer=tracer,
                    sanitize=sanitize,
                    racecheck=racecheck,
                    executor=exec_obj,
                )
            sweep_seconds = run.modeled_time
            shared_counters = run.result.counters.as_dict()
            lane_edges = run.result.meta.get("lane_edges_scanned")
            for i, root in enumerate(chunk):
                lane_result = run.result.lane(i)
                traversed = lane_result.traversed_edges(graph)
                with tracer.span(
                    "validation", cat="harness", root=root, lane=i,
                ):
                    report = (
                        validate_sssp(graph, lane_result)
                        if validate
                        else ValidationReport(ok=True, failures=[])
                    )
                # Per-lane telemetry split: shared sweep counters plus
                # this lane's own edges-scanned attribution.  The key set
                # intentionally differs from single-root runs (see
                # BenchmarkResult.total_counters).
                counters = dict(shared_counters)
                if lane_edges is not None:
                    counters["edges_scanned"] = int(lane_edges[i])
                counters["batch_lanes"] = num_lanes
                runs.append(
                    RootRun(
                        root=root,
                        simulated_seconds=sweep_seconds / num_lanes,
                        teps=lane_teps(traversed, sweep_seconds, num_lanes),
                        traversed_edges=traversed,
                        validation=report,
                        counters=counters,
                        time_breakdown=run.time_breakdown,
                        trace=run.comm,
                        work_imbalance=run.work_imbalance,
                        racecheck=run.result.meta.get("racecheck"),
                        lane=i,
                        batch=batch_index,
                        sweep_seconds=sweep_seconds,
                    )
                )
    finally:
        if owns_executor:
            exec_obj.close()
    return runs


def run_graph500_sssp(
    scale: int,
    num_ranks: int = 8,
    edgefactor: int = GRAPH500_EDGEFACTOR,
    seed: int = 2022,
    num_roots: int = GRAPH500_NUM_ROOTS,
    machine: MachineSpec | None = None,
    config: SSSPConfig | None = None,
    validate: bool = True,
    tracer: Tracer | None = None,
    faults: object = None,
    engine: str = "dist1d",
    sanitize: bool = False,
    racecheck: bool = False,
    executor: str | RankExecutor | None = None,
    workers: int | None = None,
    batch_roots: int | None = None,
) -> BenchmarkResult:
    """Run the complete Graph500 SSSP benchmark at the given scale.

    ``num_roots`` defaults to the official 64 but experiments routinely use
    fewer for sweeps; validation can be disabled for timing-only runs.
    ``batch_roots`` answers the roots in batched multi-source sweeps of at
    most that many lanes each (``sssp_batch`` kernel) instead of one run
    per root; reports stay per-root via amortized lane accounting.

    ``faults`` injects a deterministic fault schedule into every root's
    fabric (answers are unchanged; TEPS degrade by the modeled retry cost);
    ``engine`` selects the distributed engine (``dist1d``/``dist2d``);
    ``sanitize`` audits every fabric collective at runtime (see
    :class:`~repro.simmpi.sanitizer.FabricSanitizer`); ``executor`` /
    ``workers`` select the rank-execution backend (serial/thread/process),
    resolved once and shared across roots.

    ``tracer`` (optional) receives the full telemetry of the protocol —
    generation/construction spans (wall-clock kernels), one ``root`` span
    per kernel-3 invocation wrapping the engine's epoch/superstep spans and
    the fabric's per-exchange events, and a harness metrics snapshot.
    """
    if tracer is None:
        tracer = NULL_TRACER
    if config is None:
        config = SSSPConfig()
    if machine is None:
        machine = small_cluster(max(num_ranks, 1))
    tracer.add_meta(
        scale=scale,
        edgefactor=edgefactor,
        seed=seed,
        ranks=num_ranks,
        machine=machine.name,
        variant=config.variant_name(),
        num_roots=num_roots,
        batch_roots=batch_roots,
    )
    gen_timer = Timer()
    with tracer.span("generation", cat="harness", scale=scale, edgefactor=edgefactor):
        with gen_timer:
            edges = generate_kronecker(scale, edgefactor=edgefactor, seed=seed)
    build_timer = Timer()
    with tracer.span("construction", cat="harness"):
        with build_timer:
            graph = build_csr(edges)
    roots = sample_roots(graph, num_roots, seed=seed)
    runs = run_sssp_on_graph(
        graph,
        roots,
        num_ranks,
        machine,
        config,
        validate,
        tracer=tracer,
        faults=faults,
        engine=engine,
        sanitize=sanitize,
        racecheck=racecheck,
        executor=executor,
        workers=workers,
        batch_roots=batch_roots,
    )
    if tracer.enabled:
        registry = MetricsRegistry()
        for run in runs:
            registry.histogram("root_simulated_seconds").observe(
                run.simulated_seconds
            )
            registry.histogram("root_teps").observe(run.teps)
        registry.gauge("generation_wall_seconds").set(gen_timer.seconds)
        registry.gauge("construction_wall_seconds").set(build_timer.seconds)
        tracer.emit_metrics("harness", registry.snapshot())
    return BenchmarkResult(
        scale=scale,
        edgefactor=edgefactor,
        seed=seed,
        num_ranks=num_ranks,
        machine_name=machine.name,
        config=config,
        num_vertices=graph.num_vertices,
        num_edges_generated=edges.num_edges,
        num_edges_csr=graph.num_edges,
        generation_wall_seconds=gen_timer.seconds,
        construction_wall_seconds=build_timer.seconds,
        roots=runs,
    )
