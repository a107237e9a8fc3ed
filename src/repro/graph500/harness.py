"""The end-to-end Graph500 benchmark driver: one root loop for every kernel.

The protocol is the same whatever the kernel — generate the Kronecker
edge list, build the CSR (kernel 1, wall-clock timed), sample roots,
answer every root on the simulated machine (simulated-time measured),
validate every answer against the spec, aggregate harmonic-mean TEPS —
so there is one loop, :func:`run_roots`, and ``run_graph500_sssp`` /
``run_graph500_bfs`` are the two public names over one pipeline body.

:func:`run_roots` cuts the root sample into sweeps of ``batch_roots``
lanes — one lane when unbatched, where the "sweep" is a single-root run
(SSSP: distributed ∆-stepping, BFS: direction-optimizing) — and answers
each sweep with one kernel invocation (``sssp_batch`` over a shared
distance matrix, ``bfs64`` with one uint64 bit per root).  TEPS
accounting stays per-root: every lane becomes one :class:`RootRun` whose
simulated time is the amortized share ``sweep_seconds / num_lanes`` and
whose validation runs on the lane's reconstructed single-root answer.

The harness is what every evaluation experiment calls; its knobs mirror the
real benchmark driver's command line (scale, edgefactor, roots, ranks,
machine, algorithm configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import api
from repro.core.config import SSSPConfig
from repro.graph.csr import CSRGraph, build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph500.roots import sample_roots
from repro.graph500.spec import GRAPH500_EDGEFACTOR, GRAPH500_NUM_ROOTS
from repro.graph500.teps import lane_teps, teps_summary
from repro.graph500.validation import ValidationReport, validate_bfs, validate_sssp
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simmpi.executor import RankExecutor, resolve_executor
from repro.simmpi.machine import MachineSpec, small_cluster
from repro.utils.bitset import MAX_LANES
from repro.utils.stats import Summary
from repro.utils.timing import Timer

__all__ = [
    "BenchmarkResult",
    "RootRun",
    "run_graph500_bfs",
    "run_graph500_sssp",
    "run_roots",
]

#: Per Graph500 kernel: the single-root kernel of the loop, the
#: multi-root kernel of a sweep, and the spec validator of one answer.
_KERNELS = {
    "sssp": ("sssp", "sssp_batch", validate_sssp),
    "bfs": ("bfs", "bfs64", validate_bfs),
}


@dataclass
class RootRun:
    """Outcome of one root: kernel 3 (SSSP) or kernel 2 (BFS)."""

    root: int
    simulated_seconds: float
    teps: float
    traversed_edges: int
    validation: ValidationReport
    #: The run's counters; kernel-specific values live here (BFS
    #: ``levels``, SSSP ``edges_relaxed``).  A sweep lane carries the
    #: sweep's shared counters overlaid with its own (``edges_scanned``,
    #: BFS depth) plus ``batch_lanes``.
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
    #: The SSSP optimization knobs; ``None`` for BFS.
    config: SSSPConfig | None
    num_vertices: int
    num_edges_generated: int
    num_edges_csr: int
    generation_wall_seconds: float
    construction_wall_seconds: float
    roots: list[RootRun] = field(default_factory=list)
    kernel: str = "sssp"
    #: BFS only: the traversal policy of the loop, ``"bfs64"`` for sweeps.
    direction: str | None = None

    @property
    def variant(self) -> str:
        return self.direction or self.config.variant_name()

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

    def row(self) -> dict[str, object]:
        """One summary row for report tables."""
        s = self.teps
        return {
            "kernel": self.kernel.upper(),
            "scale": self.scale,
            "ranks": self.num_ranks,
            "variant": self.variant,
            "roots": len(self.roots),
            "hmean_TEPS": s.hmean,
            "valid": self.all_valid,
            "mean_sim_s": self.mean_simulated_seconds,
        }


def run_roots(
    graph: CSRGraph,
    roots: np.ndarray,
    num_ranks: int,
    machine: MachineSpec | None = None,
    config: SSSPConfig | None = None,
    validate: bool | Callable[[CSRGraph, object], ValidationReport] = True,
    *,
    kernel: str = "sssp",
    tracer: Tracer | None = None,
    faults: object = None,
    engine: str = "dist1d",
    sanitize: bool = False,
    racecheck: bool = False,
    executor: str | RankExecutor | None = None,
    workers: int | None = None,
    batch_roots: int | None = None,
    **kernel_opts,
) -> list[RootRun]:
    """The root loop: answer every root, one validated :class:`RootRun` each.

    ``kernel`` picks the Graph500 kernel (``"sssp"``/``"bfs"``).  Unbatched,
    each root is one run of the single-root kernel; ``batch_roots`` cuts
    the sample into sweeps of at most that many lanes, each answered by
    one run of the multi-root kernel and split back per lane (amortized
    timing, per-lane validation).  ``validate`` runs the kernel's spec
    validator on every answer; ``False`` skips it (vacuous reports), a
    callable ``(graph, answer) -> ValidationReport`` runs in its place.

    ``faults`` (a spec/plan/CLI string, see :mod:`repro.simmpi.faults`)
    injects the same deterministic fault schedule into every run's fabric;
    ``engine`` selects the distributed SSSP engine (``dist1d``/``dist2d``).
    ``executor``/``workers`` select the rank-execution backend, resolved
    once; each run starts (and stops) its own team of workers.
    ``kernel_opts`` pass to the single-root kernel (BFS ``direction=``).
    """
    if tracer is None:
        tracer = NULL_TRACER
    loop_kernel, sweep_kernel, validator = _KERNELS[kernel]
    sweeps = batch_roots is not None
    if sweeps:
        if batch_roots < 1:
            raise ValueError(f"batch_roots must be >= 1, got {batch_roots}")
        if engine != "dist1d":
            raise ValueError(
                "batched sweeps run on the dist1d vertex-kernel substrate; "
                f"engine={engine!r} does not support batch_roots="
            )
    check = validator if validate is True else validate
    lanes_per_run = batch_roots if sweeps else 1
    exec_obj, _ = resolve_executor(executor, workers)
    runs: list[RootRun] = []
    for index in range((len(roots) + lanes_per_run - 1) // lanes_per_run):
        chunk = [
            int(r) for r in roots[index * lanes_per_run : (index + 1) * lanes_per_run]
        ]
        num_lanes = len(chunk)
        # Each run gets a fresh fabric (and simulated clock); detach the
        # previous one so the span doesn't straddle two clocks.
        tracer.use_sim_clock(None)
        span = (
            tracer.span("batch", cat="harness", index=index, roots=chunk, lanes=num_lanes)
            if sweeps
            else tracer.span("root", cat="harness", root=chunk[0], index=index)
        )
        with span:
            run = api.run(
                graph,
                chunk if sweeps else chunk[0],
                kernel=sweep_kernel if sweeps else loop_kernel,
                engine=engine,
                num_ranks=num_ranks,
                machine=machine,
                config=config,
                faults=faults,
                tracer=tracer,
                sanitize=sanitize,
                racecheck=racecheck,
                executor=exec_obj,
                **kernel_opts,
            )
            seconds = run.modeled_time
            lane_edges = run.result.meta.get("lane_edges_scanned")
            for lane, root in enumerate(chunk):
                answer = run.result.lane(lane) if sweeps else run.result
                traversed = answer.traversed_edges(graph)
                span_lane = {"lane": lane} if sweeps else {}
                with tracer.span("validation", cat="harness", root=root, **span_lane):
                    report = check(graph, answer) if check else ValidationReport(ok=True)
                counters = run.result.counters.as_dict()
                provenance = {}
                if sweeps:
                    # Per-lane telemetry split: the sweep's shared
                    # counters, overlaid with what is this lane's own.
                    # The key set intentionally differs from
                    # single-root runs (``totals`` reads a missing key as 0).
                    counters.update(answer.counters.as_dict())
                    if lane_edges is not None:
                        counters["edges_scanned"] = int(lane_edges[lane])
                    counters["batch_lanes"] = num_lanes
                    provenance = {"lane": lane, "batch": index, "sweep_seconds": seconds}
                runs.append(
                    RootRun(
                        root=root,
                        simulated_seconds=seconds / num_lanes,
                        teps=lane_teps(traversed, seconds, num_lanes),
                        traversed_edges=traversed,
                        validation=report,
                        counters=counters,
                        time_breakdown=run.time_breakdown,
                        trace=run.comm,
                        work_imbalance=run.work_imbalance,
                        racecheck=run.result.meta.get("racecheck"),
                        **provenance,
                    )
                )
    return runs


def _run_graph500(
    kernel: str,
    variant: str,
    scale: int,
    num_ranks: int,
    edgefactor: int,
    seed: int,
    num_roots: int,
    machine: MachineSpec | None,
    tracer: Tracer | None,
    **loop,
) -> BenchmarkResult:
    """generation → construction → roots → loop → result, for either kernel.

    ``variant`` labels the result (SSSP: the config's name, BFS: the
    traversal policy); ``loop`` is every other keyword of :func:`run_roots`.
    """
    if tracer is None:
        tracer = NULL_TRACER
    if machine is None:
        machine = small_cluster(max(num_ranks, 1))
    tracer.add_meta(
        scale=scale,
        edgefactor=edgefactor,
        seed=seed,
        ranks=num_ranks,
        machine=machine.name,
        variant=variant,
        num_roots=num_roots,
        batch_roots=loop["batch_roots"],
    )
    gen_timer = Timer()
    with tracer.span("generation", cat="harness", scale=scale, edgefactor=edgefactor):
        with gen_timer:
            edges = generate_kronecker(scale, edgefactor=edgefactor, seed=seed)
    build_timer = Timer()
    with tracer.span("construction", cat="harness"):
        with build_timer:
            graph = build_csr(edges)
    runs = run_roots(
        graph,
        sample_roots(graph, num_roots, seed=seed),
        num_ranks,
        machine,
        kernel=kernel,
        tracer=tracer,
        **loop,
    )
    return BenchmarkResult(
        scale=scale,
        edgefactor=edgefactor,
        seed=seed,
        num_ranks=num_ranks,
        machine_name=machine.name,
        config=loop.get("config"),
        num_vertices=graph.num_vertices,
        num_edges_generated=edges.num_edges,
        num_edges_csr=graph.num_edges,
        generation_wall_seconds=gen_timer.seconds,
        construction_wall_seconds=build_timer.seconds,
        roots=runs,
        kernel=kernel,
        direction=variant if kernel == "bfs" else None,
    )


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
    per kernel invocation (``batch`` per sweep) wrapping the engine's
    epoch/superstep spans, the fabric's per-exchange events and the
    per-answer ``validation`` spans.
    """
    if config is None:
        config = SSSPConfig()
    return _run_graph500(
        "sssp", config.variant_name(), scale, num_ranks, edgefactor, seed,
        num_roots, machine, tracer, config=config, validate=validate,
        faults=faults, engine=engine, sanitize=sanitize, racecheck=racecheck,
        executor=executor, workers=workers, batch_roots=batch_roots,
    )


def run_graph500_bfs(
    scale: int,
    num_ranks: int = 8,
    edgefactor: int = GRAPH500_EDGEFACTOR,
    seed: int = 2022,
    num_roots: int = GRAPH500_NUM_ROOTS,
    machine: MachineSpec | None = None,
    direction: str = "auto",
    validate: bool = True,
    tracer: Tracer | None = None,
    faults: object = None,
    sanitize: bool = False,
    racecheck: bool = False,
    executor: str | RankExecutor | None = None,
    workers: int | None = None,
    batch_roots: int | None = None,
) -> BenchmarkResult:
    """Run the complete Graph500 BFS benchmark at the given scale.

    The same protocol and knobs as :func:`run_graph500_sssp`, on the
    distributed direction-optimizing BFS (``direction=`` pins its
    traversal policy).  ``batch_roots`` answers the roots in bit-parallel
    ``bfs64`` sweeps of at most that many lanes (<= 64: one uint64 bit per
    root) instead of one run per root.
    """
    loop_opts = {"direction": direction}
    if batch_roots is not None:
        if not 1 <= batch_roots <= MAX_LANES:
            raise ValueError(
                f"batch_roots must be in [1, {MAX_LANES}] (one uint64 bit "
                f"per root), got {batch_roots}"
            )
        if direction != "auto":
            raise ValueError(
                "bfs64 batched sweeps are level-synchronous and have no "
                f"direction knob; direction={direction!r} conflicts with "
                "batch_roots="
            )
        direction, loop_opts = "bfs64", {}
    return _run_graph500(
        "bfs", direction, scale, num_ranks, edgefactor, seed, num_roots,
        machine, tracer, validate=validate, faults=faults, sanitize=sanitize,
        racecheck=racecheck, executor=executor, workers=workers,
        batch_roots=batch_roots, **loop_opts,
    )
