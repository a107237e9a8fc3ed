"""The unified kernel API: one ``run()`` facade over every graph kernel.

The package computes five kernels — SSSP (the paper's algorithm), BFS
(Graph500 kernel 2), connected components, PageRank and k-core — and this
module is the single front door to all of them:

>>> from repro import run
>>> out = run(graph, 0, kernel="sssp", engine="dist1d", num_ranks=8)
>>> out.result.dist              # the answer (bit-identical to the oracle)
>>> out.result.validate(graph)   # uniform oracle check, any kernel
>>> out.modeled_time             # simulated seconds the cost model charged
>>> out.report()                 # uniform kernel-agnostic report dict

``kernel=`` selects *what* to compute; ``engine=`` selects *where and
how* — ``dist1d`` (1-D partitioned ranks over the simulated fabric),
``dist2d`` (checkerboard grid; SSSP only), or ``shared`` (the in-process
sequential kernel, no cost model).  The two axes are orthogonal: every
kernel runs on ``dist1d`` and ``shared``, and flipping ``engine=`` never
changes the answer.

``source=`` is required for the traversal kernels (``sssp``, ``bfs``)
and must be omitted for the whole-graph kernels (``cc``, ``pagerank``,
``kcore``).  Every run returns one :class:`RunSummary`, whose
kernel-typed ``result`` (distances / parent+level / labels / ranks /
coreness) carries a uniform ``validate(graph)`` hook checking it against a
sequential oracle.

Cross-cutting knobs — ``machine``, ``faults``, ``sanitize``,
``racecheck``, ``tracer``, ``executor``/``workers`` — mean the same thing
for every distributed kernel.  Kernel-specific extras (``grid`` for
``dist2d``, ``direction`` for BFS, ``damping``/``iterations``/``tol`` for
PageRank, ...) pass through as keyword arguments.

Every ``(kernel, engine)`` cell is one function of ``_DISPATCH``.  A
distributed cell is an *engine builder*: it checks the cell's arguments,
does its setup (∆, hubs, grid, partition) and returns a
:class:`~repro.engine.driver.SuperstepEngine`, which :func:`run` hands to
:func:`~repro.engine.driver.run_superstep_engine` — the one call that
threads the cross-cutting knobs.  A ``shared`` cell returns the answer of
the in-process sequential kernel, which :func:`run` wraps in a
:class:`RunSummary`.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.dist_bfs import _BFSEngine
from repro.bfs.kernel import bfs as _shared_bfs
from repro.core.adaptive import resolve_delta
from repro.core.config import SSSPConfig
from repro.core.delegation import auto_hub_threshold, select_hubs
from repro.core.delta_stepping import _delta_stepping
from repro.core.dist_sssp import _DistSSSPEngine
from repro.core.twod_engine import _TwoDEngine
from repro.engine.driver import RunSummary, run_superstep_engine
from repro.engine.protocol import _KernelEngine
from repro.engine.results import CorenessResult, LabelsResult, RanksResult
from repro.engine.validation import (
    check_direction,
    check_grid,
    check_integral_roots,
    check_num_ranks,
    check_source,
    check_weights,
    make_partition,
)
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer
from repro.partition import make_grid
from repro.simmpi.executor import RankExecutor
from repro.simmpi.faults import FaultPlan, FaultSpec
from repro.simmpi.machine import MachineSpec

__all__ = ["ENGINES", "KERNELS", "RunSummary", "run"]

#: Kernel names accepted by :func:`run`, in documentation order.
KERNELS = ("sssp", "bfs", "cc", "pagerank", "kcore", "bfs64", "sssp_batch")

#: Engine (layout) names accepted by :func:`run`, in documentation order.
ENGINES = ("dist1d", "dist2d", "shared")


def _reject_extra(kernel: str, engine: str, extra: dict) -> None:
    if extra:
        raise TypeError(
            f"kernel {kernel!r} on engine {engine!r} got unexpected keyword "
            f"arguments: {sorted(extra)}"
        )


def _reject_config(kernel: str, config, hint: str) -> None:
    if config is not None:
        raise ValueError(f"kernel {kernel!r} takes no SSSPConfig; {hint}")


def _reject_fabric_knobs(machine, faults, sanitize, racecheck, executor, workers) -> None:
    """The shared engine has no fabric; every fabric knob is an error."""
    if machine is not None:
        raise ValueError(
            "engine 'shared' runs in-process without a cost model; "
            "machine= does not apply (use a distributed engine)"
        )
    if faults is not None:
        raise ValueError(
            "engine 'shared' has no fabric to inject faults into; "
            "faults= requires a distributed engine"
        )
    if sanitize:
        raise ValueError(
            "engine 'shared' has no fabric to sanitize; sanitize=True "
            "requires a distributed engine"
        )
    if racecheck:
        raise ValueError(
            "engine 'shared' has no parallel backend to race-check; "
            "racecheck=True requires a distributed engine"
        )
    if executor is not None or workers is not None:
        raise ValueError(
            "engine 'shared' runs in-process with no simulated ranks to "
            "parallelize; executor=/workers= require a distributed engine"
        )


def _as_roots(kernel: str, source) -> np.ndarray:
    """Validate a batched kernel's root batch (a sequence of vertex ids)."""
    if source is None or np.isscalar(source):
        raise ValueError(
            f"kernel {kernel!r} is batched multi-source: pass a sequence "
            f"of root vertex ids as source= (e.g. source=[0, 5, 9])"
        )
    roots = np.ascontiguousarray(source, dtype=np.int64).ravel()
    if roots.size == 0:
        raise ValueError(f"kernel {kernel!r} needs at least one root")
    return roots


# -- distributed cells: engine builders -------------------------------------


def _sssp_dist1d(graph, source, num_ranks, config, **extra):
    _reject_extra("sssp", "dist1d", extra)
    if config is None:
        config = SSSPConfig()
    check_source(graph, source)
    check_num_ranks(num_ranks)
    delta = resolve_delta(graph, config)
    partition = make_partition(graph, config.partition, num_ranks)
    if config.delegate_hubs:
        threshold = config.hub_degree_threshold
        if threshold is None:
            threshold = auto_hub_threshold(graph, num_ranks)
        hubs = select_hubs(graph, threshold)
    else:
        threshold, hubs = 0, np.empty(0, dtype=np.int64)
    return _DistSSSPEngine(source, config, delta, partition, hubs, threshold)


def _sssp_dist2d(graph, source, num_ranks, config, grid=None, **extra):
    _reject_extra("sssp", "dist2d", extra)
    check_source(graph, source)
    rows, cols = grid if grid is not None else make_grid(num_ranks)
    check_grid(rows, cols, num_ranks)
    return _TwoDEngine(source, rows, cols, config)


def _bfs_dist1d(
    graph, source, num_ranks, config, direction="auto", alpha=15.0, beta=18.0,
    partition="edge_balanced", hierarchical=False, **extra
):
    _reject_config(
        "bfs", config,
        "pass its own knobs directly (direction=, partition=, "
        "hierarchical=, alpha=, beta=)",
    )
    _reject_extra("bfs", "dist1d", extra)
    check_source(graph, source)
    check_direction(direction)
    return _BFSEngine(source, direction, alpha, beta, partition, hierarchical)


def _bfs64_dist1d(graph, source, num_ranks, config, partition="block", **extra):
    _reject_config("bfs64", config, "bfs64 takes no tuning knobs")
    _reject_extra("bfs64", "dist1d", extra)
    from repro.engine.kernels import BFS64

    return _KernelEngine(
        graph, BFS64(_as_roots("bfs64", source)), num_ranks, partition
    )


def _sssp_batch_dist1d(
    graph, source, num_ranks, config, partition="block", delta=None, **extra
):
    _reject_extra("sssp_batch", "dist1d", extra)
    # Sweeps default to the batch heuristic: finer buckets than a
    # single-root run, same per-lane fixed point (∆-invariant).
    delta = resolve_delta(graph, config, delta, batch=True)
    from repro.engine.kernels import SSSPBatch

    return _KernelEngine(
        graph, SSSPBatch(_as_roots("sssp_batch", source), delta), num_ranks, partition
    )


def _vertex_kernel(name: str):
    """Builder of a whole-graph kernel on the vertex-kernel substrate."""

    def build(graph, source, num_ranks, config, partition="block", **params):
        _reject_config(
            name, config,
            "kernel parameters pass directly (e.g. partition=, and for "
            "pagerank damping=/iterations=/tol=)",
        )
        from repro.engine.kernels import make_kernel

        return _KernelEngine(graph, make_kernel(name, **params), num_ranks, partition)

    return build


# -- shared cells: the in-process sequential answer -------------------------


def _sssp_shared(graph, source, config, tracer, max_phases=None, **extra):
    _reject_extra("sssp", "shared", extra)
    return _delta_stepping(
        graph, source, delta=resolve_delta(graph, config),
        max_phases=max_phases, tracer=tracer,
    )


def _bfs_shared(graph, source, config, tracer, **extra):
    _reject_config("bfs", config, "pass direction=/alpha=/beta= directly")
    _reject_extra(
        "bfs", "shared",
        {k: v for k, v in extra.items() if k not in ("direction", "alpha", "beta")},
    )
    return _shared_bfs(graph, source, **extra)


def _oracle(name: str):
    """Shared cell of a whole-graph kernel: the oracle ``validate()``
    checks against, so a shared run is the reference answer (no fabric,
    no cost model: ``modeled_time`` 0.0, ``comm`` empty)."""

    def answer(graph, source, config, tracer, **extra):
        _reject_config(name, config, "kernel parameters pass directly")
        if name == "cc":
            _reject_extra(name, "shared", extra)
            from repro.graph.components import connected_components

            result = LabelsResult(labels=connected_components(graph))
            result.meta["algorithm"] = "label_propagation"
            result.meta["num_components"] = result.num_components
        elif name == "pagerank":
            from repro.engine.kernels import PageRank
            from repro.engine.kernels.pagerank import pagerank_reference

            kern = PageRank(**extra)
            ranks = pagerank_reference(
                graph, damping=kern.damping, iterations=kern.iterations
            )
            result = RanksResult(
                ranks=ranks, damping=kern.damping, iterations=kern.iterations
            )
            result.counters.add("iterations", kern.iterations)
            result.meta["algorithm"] = "pagerank_power_iteration"
            result.meta["damping"] = kern.damping
        else:
            _reject_extra(name, "shared", extra)
            from repro.engine.kernels.kcore import kcore_reference

            result = CorenessResult(coreness=kcore_reference(graph))
            result.meta["algorithm"] = "sequential_peeling"
            result.meta["max_coreness"] = result.max_coreness
        return result

    return answer


_DISPATCH = {
    ("sssp", "dist1d"): _sssp_dist1d,
    ("sssp", "dist2d"): _sssp_dist2d,
    ("sssp", "shared"): _sssp_shared,
    ("bfs", "dist1d"): _bfs_dist1d,
    ("bfs", "shared"): _bfs_shared,
    ("cc", "dist1d"): _vertex_kernel("cc"),
    ("cc", "shared"): _oracle("cc"),
    ("pagerank", "dist1d"): _vertex_kernel("pagerank"),
    ("pagerank", "shared"): _oracle("pagerank"),
    ("kcore", "dist1d"): _vertex_kernel("kcore"),
    ("kcore", "shared"): _oracle("kcore"),
    ("bfs64", "dist1d"): _bfs64_dist1d,
    ("sssp_batch", "dist1d"): _sssp_batch_dist1d,
}

#: Traversal kernels require ``source=``; whole-graph kernels forbid it.
#: The batched kernels take a *sequence* of roots as ``source=``.
_NEEDS_SOURCE = ("sssp", "bfs", "bfs64", "sssp_batch")

#: Kernels whose answer depends on edge weights (finite, >= 0).
_WEIGHTED = ("sssp", "sssp_batch")


def run(
    graph: CSRGraph,
    source: int | None = None,
    *,
    kernel: str = "sssp",
    engine: str = "dist1d",
    num_ranks: int = 8,
    machine: MachineSpec | None = None,
    config: SSSPConfig | None = None,
    faults: FaultPlan | FaultSpec | str | None = None,
    tracer: Tracer | None = None,
    sanitize: bool = False,
    racecheck: bool = False,
    executor: str | RankExecutor | None = None,
    workers: int | None = None,
    **kernel_kwargs,
) -> RunSummary:
    """Run one graph kernel on the simulated machine via the unified facade.

    Args:
        graph: the CSR graph.
        source: source vertex — required for ``sssp``/``bfs``, forbidden
            for the whole-graph kernels (``cc``/``pagerank``/``kcore``).
            The batched kernels (``bfs64``/``sssp_batch``) take a
            *sequence* of root vertex ids here (≤ 64 for ``bfs64``) and
            answer the whole batch in one sweep.
        kernel: what to compute — ``"sssp"`` (∆-stepping, the paper's
            algorithm), ``"bfs"`` (direction-optimizing kernel 2),
            ``"cc"`` (connected components by min-label propagation),
            ``"pagerank"`` (synchronous push-based power iteration),
            ``"kcore"`` (k-core decomposition by batch peeling),
            ``"bfs64"`` (bit-parallel multi-source BFS, one uint64 lane
            per root), or ``"sssp_batch"`` (multi-root ∆-stepping over a
            distance matrix; ``delta=`` passes through).
        engine: where to run it — ``"dist1d"`` (1-D partitioned ranks over
            the simulated fabric; every kernel), ``"dist2d"``
            (checkerboard grid; ``sssp`` only), or ``"shared"``
            (in-process sequential reference, no cost model).
        num_ranks: simulated ranks (ignored by ``shared``).
        machine: simulated hardware (:class:`MachineSpec`); defaults to a
            small commodity cluster sized to ``num_ranks``.
        config: :class:`SSSPConfig` optimization knobs (``sssp`` only;
            other kernels take their parameters directly).
        faults: fault-injection schedule for the fabric — a
            :class:`FaultSpec`, a prebuilt :class:`FaultPlan`, or a CLI
            string like ``"drop=0.01,delay=2us,seed=7"``.  Answers are
            unchanged under faults; modeled time and retransmission
            accounting are not.
        tracer: optional run telemetry collector.
        sanitize: audit every fabric collective at runtime (schema
            matching, message conservation, NaN reductions, no-progress
            livelock); violations raise
            :class:`~repro.simmpi.sanitizer.SanitizerViolation` and the
            audit summary lands in ``result.meta["sanitizer"]``.
        racecheck: verify the parallel backends' shared-memory contracts
            at runtime (wire-handle arena generations on the process
            backend, shared-array write intervals on the thread backend);
            violations raise
            :class:`~repro.simmpi.racecheck.RaceCheckViolation` and the
            audit summary lands in ``result.meta["racecheck"]``.  Results
            are bit-identical with the flag on.
        executor: rank-execution backend — ``"serial"`` (default, inline),
            ``"thread"``, ``"process"``, or a prebuilt
            :class:`~repro.simmpi.executor.RankExecutor`.  Results are
            bit-identical across backends.
        workers: worker count for a string ``executor`` spec (the team
            starts ``min(workers, num_ranks)``).
        **kernel_kwargs: kernel/engine extras — ``grid=(r, c)`` for
            ``sssp`` on ``dist2d``; ``direction=``, ``partition=``,
            ``hierarchical=``, ``alpha=``, ``beta=`` for ``bfs``;
            ``max_phases=`` for ``sssp`` on ``shared``; ``partition=``
            plus constructor parameters (PageRank's ``damping=``,
            ``iterations=``, ``tol=``) for the whole-graph kernels.

    Returns:
        A :class:`RunSummary`, whose kernel-typed ``result`` implements
        ``validate(graph)`` against a sequential oracle.
    """
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; options: {', '.join(KERNELS)}"
        )
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; options: {', '.join(ENGINES)}"
        )
    if kernel in _NEEDS_SOURCE:
        if source is None:
            raise ValueError(f"kernel {kernel!r} requires a source vertex")
        check_integral_roots(kernel, source)
    elif source is not None:
        raise ValueError(
            f"kernel {kernel!r} is whole-graph; source= does not apply"
        )
    cell = _DISPATCH.get((kernel, engine))
    if cell is None:
        options = ", ".join(e for k, e in _DISPATCH if k == kernel)
        raise ValueError(
            f"kernel {kernel!r} has no {engine!r} engine; options: {options}"
        )
    if kernel in _WEIGHTED:
        check_weights(graph, kernel)
    if engine == "shared":
        _reject_fabric_knobs(machine, faults, sanitize, racecheck, executor, workers)
        result = cell(graph, source, config, tracer, **kernel_kwargs)
        return RunSummary(engine="shared", kernel=kernel, result=result)
    return run_superstep_engine(
        graph,
        cell(graph, source, num_ranks, config, **kernel_kwargs),
        num_ranks=num_ranks,
        machine=machine,
        tracer=tracer,
        faults=faults,
        sanitize=sanitize,
        racecheck=racecheck,
        executor=executor,
        workers=workers,
    )
