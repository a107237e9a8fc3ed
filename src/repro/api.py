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

Cross-cutting knobs — ``machine``, ``faults``, ``sanitize``, ``tracer``,
``executor``/``workers`` — mean the same thing for every distributed
kernel.  Kernel-specific extras (``grid`` for ``dist2d``, ``direction``
for BFS, ``damping``/``iterations``/``tol`` for PageRank, ...) pass
through as keyword arguments.
"""

from __future__ import annotations

from repro.bfs.dist_bfs import _distributed_bfs
from repro.bfs.kernel import bfs as _shared_bfs
from repro.core.config import SSSPConfig
from repro.core.delta_stepping import _delta_stepping
from repro.core.dist_sssp import _distributed_sssp
from repro.core.twod_engine import _distributed_sssp_2d
from repro.engine.driver import RunSummary
from repro.engine.protocol import run_kernel
from repro.engine.results import CorenessResult, LabelsResult, RanksResult
from repro.engine.validation import check_integral_roots
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer
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


def _reject_fabric_knobs(
    kernel: str, *, machine, faults, sanitize, racecheck, executor, workers
) -> None:
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


# -- per-(kernel, engine) dispatchers ---------------------------------------


def _run_sssp_dist1d(
    graph, source, *, num_ranks, machine, config, faults, tracer, sanitize,
    racecheck, executor, workers, **extra
):
    _reject_extra("sssp", "dist1d", extra)
    return _distributed_sssp(
        graph,
        source,
        num_ranks=num_ranks,
        machine=machine,
        config=config,
        tracer=tracer,
        faults=faults,
        sanitize=sanitize,
        racecheck=racecheck,
        executor=executor,
        workers=workers,
    )


def _run_sssp_dist2d(
    graph, source, *, num_ranks, machine, config, faults, tracer, sanitize,
    racecheck, executor, workers, **extra
):
    grid = extra.pop("grid", None)
    _reject_extra("sssp", "dist2d", extra)
    return _distributed_sssp_2d(
        graph,
        source,
        num_ranks=num_ranks,
        machine=machine,
        grid=grid,
        tracer=tracer,
        config=config,
        faults=faults,
        sanitize=sanitize,
        racecheck=racecheck,
        executor=executor,
        workers=workers,
    )


def _run_sssp_shared(
    graph, source, *, num_ranks, machine, config, faults, tracer, sanitize,
    racecheck, executor, workers, **extra
):
    _reject_fabric_knobs(
        "sssp", machine=machine, faults=faults, sanitize=sanitize,
        racecheck=racecheck, executor=executor, workers=workers,
    )
    max_phases = extra.pop("max_phases", None)
    _reject_extra("sssp", "shared", extra)
    delta = config.delta if config is not None else None
    result = _delta_stepping(
        graph, source, delta=delta, max_phases=max_phases, tracer=tracer
    )
    return RunSummary(engine="shared", kernel="sssp", result=result)


def _run_bfs_dist1d(
    graph, source, *, num_ranks, machine, config, faults, tracer, sanitize,
    racecheck, executor, workers, **extra
):
    _reject_config(
        "bfs", config,
        "pass its own knobs directly (direction=, partition=, "
        "hierarchical=, alpha=, beta=)",
    )
    allowed = {"direction", "alpha", "beta", "partition", "hierarchical"}
    bad = set(extra) - allowed
    if bad:
        _reject_extra("bfs", "dist1d", {k: extra[k] for k in bad})
    return _distributed_bfs(
        graph,
        source,
        num_ranks=num_ranks,
        machine=machine,
        tracer=tracer,
        faults=faults,
        sanitize=sanitize,
        racecheck=racecheck,
        executor=executor,
        workers=workers,
        **extra,
    )


def _run_bfs_shared(
    graph, source, *, num_ranks, machine, config, faults, tracer, sanitize,
    racecheck, executor, workers, **extra
):
    _reject_config("bfs", config, "pass direction=/alpha=/beta= directly")
    _reject_fabric_knobs(
        "bfs", machine=machine, faults=faults, sanitize=sanitize,
        racecheck=racecheck, executor=executor, workers=workers,
    )
    allowed = {"direction", "alpha", "beta"}
    bad = set(extra) - allowed
    if bad:
        _reject_extra("bfs", "shared", {k: extra[k] for k in bad})
    return RunSummary(
        engine="shared", kernel="bfs", result=_shared_bfs(graph, source, **extra)
    )


def _as_roots(kernel: str, source) -> "np.ndarray":
    """Validate a batched kernel's root batch (a sequence of vertex ids)."""
    import numpy as np

    if source is None or np.isscalar(source) or isinstance(source, (int,)):
        raise ValueError(
            f"kernel {kernel!r} is batched multi-source: pass a sequence "
            f"of root vertex ids as source= (e.g. source=[0, 5, 9])"
        )
    roots = np.ascontiguousarray(source, dtype=np.int64).ravel()
    if roots.size == 0:
        raise ValueError(f"kernel {kernel!r} needs at least one root")
    return roots


def _run_bfs64_dist1d(
    graph, source, *, num_ranks, machine, config, faults, tracer, sanitize,
    racecheck, executor, workers, **extra
):
    _reject_config("bfs64", config, "bfs64 takes no tuning knobs")
    partition = extra.pop("partition", "block")
    _reject_extra("bfs64", "dist1d", extra)
    from repro.engine.kernels import BFS64

    return run_kernel(
        graph,
        BFS64(_as_roots("bfs64", source)),
        num_ranks=num_ranks,
        machine=machine,
        partition=partition,
        tracer=tracer,
        faults=faults,
        sanitize=sanitize,
        racecheck=racecheck,
        executor=executor,
        workers=workers,
    )


def _run_sssp_batch_dist1d(
    graph, source, *, num_ranks, machine, config, faults, tracer, sanitize,
    racecheck, executor, workers, **extra
):
    partition = extra.pop("partition", "block")
    delta = extra.pop("delta", None)
    _reject_extra("sssp_batch", "dist1d", extra)
    if delta is None and config is not None and config.delta is not None:
        delta = config.delta
    if delta is None:
        # Sweeps default to the batch heuristic: finer buckets than a
        # single-root run, same per-lane fixed point (∆-invariant).
        from repro.core.adaptive import choose_batch_delta

        delta = choose_batch_delta(graph)
    from repro.engine.kernels import SSSPBatch

    return run_kernel(
        graph,
        SSSPBatch(_as_roots("sssp_batch", source), delta=float(delta)),
        num_ranks=num_ranks,
        machine=machine,
        partition=partition,
        tracer=tracer,
        faults=faults,
        sanitize=sanitize,
        racecheck=racecheck,
        executor=executor,
        workers=workers,
    )


def _make_vertex_dispatch(name: str):
    """Dispatcher for a whole-graph kernel on the vertex-kernel substrate."""

    def _dispatch(
        graph, source, *, num_ranks, machine, config, faults, tracer, sanitize,
        racecheck, executor, workers, **extra
    ):
        _reject_config(
            name, config,
            "kernel parameters pass directly (e.g. partition=, and for "
            "pagerank damping=/iterations=/tol=)",
        )
        partition = extra.pop("partition", "block")
        from repro.engine.kernels import make_kernel

        return run_kernel(
            graph,
            make_kernel(name, **extra),
            num_ranks=num_ranks,
            machine=machine,
            partition=partition,
            tracer=tracer,
            faults=faults,
            sanitize=sanitize,
            racecheck=racecheck,
            executor=executor,
            workers=workers,
        )

    return _dispatch


def _make_oracle_dispatch(name: str):
    """Dispatcher for a whole-graph kernel on the shared (sequential) engine.

    Runs the same oracle ``validate()`` checks against — so a shared run
    is the reference answer with the uniform RunSummary around it (no
    fabric, no cost model: ``modeled_time`` 0.0, ``comm`` empty).
    """

    def _dispatch(
        graph, source, *, num_ranks, machine, config, faults, tracer, sanitize,
        racecheck, executor, workers, **extra
    ):
        _reject_config(name, config, "kernel parameters pass directly")
        _reject_fabric_knobs(
            name, machine=machine, faults=faults, sanitize=sanitize,
            racecheck=racecheck, executor=executor, workers=workers,
        )
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
        return RunSummary(engine="shared", kernel=name, result=result)

    return _dispatch


_DISPATCH = {
    ("sssp", "dist1d"): _run_sssp_dist1d,
    ("sssp", "dist2d"): _run_sssp_dist2d,
    ("sssp", "shared"): _run_sssp_shared,
    ("bfs", "dist1d"): _run_bfs_dist1d,
    ("bfs", "shared"): _run_bfs_shared,
    ("cc", "dist1d"): _make_vertex_dispatch("cc"),
    ("cc", "shared"): _make_oracle_dispatch("cc"),
    ("pagerank", "dist1d"): _make_vertex_dispatch("pagerank"),
    ("pagerank", "shared"): _make_oracle_dispatch("pagerank"),
    ("kcore", "dist1d"): _make_vertex_dispatch("kcore"),
    ("kcore", "shared"): _make_oracle_dispatch("kcore"),
    ("bfs64", "dist1d"): _run_bfs64_dist1d,
    ("sssp_batch", "dist1d"): _run_sssp_batch_dist1d,
}

#: Traversal kernels require ``source=``; whole-graph kernels forbid it.
#: The batched kernels take a *sequence* of roots as ``source=``.
_NEEDS_SOURCE = ("sssp", "bfs", "bfs64", "sssp_batch")


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
            at runtime (lazy-handle arena generations on the process
            backend, shared-array write intervals on the thread backend);
            violations raise
            :class:`~repro.simmpi.racecheck.RaceCheckViolation` and the
            audit summary lands in ``result.meta["racecheck"]``.  Results
            are bit-identical with the flag on.
        executor: rank-execution backend — ``"serial"`` (default, inline),
            ``"thread"``, ``"process"``, or a prebuilt
            :class:`~repro.simmpi.executor.RankExecutor`.  Results are
            bit-identical across backends.
        workers: pool size for a string ``executor`` spec.
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
    dispatch = _DISPATCH.get((kernel, engine))
    if dispatch is None:
        options = ", ".join(e for k, e in _DISPATCH if k == kernel)
        raise ValueError(
            f"kernel {kernel!r} has no {engine!r} engine; options: {options}"
        )
    return dispatch(
        graph,
        source,
        num_ranks=num_ranks,
        machine=machine,
        config=config,
        faults=faults,
        tracer=tracer,
        sanitize=sanitize,
        racecheck=racecheck,
        executor=executor,
        workers=workers,
        **kernel_kwargs,
    )
