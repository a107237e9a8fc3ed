"""P1 wall-clock / resident-memory benchmark of the simulated engines.

Most benchmarks in this repository report *modeled* (simulated) time —
the quantity the cost model charges.  This one measures the opposite
axis: how long the simulation itself takes on the host, and how much
memory the per-rank state occupies.  It exists to quantify the
owned-local state refactor (P1): per-rank arrays sized by owned vertices
instead of the full vertex set, a compact ghost cache instead of a dense
coalescing filter, and the sort-based scatter-min hot path.

The protocol is fixed so results are comparable across commits:

* build the scale-``s`` Kronecker graph once (untimed),
* run each engine once untimed (warm-up: numpy caches, permutation
  memoization), then time ``repeats`` runs with ``time.perf_counter``
  and take the minimum,
* record ``tracemalloc`` peak for a separate traced run (tracing slows
  execution, so it never contaminates the timed runs), and the engines'
  own ``rank_state`` accounting (resident per-rank bytes).

``check_regression`` implements the CI gate: compare a fresh measurement
against a committed baseline and fail on a wall-clock regression beyond
the tolerance.
"""

# repro-lint: disable-file=obs-manual-timing  (this IS the benchmark
# timer: min-of-repeats perf_counter around whole runs, by protocol —
# tracer spans would add per-run overhead to the quantity under test)

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
import tracemalloc
from typing import Any

import numpy as np

from repro import api
from repro.graph.csr import CSRGraph, build_csr
from repro.graph.kronecker import generate_kronecker
from repro.simmpi.executor import RankExecutor, resolve_executor

__all__ = [
    "bench_engine",
    "run_bench",
    "run_multicore_bench",
    "run_kernel_bench",
    "run_batched_bench",
    "check_regression",
    "DEFAULT_ENGINES",
    "DEFAULT_BACKENDS",
    "DEFAULT_KERNELS",
    "DEFAULT_WORKER_COUNTS",
]

DEFAULT_ENGINES = ("dist1d", "dist2d", "bfs")
DEFAULT_BACKENDS = ("serial", "thread", "process")
DEFAULT_KERNELS = ("cc", "pagerank", "kcore")
DEFAULT_WORKER_COUNTS = (1, 2, 4)


def _run_once(
    graph: CSRGraph,
    source: int,
    engine: str,
    num_ranks: int,
    executor: RankExecutor | None = None,
):
    if engine == "bfs":
        # Historical doc key: "bfs" names the distributed BFS kernel on the
        # 1-D layout (the facade spells it kernel="bfs" since the registry).
        return api.run(
            graph, source, kernel="bfs", num_ranks=num_ranks, executor=executor
        )
    if engine in DEFAULT_KERNELS:
        # Whole-graph kernel rows (the K1 protocol): no source vertex.
        return api.run(graph, kernel=engine, num_ranks=num_ranks, executor=executor)
    return api.run(graph, source, engine=engine, num_ranks=num_ranks, executor=executor)


def _result_sha256(result: Any) -> str:
    """Digest of the answer arrays — the bit-identity receipt in the doc."""
    h = hashlib.sha256()
    if hasattr(result, "dist"):
        h.update(np.ascontiguousarray(result.dist).tobytes())
    elif hasattr(result, "labels"):
        h.update(np.ascontiguousarray(result.labels).tobytes())
    elif hasattr(result, "ranks"):
        h.update(np.ascontiguousarray(result.ranks).tobytes())
    elif hasattr(result, "coreness"):
        h.update(np.ascontiguousarray(result.coreness).tobytes())
    else:
        h.update(np.ascontiguousarray(result.parent).tobytes())
        h.update(np.ascontiguousarray(result.level).tobytes())
    return h.hexdigest()


def bench_engine(
    graph: CSRGraph,
    source: int,
    engine: str,
    num_ranks: int,
    repeats: int = 1,
    executor: str | RankExecutor | None = None,
    workers: int | None = None,
    trace_memory: bool = True,
    digest: bool = False,
) -> dict[str, Any]:
    """Measure one engine: wall seconds, memory peaks, modeled outputs.

    ``executor``/``workers`` select the rank-execution backend; the warm-up
    run also warms the backend's worker pool so pool spin-up never lands in
    a timed repeat.  ``trace_memory=False`` skips the tracemalloc pass (the
    P4/K1 protocols time wall-clock only).  ``digest=True`` adds a sha256 of
    the answer arrays so the document itself witnesses bit-identity.
    """
    exec_obj, owns_executor = resolve_executor(executor, workers)
    try:
        _run_once(graph, source, engine, num_ranks, exec_obj)  # warm-up, untimed
        wall = []
        run = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            run = _run_once(graph, source, engine, num_ranks, exec_obj)
            wall.append(time.perf_counter() - t0)
        out: dict[str, Any] = {
            "wall_seconds": min(wall),
            "wall_seconds_all": wall,
            "modeled_time": float(run.modeled_time),
            "total_bytes": int(run.comm.get("total_bytes", 0)),
            "counters": {
                k: int(v) for k, v in sorted(run.result.counters.as_dict().items())
            },
        }
        if trace_memory:
            tracemalloc.start()
            _run_once(graph, source, engine, num_ranks, exec_obj)
            _, traced_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            out["tracemalloc_peak_bytes"] = int(traced_peak)
        if digest:
            out["result_sha256"] = _result_sha256(run.result)
        executor_meta = run.meta.get("executor")
        if executor_meta is not None:
            out["executor"] = dict(executor_meta)
        rank_state = run.meta.get("rank_state")
        if rank_state is not None:
            out["rank_state"] = {k: int(v) for k, v in rank_state.items()}
        return out
    finally:
        if owns_executor:
            exec_obj.close()


def run_bench(
    scale: int,
    num_ranks: int,
    engines: tuple[str, ...] = DEFAULT_ENGINES,
    repeats: int = 1,
    seed: int = 2022,
) -> dict[str, Any]:
    """Run the P1 benchmark protocol; returns a JSON-ready document."""
    graph = build_csr(generate_kronecker(scale, seed=seed))
    source = int(np.argmax(graph.out_degree))
    doc: dict[str, Any] = {
        "benchmark": "P1_wallclock",
        "scale": scale,
        "num_ranks": num_ranks,
        "seed": seed,
        "source": source,
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "repeats": repeats,
        "engines": {},
    }
    for engine in engines:
        doc["engines"][engine] = bench_engine(
            graph, source, engine, num_ranks, repeats=repeats
        )
    return doc


def run_multicore_bench(
    scale: int,
    num_ranks: int,
    engines: tuple[str, ...] = DEFAULT_ENGINES,
    backends: tuple[str, ...] = ("thread", "process"),
    worker_counts: tuple[int, ...] = DEFAULT_WORKER_COUNTS,
    repeats: int = 5,
    seed: int = 2022,
) -> dict[str, Any]:
    """Run the P4 multi-core scaling protocol; returns a JSON-ready document.

    Fixes the backends (the parallel ones) and sweeps the worker count —
    the speedup *curve* is the deliverable, because a parked-worker
    backend that dispatches cheaply should approach linear until it runs
    out of host cores.  One serial run per engine anchors the curve;
    every parallel entry lands under
    ``engines["{engine}@{backend}@w{n}"]`` (so ``bench diff`` and
    :func:`check_regression` gate the document unchanged) with its
    ``speedup`` = serial wall / entry wall.  Every entry's answer digest
    must equal the serial digest — the sweep refuses to report a speedup
    for a wrong answer.  ``host_cpus`` records how many cores the
    measurement actually had: speedups above it are unattainable, and a
    committed document from a small host says so honestly.
    """
    graph = build_csr(generate_kronecker(scale, seed=seed))
    source = int(np.argmax(graph.out_degree))
    doc: dict[str, Any] = {
        "benchmark": "P4_multicore",
        "scale": scale,
        "num_ranks": num_ranks,
        "seed": seed,
        "source": source,
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "repeats": repeats,
        "worker_counts": list(worker_counts),
        "host_cpus": os.cpu_count(),
        "engines": {},
        "speedup": {},
    }
    for engine in engines:
        serial = bench_engine(
            graph, source, engine, num_ranks, repeats=repeats,
            executor="serial", trace_memory=False, digest=True,
        )
        doc["engines"][f"{engine}@serial"] = serial
        for backend in backends:
            for workers in worker_counts:
                key = f"{engine}@{backend}@w{workers}"
                entry = bench_engine(
                    graph, source, engine, num_ranks, repeats=repeats,
                    executor=backend, workers=workers,
                    trace_memory=False, digest=True,
                )
                if entry["result_sha256"] != serial["result_sha256"]:
                    raise AssertionError(
                        f"{key} answer diverged from serial: "
                        f"{entry['result_sha256']} != {serial['result_sha256']}"
                    )
                doc["engines"][key] = entry
                doc["speedup"][key] = serial["wall_seconds"] / entry["wall_seconds"]
    return doc


def run_kernel_bench(
    scale: int,
    num_ranks: int,
    kernels: tuple[str, ...] = DEFAULT_KERNELS,
    backends: tuple[str, ...] = ("serial", "thread"),
    workers: int = 4,
    repeats: int = 3,
    seed: int = 2022,
) -> dict[str, Any]:
    """Run the K1 vertex-kernel protocol; returns a JSON-ready document.

    Times the whole-graph kernels (cc, pagerank, kcore) on the substrate
    under each rank-execution backend.  Entries land under
    ``engines["{kernel}@{backend}"]`` so :func:`check_regression` and
    ``bench diff`` gate the document unchanged, and each entry carries a
    sha256 digest of the answer arrays — the document witnesses that the
    backends agreed bitwise, not just that they were fast.
    """
    graph = build_csr(generate_kronecker(scale, seed=seed))
    source = int(np.argmax(graph.out_degree))  # unused by whole-graph kernels
    doc: dict[str, Any] = {
        "benchmark": "K1_kernels",
        "scale": scale,
        "num_ranks": num_ranks,
        "seed": seed,
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "repeats": repeats,
        "workers": workers,
        "host_cpus": os.cpu_count(),
        "engines": {},
    }
    for kernel in kernels:
        digests = set()
        for backend in backends:
            entry = bench_engine(
                graph,
                source,
                kernel,
                num_ranks,
                repeats=repeats,
                executor=backend,
                workers=None if backend == "serial" else workers,
                trace_memory=False,
                digest=True,
            )
            doc["engines"][f"{kernel}@{backend}"] = entry
            digests.add(entry["result_sha256"])
        if len(digests) > 1:
            raise AssertionError(
                f"kernel {kernel!r} answers diverged across backends: "
                f"{sorted(digests)}"
            )
    return doc


def _lane_digest_bfs(parent: np.ndarray, level: np.ndarray) -> str:
    """Digest of one BFS lane's level array (levels are the bit-pinned
    quantity: hop distance is unique, parent tie-breaks legitimately
    differ between direction-optimizing and bit-parallel claiming)."""
    del parent  # validated separately; see run_batched_bench docstring
    return hashlib.sha256(np.ascontiguousarray(level).tobytes()).hexdigest()


def _lane_digest_sssp(dist: np.ndarray, parent: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dist).tobytes())
    h.update(np.ascontiguousarray(parent).tobytes())
    return h.hexdigest()


def run_batched_bench(
    scale: int,
    num_ranks: int,
    backends: tuple[str, ...] = ("serial",),
    num_roots: int = 64,
    batch_roots: int = 64,
    workers: int = 4,
    repeats: int = 5,
    seed: int = 2022,
) -> dict[str, Any]:
    """Run the B1 batched multi-source protocol; returns a JSON document.

    The quantity under test is aggregate root throughput: the official
    64-root Graph500 loop answered one root at a time versus the same
    roots answered in batched sweeps (``bfs64`` bit-parallel lanes,
    ``sssp_batch`` distance-matrix ∆-stepping).  Per backend the document
    carries four entries — ``bfs_loop``/``bfs64`` and ``sssp_loop``/
    ``sssp_batch``, keyed ``{name}@{backend}`` so :func:`check_regression`
    and ``bench diff`` gate it unchanged — each with min-of-``repeats``
    wall seconds over the *entire* root sample and the derived
    ``roots_per_sec``.  The ``speedup`` section records aggregate
    throughput ratios (batched / loop).

    Bit-identity is asserted before anything is timed, from one untimed
    answer pass: every ``sssp_batch`` lane's (dist, parent) must digest
    identically to the single-root run from that root, and every
    ``bfs64`` lane's level column must digest identically to the
    single-root BFS levels (hop distance is unique; BFS *parent* trees
    are validated per lane instead of digest-pinned, because
    direction-optimizing and bit-parallel claiming tie-break parents
    differently — both are valid trees).  The shared digest is stored in
    both entries as the receipt.
    """
    from repro.core.adaptive import choose_batch_delta, choose_delta
    from repro.core.config import SSSPConfig

    graph = build_csr(generate_kronecker(scale, seed=seed))
    from repro.graph500.roots import sample_roots

    roots = [int(r) for r in sample_roots(graph, num_roots, seed=seed)]
    chunks = [
        roots[i : i + batch_roots] for i in range(0, len(roots), batch_roots)
    ]
    # Each side runs its own ∆ heuristic — the per-lane fixed point is
    # ∆-invariant (digest-asserted below), so this compares each engine
    # at its intended operating point, not at a shared compromise ∆.
    delta = choose_delta(graph)
    batch_delta = choose_batch_delta(graph)
    config = SSSPConfig(delta=delta)
    doc: dict[str, Any] = {
        "benchmark": "B1_batched",
        "scale": scale,
        "num_ranks": num_ranks,
        "seed": seed,
        "num_roots": num_roots,
        "batch_roots": batch_roots,
        "delta": float(delta),
        "batch_delta": float(batch_delta),
        "repeats": repeats,
        "workers": workers,
        "host_cpus": os.cpu_count(),
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "engines": {},
        "speedup": {},
    }
    for backend in backends:
        exec_obj, owns_executor = resolve_executor(
            backend, None if backend == "serial" else workers
        )
        try:
            kw = dict(num_ranks=num_ranks, executor=exec_obj)

            def bfs_loop():
                return [
                    api.run(graph, r, kernel="bfs", **kw).result for r in roots
                ]

            def bfs_batched():
                return [
                    api.run(graph, c, kernel="bfs64", **kw).result
                    for c in chunks
                ]

            def sssp_loop():
                return [
                    api.run(graph, r, config=config, **kw).result
                    for r in roots
                ]

            def sssp_batched():
                return [
                    api.run(
                        graph, c, kernel="sssp_batch", delta=batch_delta, **kw
                    ).result
                    for c in chunks
                ]

            # Untimed answer pass: digest-assert per-lane bit-identity
            # first, so a wrong answer can never report a speedup.
            bfs_batch_res = bfs_batched()
            bfs_digest = _assert_lanes(
                roots, bfs_loop(), bfs_batch_res, _lane_digest_bfs, "bfs64"
            )
            for res in bfs_batch_res:
                report = res.validate(graph)
                if not report.ok:
                    raise AssertionError(
                        f"bfs64 lane validation failed: {report.failures[:3]}"
                    )
            del bfs_batch_res
            sssp_digest = _assert_lanes(
                roots, sssp_loop(), sssp_batched(), _lane_digest_sssp,
                "sssp_batch",
            )
            pairs = [
                ("bfs_loop", bfs_loop, bfs_digest),
                ("bfs64", bfs_batched, bfs_digest),
                ("sssp_loop", sssp_loop, sssp_digest),
                ("sssp_batch", sssp_batched, sssp_digest),
            ]
            for name, fn, digest in pairs:
                wall = []
                for _ in range(max(1, repeats)):
                    # Collect between repeats (same hygiene for loop and
                    # batched entries): the answer pass and earlier
                    # repeats leave garbage whose collection would
                    # otherwise land inside a timed window.
                    gc.collect()
                    t0 = time.perf_counter()
                    fn()
                    wall.append(time.perf_counter() - t0)
                doc["engines"][f"{name}@{backend}"] = {
                    "wall_seconds": min(wall),
                    "wall_seconds_all": wall,
                    "roots_per_sec": num_roots / min(wall),
                    "result_sha256": digest,
                }
            eng = doc["engines"]
            for batched, loop in (("bfs64", "bfs_loop"), ("sssp_batch", "sssp_loop")):
                doc["speedup"][f"{batched}@{backend}"] = (
                    eng[f"{batched}@{backend}"]["roots_per_sec"]
                    / eng[f"{loop}@{backend}"]["roots_per_sec"]
                )
        finally:
            if owns_executor:
                exec_obj.close()
    return doc


def _assert_lanes(roots, loop_results, batched_results, lane_digest, name) -> str:
    """Assert per-lane digests match the single-root answers; return the
    combined receipt digest (sha256 over the per-lane digests in order)."""
    lanes = [
        (res.lane(i), int(res.roots[i]))
        for res in batched_results
        for i in range(res.num_lanes)
    ]
    if [r for _, r in lanes] != list(roots):
        raise AssertionError(f"{name}: lane roots out of order vs root sample")
    combined = hashlib.sha256()
    for single, (lane, root) in zip(loop_results, lanes):
        if hasattr(lane, "dist"):
            got = lane_digest(lane.dist, lane.parent)
            want = lane_digest(single.dist, single.parent)
        else:
            got = lane_digest(lane.parent, lane.level)
            want = lane_digest(single.parent, single.level)
        if got != want:
            raise AssertionError(
                f"{name}: lane for root {root} diverged from the "
                f"single-root answer: {got} != {want}"
            )
        combined.update(got.encode())
    return combined.hexdigest()


def check_regression(
    current: dict[str, Any],
    baseline: dict[str, Any],
    max_regression: float = 0.30,
) -> list[str]:
    """Compare a fresh run against a committed baseline document.

    Returns a list of failure strings (empty when the gate passes).  Only
    wall-clock is gated — modeled time and byte totals are pinned exactly
    by the equivalence-fixture tests, so a tolerance here would be
    redundant (and weaker).

    A malformed baseline raises :class:`ValueError` naming what is wrong,
    so the CI gate fails with a diagnosis instead of a KeyError — a gate
    that crashes on its own inputs looks like a perf regression.
    """
    engines = baseline.get("engines") if isinstance(baseline, dict) else None
    if not isinstance(engines, dict) or not engines:
        raise ValueError(
            "malformed baseline: expected a benchmark document with a "
            "non-empty 'engines' mapping (generate one with "
            "'repro bench --out <path>')"
        )
    failures: list[str] = []
    for engine, base in engines.items():
        wall = base.get("wall_seconds") if isinstance(base, dict) else None
        if not isinstance(wall, (int, float)) or wall <= 0:
            raise ValueError(
                f"malformed baseline: engines[{engine!r}].wall_seconds must "
                f"be a positive number, got {wall!r}"
            )
        cur = current.get("engines", {}).get(engine)
        if cur is None:
            failures.append(f"{engine}: missing from current run")
            continue
        allowed = base["wall_seconds"] * (1.0 + max_regression)
        if cur["wall_seconds"] > allowed:
            failures.append(
                f"{engine}: wall {cur['wall_seconds']:.3f}s exceeds baseline "
                f"{base['wall_seconds']:.3f}s by more than "
                f"{max_regression:.0%} (allowed {allowed:.3f}s)"
            )
    return failures


def load_json(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(doc: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
