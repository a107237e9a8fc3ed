"""Host wall-clock benchmarks of the simulated engines: one protocol runner.

Most benchmarks in this repository report *modeled* (simulated) time —
the quantity the cost model charges.  These measure the opposite axis:
how long the simulation itself takes on the host.  There is one
measurement pipeline, :func:`run_bench`, fixed so results are comparable
across commits:

* build the scale-``s`` Kronecker graph once (untimed) and write one
  document header;
* per entry: one untimed warm-up / answer pass (numpy caches, permutation
  memoization) that also yields the entry's
  modeled outputs and answer digest; refuse to go on if the digest
  differs from the entry it must agree with; ``gc.collect()``; then time
  ``repeats`` runs with ``time.perf_counter`` and keep the minimum (all
  repeats are embedded);
* record the entry under ``engines[key]`` and, where the protocol names a
  reference entry, ``speedup[key]`` = reference wall / entry wall.

The four protocols are entry lists over that pipeline (:data:`PROTOCOLS`):

``P1`` — every engine once on the serial default, plus a ``tracemalloc``
    peak from a separate traced run (tracing slows execution, so it never
    contaminates the timed runs) and the engines' own ``rank_state``
    accounting (resident per-rank bytes);
``P4`` — the multi-core curve: a serial anchor per engine, then each
    parallel backend at each worker count, digest-equal to the anchor.
    Speedups only mean anything relative to the recorded ``host_cpus``;
``K1`` — the whole-graph kernels (cc, pagerank, kcore) under each
    backend, digests equal across backends;
``B1`` — aggregate root throughput: the harness's root loop
    (:func:`repro.graph500.harness.run_roots`) answering the sampled
    roots one at a time versus in batched sweeps (``bfs64`` /
    ``sssp_batch``), per-lane digests equal to the single-root answers
    (BFS pins levels only: hop distance is unique, parent tie-breaks
    legitimately differ between direction-optimizing and bit-parallel
    claiming — so every lane is also spec-validated in the answer pass).

Entry keys and field names are what ``repro bench diff`` pairs, so every
committed ``BENCH_*.json`` stays diffable against a fresh document.
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
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro import api
from repro.core.adaptive import choose_batch_delta, choose_delta
from repro.graph.csr import CSRGraph, build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph500.harness import run_roots
from repro.graph500.roots import sample_roots
from repro.simmpi.executor import EXECUTOR_BACKENDS, RankExecutor, resolve_executor

__all__ = [
    "run_bench",
    "PROTOCOLS",
    "DEFAULT_ENGINES",
    "DEFAULT_BACKENDS",
    "DEFAULT_KERNELS",
    "DEFAULT_WORKER_COUNTS",
]

DEFAULT_ENGINES = ("dist1d", "dist2d", "bfs")
DEFAULT_BACKENDS = EXECUTOR_BACKENDS
DEFAULT_KERNELS = ("cc", "pagerank", "kcore")
DEFAULT_WORKER_COUNTS = (1, 2, 4)


@dataclass(frozen=True)
class Entry:
    """One row of a protocol: what to time and what it must agree with."""

    key: str
    #: ``run(executor)`` is what gets timed.
    run: Callable[[RankExecutor], Any]
    #: ``answer(executor)`` is the untimed warm-up pass; it returns the
    #: entry's document fields (``result_sha256`` when digest-witnessed).
    answer: Callable[[RankExecutor], dict[str, Any]]
    #: Rank-execution backend (``None``: the engines' serial default).
    backend: str | None = None
    workers: int | None = None
    #: The entry whose ``result_sha256`` this one's must equal.
    same_answer_as: str | None = None
    #: The entry whose wall this one's speedup divides.
    speedup_over: str | None = None
    #: Roots answered per run (B1): adds ``roots_per_sec``.
    roots: int | None = None


def _sha256(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _result_sha256(result: Any) -> str:
    """Digest of the answer arrays — the bit-identity receipt in the doc."""
    for name in ("dist", "labels", "ranks", "coreness"):
        if hasattr(result, name):
            return _sha256(getattr(result, name))
    return _sha256(result.parent, result.level)


def _single_run(
    graph: CSRGraph,
    source: int,
    name: str,
    num_ranks: int,
    key: str,
    *,
    digest: bool = True,
    trace_memory: bool = False,
    **links,
) -> Entry:
    """An entry timing one ``repro.run`` of engine / kernel ``name``."""

    def run(executor: RankExecutor):
        if name == "bfs":
            # Historical doc key: "bfs" names the distributed BFS kernel on
            # the 1-D layout (the facade spells it kernel="bfs").
            return api.run(graph, source, kernel="bfs", num_ranks=num_ranks, executor=executor)
        if name in DEFAULT_KERNELS:
            # Whole-graph kernel rows (the K1 protocol): no source vertex.
            return api.run(graph, kernel=name, num_ranks=num_ranks, executor=executor)
        return api.run(graph, source, engine=name, num_ranks=num_ranks, executor=executor)

    def answer(executor: RankExecutor) -> dict[str, Any]:
        out = run(executor)
        fields: dict[str, Any] = {
            "modeled_time": float(out.modeled_time),
            "total_bytes": int(out.comm.get("total_bytes", 0)),
            "counters": {k: int(v) for k, v in sorted(out.result.counters.as_dict().items())},
            "executor": dict(out.meta["executor"]),
            "rank_state": {k: int(v) for k, v in out.meta["rank_state"].items()},
        }
        if digest:
            fields["result_sha256"] = _result_sha256(out.result)
        if trace_memory:
            tracemalloc.start()
            run(executor)
            _, traced_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            fields["tracemalloc_peak_bytes"] = int(traced_peak)
        return fields

    return Entry(key, run, answer, **links)


def _root_loop(
    graph: CSRGraph,
    roots: np.ndarray,
    kernel: str,
    num_ranks: int,
    key: str,
    batch_roots: int | None,
    **links,
) -> Entry:
    """An entry timing the harness's root loop over the whole sample."""
    # What a lane's digest pins: BFS levels only (see module docstring).
    pinned = {"sssp": ("dist", "parent"), "bfs": ("level",)}[kernel]

    def run(executor: RankExecutor, validate=False):
        return run_roots(
            graph, roots, num_ranks, None, None, validate,
            kernel=kernel, executor=executor, batch_roots=batch_roots,
        )

    def answer(executor: RankExecutor) -> dict[str, Any]:
        # The receipt: sha256 over the per-lane digests in root order.
        receipt = hashlib.sha256()

        def witness(graph, lane):
            receipt.update(_sha256(*(getattr(lane, name) for name in pinned)).encode())
            return lane.validate(graph)

        bad = [r for r in run(executor, witness) if not r.validation.ok]
        if bad:
            raise AssertionError(
                f"{key}: root {bad[0].root} failed validation: "
                f"{bad[0].validation.failures[:3]}"
            )
        return {"result_sha256": receipt.hexdigest()}

    return Entry(key, run, answer, roots=len(roots), **links)


# -- the protocols: each yields its entries and fills in its header ---------


def _p1(graph, doc, *, num_ranks, engines, **_) -> Iterator[Entry]:
    doc["source"] = source = int(np.argmax(graph.out_degree))
    for engine in engines:
        yield _single_run(
            graph, source, engine, num_ranks, engine, digest=False, trace_memory=True
        )


def _p4(graph, doc, *, num_ranks, engines, backends, worker_counts, **_) -> Iterator[Entry]:
    doc["source"] = source = int(np.argmax(graph.out_degree))
    doc.update(worker_counts=list(worker_counts), speedup={})
    for engine in engines:
        anchor = f"{engine}@serial"
        yield _single_run(graph, source, engine, num_ranks, anchor, backend="serial")
        for backend in backends:
            if backend == "serial":
                continue
            for workers in worker_counts:
                yield _single_run(
                    graph, source, engine, num_ranks, f"{engine}@{backend}@w{workers}",
                    backend=backend, workers=workers,
                    same_answer_as=anchor, speedup_over=anchor,
                )


def _k1(graph, doc, *, num_ranks, kernels, backends, workers, **_) -> Iterator[Entry]:
    doc["workers"] = workers
    for kernel in kernels:
        first = None
        for backend in backends:
            key = f"{kernel}@{backend}"
            yield _single_run(
                graph, 0, kernel, num_ranks, key, backend=backend,
                workers=None if backend == "serial" else workers,
                same_answer_as=first,
            )
            first = first or key


def _b1(
    graph, doc, *, num_ranks, backends, workers, num_roots, batch_roots, **_
) -> Iterator[Entry]:
    roots = sample_roots(graph, num_roots, seed=doc["seed"])
    # Each side runs its own ∆ heuristic (recorded here) — the per-lane
    # fixed point is ∆-invariant (digest-asserted), so this compares each
    # engine at its intended operating point, not at a shared compromise ∆.
    doc.update(
        num_roots=num_roots, batch_roots=batch_roots,
        delta=float(choose_delta(graph)), batch_delta=float(choose_batch_delta(graph)),
        workers=workers, speedup={},
    )
    for backend in backends:
        on = dict(backend=backend, workers=None if backend == "serial" else workers)
        for kernel, loop, sweeps in (
            ("bfs", f"bfs_loop@{backend}", f"bfs64@{backend}"),
            ("sssp", f"sssp_loop@{backend}", f"sssp_batch@{backend}"),
        ):
            yield _root_loop(graph, roots, kernel, num_ranks, loop, None, **on)
            yield _root_loop(
                graph, roots, kernel, num_ranks, sweeps, batch_roots,
                same_answer_as=loop, speedup_over=loop, **on,
            )


#: Protocol id -> (document ``benchmark`` name, entry generator).
PROTOCOLS = {
    "P1": ("P1_wallclock", _p1),
    "P4": ("P4_multicore", _p4),
    "K1": ("K1_kernels", _k1),
    "B1": ("B1_batched", _b1),
}


def run_bench(
    protocol: str,
    scale: int,
    num_ranks: int,
    *,
    engines: tuple[str, ...] = DEFAULT_ENGINES,
    kernels: tuple[str, ...] = DEFAULT_KERNELS,
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
    worker_counts: tuple[int, ...] = DEFAULT_WORKER_COUNTS,
    workers: int = 4,
    num_roots: int = 64,
    batch_roots: int = 64,
    repeats: int = 1,
    seed: int = 2022,
) -> dict[str, Any]:
    """Run one benchmark protocol; returns a JSON-ready document.

    ``engines`` is what P1/P4 time, ``kernels`` what K1 times;
    ``backends`` are the rank-execution backends of P4 (the parallel
    ones; serial is always the anchor), K1 and B1; ``worker_counts`` is
    P4's sweep and ``workers`` the pool size of K1/B1's parallel
    backends; ``num_roots``/``batch_roots`` size B1's root sample and
    sweeps.  Every timed entry lands under ``engines[key]``.
    """
    name, entries = PROTOCOLS[protocol]
    graph = build_csr(generate_kronecker(scale, seed=seed))
    doc: dict[str, Any] = {
        "benchmark": name,
        "scale": scale,
        "num_ranks": num_ranks,
        "seed": seed,
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "repeats": repeats,
        # Walls (and above all speedups) only mean anything relative to
        # the host that measured them.
        "host_cpus": os.cpu_count(),
        "engines": {},
    }
    params = dict(
        num_ranks=num_ranks, engines=engines, kernels=kernels, backends=backends,
        worker_counts=worker_counts, workers=workers, num_roots=num_roots,
        batch_roots=batch_roots,
    )
    done = doc["engines"]
    for entry in entries(graph, doc, **params):
        executor, _ = resolve_executor(entry.backend, entry.workers)
        fields = entry.answer(executor)
        same = entry.same_answer_as
        if same is not None and fields["result_sha256"] != done[same]["result_sha256"]:
            # A wrong answer can never report a speedup.
            raise AssertionError(
                f"{entry.key} answer diverged from {same}: "
                f"{fields['result_sha256']} != {done[same]['result_sha256']}"
            )
        wall = []
        for _ in range(max(1, repeats)):
            # Collect between repeats: the answer pass and earlier
            # repeats leave garbage whose collection would otherwise
            # land inside a timed window.
            gc.collect()
            t0 = time.perf_counter()
            entry.run(executor)
            wall.append(time.perf_counter() - t0)
        done[entry.key] = {"wall_seconds": min(wall), "wall_seconds_all": wall, **fields}
        if entry.roots is not None:
            done[entry.key]["roots_per_sec"] = entry.roots / min(wall)
        if entry.speedup_over is not None:
            doc["speedup"][entry.key] = done[entry.speedup_over]["wall_seconds"] / min(wall)
    return doc


def dump_json(doc: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
