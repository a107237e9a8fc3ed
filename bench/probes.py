"""Per-layer probes: hot primitives and the configurations no workload runs.

Two families, both only in a ``--trace 1`` run:

* **primitive probes** time one public primitive of a layer on inputs
  built once, outside the timed region, from the workload's graph and
  seed (minimum of ``REPEATS`` calls);
* **coverage probes** run every kernel family and alternate
  configuration once or twice on a small graph of their own
  (``COVERAGE_SCALE``), so that a path no workload exercises — dist2d,
  the shared engine, cc/pagerank/kcore, the thread backend, faults,
  sanitizer, racecheck — still has a number on every workload.

Every probe imports its target inside its own body and runs under
:func:`run_probes`' guard: when a later change renames or removes the
target, the probe's metrics come out ``None`` with the reason and the
run still succeeds.
"""

from __future__ import annotations

import statistics
import time
from functools import cached_property

import numpy as np

import repro

REPEATS = 20
COVERAGE_SCALE = 12
COVERAGE_RANKS = 16

_PROBES: list[tuple[tuple[str, ...], str, str, object]] = []


def probe(*names: str, layer: str, family: str):
    """Register ``fn(ctx) -> {metric name: value}`` for the named metrics."""

    def register(fn):
        _PROBES.append((names, layer, family, fn))
        return fn

    return register


def run_probes(family: str, ctx, spans, values: dict, reasons: dict) -> None:
    """Run one family's probes, each in its own span, each guarded."""
    for names, layer, fam, fn in _PROBES:
        if fam != family:
            continue
        reason = "probe returned no value"
        with spans.span(fn.__name__, layer):
            try:
                out = fn(ctx)
            except Exception as exc:  # a renamed target must not fail the run
                out = {}
                reason = " ".join(f"{type(exc).__name__}: {exc}".split())
        for name in names:
            values[name] = out.get(name)
            if values[name] is None:
                reasons[name] = reason


def min_seconds(fn, fresh=None, repeats: int = REPEATS) -> float:
    """Fastest of ``repeats`` calls; ``fresh()`` builds each call's arguments untimed."""
    best = float("inf")
    for _ in range(repeats):
        args = fresh() if fresh is not None else ()
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _wall(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


# -- primitive probes, on the workload's graph -----------------------------------


class PrimitiveInputs:
    """Inputs for the primitive probes, from public CSR fields and numpy only."""

    def __init__(self, graph, seed: int, ranks: int, executor: str | None, workers: int | None):
        self.graph = graph
        self.ranks = ranks
        self.executor = executor
        self.workers = workers
        rng = np.random.default_rng(seed)
        n = graph.num_vertices
        self.dist = rng.random(n) * 2.0
        # Degree-biased out-edges, as a frontier expansion produces them:
        # targets and dist[src] + w candidates, tiled to the sizes probed.
        edge = rng.integers(0, graph.num_edges, size=1 << 18)
        src = np.searchsorted(graph.indptr, edge, side="right") - 1
        self.targets = graph.adj[edge].astype(np.int64)
        self.candidates = self.dist[src] + graph.weight[edge]
        candidates = np.flatnonzero(graph.out_degree > 0)
        self.frontier = {
            f: np.sort(rng.choice(candidates, size=min(f, candidates.size), replace=False))
            for f in (64, 4096)
        }
        self.keys = rng.integers(0, n, size=1 << 18)
        self.hubs = np.sort(np.argsort(graph.out_degree)[-64:]).astype(np.int64)
        self.hub_dists = rng.random(self.hubs.size)

    @cached_property
    def partition(self):
        from repro.partition import block1d_edge_balanced

        return block1d_edge_balanced(self.graph, self.ranks)


@probe("core.scatter_min_us.n64", "core.scatter_min_us.n4096", "core.scatter_min_us.n262144",
       layer="core", family="primitive")
def scatter_min_sizes(ctx):
    from repro.core.relaxation import scatter_min

    out = {}
    for n in (64, 4096, 262144):
        targets, candidates = ctx.targets[:n], ctx.candidates[:n]
        seconds = min_seconds(
            lambda dist: scatter_min(dist, targets, candidates), fresh=lambda: (ctx.dist.copy(),)
        )
        out[f"core.scatter_min_us.n{n}"] = seconds * 1e6
    return out


@probe("core.frontier_edges_us.f64", "core.frontier_edges_us.f4096",
       layer="core", family="primitive")
def frontier_edges_sizes(ctx):
    from repro.core.relaxation import frontier_edges

    return {
        f"core.frontier_edges_us.f{f}":
            min_seconds(lambda: frontier_edges(ctx.graph, frontier)) * 1e6
        for f, frontier in ctx.frontier.items()
    }


@probe("core.dedup_min_us.n4096", layer="core", family="primitive")
def dedup_min_4096(ctx):
    from repro.core.coalescing import dedup_min

    targets, candidates = ctx.targets[:4096], ctx.candidates[:4096]
    return {"core.dedup_min_us.n4096": min_seconds(lambda: dedup_min(targets, candidates)) * 1e6}


@probe("core.ghost_coalesce_us.n4096", layer="core", family="primitive")
def ghost_coalesce_4096(ctx):
    from repro.core.ghost_cache import GhostMinCache

    keys, values = ctx.targets[:4096], ctx.candidates[:4096]

    def half_full():
        cache = GhostMinCache(key_dtype=np.uint32)
        cache.update_min(keys[::2], values[::2] + 0.5)
        return (cache,)

    seconds = min_seconds(lambda cache: cache.coalesce_batch(keys, values), fresh=half_full)
    return {"core.ghost_coalesce_us.n4096": seconds * 1e6}


@probe("core.bucket_insert_us.n4096", "core.bucket_drain_us.n4096",
       layer="core", family="primitive")
def bucket_queue_4096(ctx):
    from repro.core.buckets import BucketQueue

    vertices = np.unique(ctx.targets[:8192])[:4096]

    def drain_all(queue):
        while (k := queue.min_bucket()) is not None:
            queue.drain(k)

    def filled():
        queue = BucketQueue(ctx.dist, 0.25)
        queue.insert(vertices)
        return (queue,)

    insert = min_seconds(
        lambda queue: queue.insert(vertices), fresh=lambda: (BucketQueue(ctx.dist, 0.25),)
    )
    return {
        "core.bucket_insert_us.n4096": insert * 1e6,
        "core.bucket_drain_us.n4096": min_seconds(drain_all, fresh=filled) * 1e6,
    }


@probe("core.delegate_expand_us.h64", layer="core", family="primitive")
def delegate_expand_64(ctx):
    from repro.core.delegation import DelegateTable

    table = DelegateTable.build(ctx.graph, ctx.hubs, 0, ctx.ranks)
    seconds = min_seconds(lambda: table.expand(ctx.hubs, ctx.hub_dists))
    return {"core.delegate_expand_us.h64": seconds * 1e6}


@probe("graph.extract_rows_ms", layer="graph", family="primitive")
def extract_rows_one_rank(ctx):
    rows = ctx.partition.vertices_of(0)
    return {"graph.extract_rows_ms": min_seconds(lambda: ctx.graph.extract_rows(rows)) * 1e3}


@probe("partition.build_ms", "partition.owner_of_ns_per_key", "partition.edge_imbalance",
       layer="partition", family="primitive")
def partition_1d(ctx):
    from repro.partition import block1d_edge_balanced, evaluate_partition

    build = min_seconds(lambda: block1d_edge_balanced(ctx.graph, ctx.ranks))
    owner_of = min_seconds(lambda: ctx.partition.owner_of(ctx.keys))
    return {
        "partition.build_ms": build * 1e3,
        "partition.owner_of_ns_per_key": owner_of * 1e9 / ctx.keys.size,
        "partition.edge_imbalance": evaluate_partition(ctx.graph, ctx.partition).edge_imbalance,
    }


@probe("simmpi.fabric_exchange_us.p16", layer="simmpi", family="primitive")
def fabric_all_to_all(ctx):
    from repro.simmpi import small_cluster
    from repro.simmpi.fabric import Fabric, Message

    ranks = 16
    fabric = Fabric(small_cluster(ranks), ranks)
    payload = np.zeros(128, dtype=np.float64)  # 1 KiB per message
    outboxes = [{dst: Message(data=payload) for dst in range(ranks)} for _ in range(ranks)]
    return {"simmpi.fabric_exchange_us.p16": min_seconds(lambda: fabric.exchange(outboxes)) * 1e6}


class _IdleRank:
    def ping(self):
        return 0


@probe("simmpi.team_call_us", layer="simmpi", family="primitive")
def team_round_trip(ctx):
    from repro.simmpi.executor import resolve_executor

    executor, owned = resolve_executor(ctx.executor, ctx.workers)
    try:
        team = executor.team([_IdleRank() for _ in range(ctx.ranks)])
        try:
            seconds = min_seconds(lambda: team.call("ping", parallel=True))
        finally:
            team.close()
    finally:
        if owned:
            executor.close()
    return {"simmpi.team_call_us": seconds * 1e6}


# -- coverage probes, on a small graph of their own ------------------------------------


class Coverage:
    """The coverage graph, its roots, and the plain dist1d roots other probes divide by."""

    def __init__(self, seed: int, scale: int, cpus: int):
        from repro.graph import build_csr, generate_kronecker
        from repro.graph500 import sample_roots

        self.seed = seed
        self.scale = scale
        self.cpus = cpus
        self.graph = build_csr(generate_kronecker(scale, seed=seed))
        self.roots = [int(r) for r in sample_roots(self.graph, 64, seed=seed)]

    def solve(self, roots, **options):
        """``[(wall seconds, run)]``, one ``repro.run`` per root."""
        options.setdefault("num_ranks", COVERAGE_RANKS)
        return [_wall(lambda: repro.run(self.graph, root, **options)) for root in roots]

    @cached_property
    def plain(self):
        return self.solve(self.roots[:2])

    def overhead(self, baseline=None, **options) -> float:
        """Median wall with ``options`` over the median of the same roots without."""
        baseline = baseline or self.plain
        walls = [wall for wall, _ in self.solve(self.roots[:2], **options)]
        return statistics.median(walls) / statistics.median(w for w, _ in baseline)


def _median_ms(timed) -> float:
    return statistics.median(wall for wall, _ in timed) * 1e3


def _counter(timed, key: str) -> int:
    return sum(run.result.counters.as_dict()[key] for _, run in timed)


@probe("core.edges_relaxed", "core.epochs", "core.light_supersteps", "core.ns_per_edge_relaxed",
       layer="core", family="coverage")
def sssp_dist1d(cov):
    edges = _counter(cov.plain, "edges_relaxed")
    return {
        "core.edges_relaxed": edges,
        "core.epochs": _counter(cov.plain, "epochs"),
        "core.light_supersteps": _counter(cov.plain, "light_supersteps"),
        "core.ns_per_edge_relaxed": sum(wall for wall, _ in cov.plain) * 1e9 / edges,
    }


@probe("core.dist2d_root_ms", "core.shared_root_ms", "core.dist_over_shared",
       layer="core", family="coverage")
def sssp_other_engines(cov):
    roots = cov.roots[:2]
    shared = [_wall(lambda: repro.run(cov.graph, root, engine="shared")) for root in roots]
    return {
        "core.dist2d_root_ms": _median_ms(cov.solve(roots, engine="dist2d")),
        "core.shared_root_ms": _median_ms(shared),
        "core.dist_over_shared": _median_ms(cov.plain) / _median_ms(shared),
    }


@probe("bfs.loop_root_p50_ms", "bfs.edges_inspected", "bfs.levels_bottom_up_share",
       "bfs.shared_root_ms", layer="bfs", family="coverage")
def bfs_engines(cov):
    roots = cov.roots[:4]
    loop = cov.solve(roots, kernel="bfs")
    shared = [
        _wall(lambda: repro.run(cov.graph, root, kernel="bfs", engine="shared")) for root in roots
    ]
    return {
        "bfs.loop_root_p50_ms": _median_ms(loop),
        "bfs.edges_inspected": _counter(loop, "edges_inspected"),
        "bfs.levels_bottom_up_share": _counter(loop, "levels_bottom_up") / _counter(loop, "levels"),
        "bfs.shared_root_ms": _median_ms(shared),
    }


@probe("engine.sweep_s.sssp_batch", "engine.epochs", "engine.edges_scanned",
       "engine.ns_per_lane_edge", layer="engine", family="coverage")
def sssp_batch_sweep(cov):
    wall, run = _wall(
        lambda: repro.run(cov.graph, cov.roots[:8], kernel="sssp_batch", num_ranks=COVERAGE_RANKS)
    )
    counters = run.result.counters.as_dict()
    return {
        "engine.sweep_s.sssp_batch": wall,
        "engine.epochs": counters["epochs"],
        "engine.edges_scanned": counters["edges_scanned"],
        "engine.ns_per_lane_edge": wall * 1e9 / sum(run.result.meta["lane_edges_scanned"]),
    }


@probe("engine.sweep_s.bfs64", "engine.lane_extract_ms", layer="engine", family="coverage")
def bfs64_sweep(cov):
    wall, run = _wall(
        lambda: repro.run(cov.graph, cov.roots, kernel="bfs64", num_ranks=COVERAGE_RANKS)
    )
    return {
        "engine.sweep_s.bfs64": wall,
        "engine.lane_extract_ms": min_seconds(lambda: run.result.lane(0)) * 1e3,
    }


@probe("engine.kernel_s.cc", "engine.kernel_s.pagerank", "engine.kernel_s.kcore",
       layer="engine", family="coverage")
def whole_graph_kernels(cov):
    return {
        f"engine.kernel_s.{kernel}":
            _wall(lambda: repro.run(cov.graph, kernel=kernel, num_ranks=COVERAGE_RANKS))[0]
        for kernel in ("cc", "pagerank", "kcore")
    }


@probe("simmpi.faults_overhead", "simmpi.sanitize_overhead", "simmpi.racecheck_overhead",
       layer="simmpi", family="coverage")
def checking_modes(cov):
    threads = {"executor": "thread", "workers": 2}
    return {
        "simmpi.faults_overhead": cov.overhead(faults="drop=0.01,delay=2us,seed=7"),
        "simmpi.sanitize_overhead": cov.overhead(sanitize=True),
        # Racecheck audits the parallel backends only; its base is the thread backend.
        "simmpi.racecheck_overhead": cov.overhead(
            baseline=cov.solve(cov.roots[:2], **threads), racecheck=True, **threads
        ),
    }


@probe("simmpi.speedup_vs_serial", layer="simmpi", family="coverage")
def process_backend(cov):
    from repro.simmpi.executor import resolve_executor

    if cov.cpus < 2:
        raise RuntimeError(f"needs 2 CPUs for 2 workers, host has {cov.cpus}")
    executor, _ = resolve_executor("process", 2)
    try:
        return {"simmpi.speedup_vs_serial": 1.0 / cov.overhead(executor=executor)}
    finally:
        executor.close()


@probe("graph.dist_build_s", layer="graph", family="coverage")
def distributed_build(cov):
    from repro.graph import KroneckerSpec, distributed_construction

    spec = KroneckerSpec(scale=cov.scale, seed=cov.seed)
    return {
        "graph.dist_build_s":
            _wall(lambda: distributed_construction(spec, num_ranks=COVERAGE_RANKS))[0]
    }
