"""Graph500 kernel-2 (BFS) benchmark driver.

Mirrors :mod:`repro.graph500.harness` for the BFS kernel: generate, build,
sample 64 roots, run the distributed direction-optimizing BFS per root on
the simulated machine, validate each tree, aggregate harmonic-mean TEPS.

With ``batch_roots=`` the loop becomes bit-parallel multi-source sweeps
on the ``bfs64`` kernel — one uint64 lane per root, so a single sweep
answers up to 64 roots — split back into per-root entries with amortized
lane timing and per-lane tree validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import api
from repro.bfs.validation import validate_bfs
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph500.roots import sample_roots
from repro.graph500.spec import GRAPH500_EDGEFACTOR, GRAPH500_NUM_ROOTS
from repro.graph500.teps import lane_teps, teps_summary
from repro.graph500.validation import ValidationReport
from repro.simmpi.machine import MachineSpec, small_cluster
from repro.utils.bitset import MAX_LANES
from repro.utils.stats import Summary
from repro.utils.timing import Timer

__all__ = ["BFSRootRun", "BFSBenchmarkResult", "run_graph500_bfs"]


@dataclass
class BFSRootRun:
    """Outcome of kernel 2 from one root."""

    root: int
    simulated_seconds: float
    teps: float
    traversed_edges: int
    levels: int
    validation: ValidationReport
    counters: dict[str, int]
    trace: dict[str, float | int]
    #: Batched-sweep provenance (lane of which ``bfs64`` sweep, and the
    #: sweep's total simulated seconds); ``None`` for unbatched runs.
    lane: int | None = None
    batch: int | None = None
    sweep_seconds: float | None = None


@dataclass
class BFSBenchmarkResult:
    """One kernel-2 benchmark invocation."""

    scale: int
    edgefactor: int
    seed: int
    num_ranks: int
    machine_name: str
    direction: str
    num_vertices: int
    num_edges_csr: int
    construction_wall_seconds: float
    roots: list[BFSRootRun] = field(default_factory=list)

    @property
    def teps(self) -> Summary:
        return teps_summary(np.array([r.teps for r in self.roots]))

    @property
    def all_valid(self) -> bool:
        return all(r.validation.ok for r in self.roots)

    def row(self) -> dict[str, object]:
        return {
            "kernel": "BFS",
            "scale": self.scale,
            "ranks": self.num_ranks,
            "direction": self.direction,
            "roots": len(self.roots),
            "hmean_TEPS": self.teps.hmean,
            "valid": self.all_valid,
        }


def run_graph500_bfs(
    scale: int,
    num_ranks: int = 8,
    edgefactor: int = GRAPH500_EDGEFACTOR,
    seed: int = 2022,
    num_roots: int = GRAPH500_NUM_ROOTS,
    machine: MachineSpec | None = None,
    direction: str = "auto",
    validate: bool = True,
    faults: object = None,
    batch_roots: int | None = None,
) -> BFSBenchmarkResult:
    """Run the complete Graph500 BFS benchmark at the given scale.

    ``faults`` injects a deterministic fault schedule into every root's
    fabric (trees are unchanged; TEPS degrade by the modeled retry cost).
    ``batch_roots`` answers the roots in bit-parallel ``bfs64`` sweeps of
    at most that many lanes (<= 64: one uint64 bit per root) instead of
    one direction-optimizing run per root; entries stay per-root with
    amortized lane timing and per-lane validation.
    """
    machine = machine or small_cluster(max(num_ranks, 1))
    build_timer = Timer()
    with build_timer:
        graph = build_csr(generate_kronecker(scale, edgefactor=edgefactor, seed=seed))
    roots = sample_roots(graph, num_roots, seed=seed)
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
        runs = _batched_bfs_runs(
            graph, roots, num_ranks, machine, validate,
            faults=faults, batch_roots=batch_roots,
        )
        return BFSBenchmarkResult(
            scale=scale,
            edgefactor=edgefactor,
            seed=seed,
            num_ranks=num_ranks,
            machine_name=machine.name,
            direction="bfs64",
            num_vertices=graph.num_vertices,
            num_edges_csr=graph.num_edges,
            construction_wall_seconds=build_timer.seconds,
            roots=runs,
        )
    runs: list[BFSRootRun] = []
    for root in roots:
        run = api.run(
            graph,
            int(root),
            kernel="bfs",
            num_ranks=num_ranks,
            machine=machine,
            faults=faults,
            direction=direction,
        )
        traversed = run.result.traversed_edges(graph)
        report = (
            validate_bfs(graph, run.result)
            if validate
            else ValidationReport(ok=True, failures=[])
        )
        runs.append(
            BFSRootRun(
                root=int(root),
                simulated_seconds=run.modeled_time,
                teps=traversed / run.modeled_time,
                traversed_edges=traversed,
                levels=run.result.counters["levels"],
                validation=report,
                counters=run.result.counters.as_dict(),
                trace=run.comm,
            )
        )
    return BFSBenchmarkResult(
        scale=scale,
        edgefactor=edgefactor,
        seed=seed,
        num_ranks=num_ranks,
        machine_name=machine.name,
        direction=direction,
        num_vertices=graph.num_vertices,
        num_edges_csr=graph.num_edges,
        construction_wall_seconds=build_timer.seconds,
        roots=runs,
    )


def _batched_bfs_runs(
    graph,
    roots: np.ndarray,
    num_ranks: int,
    machine: MachineSpec,
    validate: bool,
    *,
    faults: object,
    batch_roots: int,
) -> list[BFSRootRun]:
    """Kernel-2 loop in bit-parallel sweeps: ``bfs64``, split per lane."""
    runs: list[BFSRootRun] = []
    for batch_index in range(0, (len(roots) + batch_roots - 1) // batch_roots):
        chunk = [
            int(r)
            for r in roots[batch_index * batch_roots : (batch_index + 1) * batch_roots]
        ]
        num_lanes = len(chunk)
        run = api.run(
            graph,
            chunk,
            kernel="bfs64",
            num_ranks=num_ranks,
            machine=machine,
            faults=faults,
        )
        sweep_seconds = run.modeled_time
        shared_counters = run.result.counters.as_dict()
        lane_edges = run.result.meta.get("lane_edges_scanned")
        for i, root in enumerate(chunk):
            lane_result = run.result.lane(i)
            traversed = lane_result.traversed_edges(graph)
            report = (
                validate_bfs(graph, lane_result)
                if validate
                else ValidationReport(ok=True, failures=[])
            )
            counters = dict(shared_counters)
            if lane_edges is not None:
                counters["edges_scanned"] = int(lane_edges[i])
            counters["batch_lanes"] = num_lanes
            runs.append(
                BFSRootRun(
                    root=root,
                    simulated_seconds=sweep_seconds / num_lanes,
                    teps=lane_teps(traversed, sweep_seconds, num_lanes),
                    traversed_edges=traversed,
                    levels=lane_result.counters["levels"],
                    validation=report,
                    counters=counters,
                    trace=run.comm,
                    lane=i,
                    batch=batch_index,
                    sweep_seconds=sweep_seconds,
                )
            )
    return runs
