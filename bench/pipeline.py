"""The Graph500 pipeline as one closed-loop client, driven from outside.

Generate -> build CSR -> sample roots -> answer roots -> validate each ->
reduce to harmonic-mean TEPS, through public functions only:
``repro.graph.generate_kronecker`` / ``build_csr``,
``repro.graph500.sample_roots`` / ``teps_summary``,
``repro.simmpi.executor.resolve_executor``, ``repro.run`` and the
result's ``lane`` / ``traversed_edges`` / ``validate``.  One process, one
thread: the next root starts when the previous one has validated.

A workload is a list of phases; a phase answers roots one ``repro.run``
call ("unit") at a time — one root per unit in a loop phase, the next
``lanes`` roots of the sample per unit in a sweep phase — until its share
of ``--seconds`` is used up.  The first ``min_units`` units of a phase are
always answered ("counted units"): the modeled-TEPS metric and every count
come from them alone, so they repeat exactly for a seed however fast the
host is.
Wall metrics use every unit and are normalised to the 64 roots of one
Graph500 run.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import resource
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

import repro
from repro.graph import build_csr, generate_kronecker
from repro.graph500 import sample_roots, teps_summary
from repro.simmpi.executor import resolve_executor

from spans import Spans, self_times

GRAPH500_ROOTS = 64
DEFAULT_SEED = 2022
SETUP_PASSES = 3

#: The package module ("layer") that does the work of each kernel's solve.
KERNEL_LAYER = {"sssp": "core", "bfs": "bfs", "sssp_batch": "engine", "bfs64": "engine"}
#: The unique output each kernel is witnessed by (never ``parent``:
#: tie-breaks may legitimately differ between engines).
DIGEST_FIELD = {"sssp": "dist", "sssp_batch": "dist", "bfs": "level", "bfs64": "level"}


@dataclass(frozen=True)
class Phase:
    kernel: str  # repro.run kernel name
    lanes: int  # roots answered per repro.run call: 1 = loop, >1 = sweep
    share: float  # of the measuring time
    min_units: int  # counted units: always answered, whatever the clock says


@dataclass(frozen=True)
class Workload:
    name: str
    scale: int
    ranks: int
    phases: tuple[Phase, ...]
    executor: str | None = None
    workers: int | None = None
    num_roots: int = GRAPH500_ROOTS


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sssp_loop", 16, 16, (Phase("sssp", 1, 1.0, 8),)),
        # Epochs per sweep vary by a tenth with the root set: three sweeps, each on
        # its own 64 of 192 sampled roots, all counted, halve what a seed decides.
        Workload("sssp_batch64", 14, 16, (Phase("sssp_batch", 64, 1.0, 3),), num_roots=3 * 64),
        Workload("bfs_s17", 17, 16, (Phase("bfs", 1, 0.45, 16), Phase("bfs64", 64, 0.55, 1))),
        Workload("sssp_proc2", 16, 16, (Phase("sssp", 1, 1.0, 8),), executor="process", workers=2),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same pipeline at scale 10 / 4 roots: checks plumbing, not speed."""
    phases = tuple(
        dataclasses.replace(p, lanes=min(p.lanes, 4), min_units=4 if p.lanes == 1 else 1)
        for p in workload.phases
    )
    return dataclasses.replace(workload, scale=10, ranks=4, num_roots=4, phases=phases)


def sha256_of(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def build_inputs(spans: Spans, scale: int, seed: int, num_roots: int):
    """One set-up pass; returns ``(graph, roots, generated edge count)``."""
    with spans.span("setup", "bench"):
        with spans.span("generate_kronecker", "graph"):
            edges = generate_kronecker(scale, seed=seed)
        with spans.span("build_csr", "graph"):
            graph = build_csr(edges)
        with spans.span("sample_roots", "graph500"):
            roots = sample_roots(graph, num_roots, seed=seed)
    return graph, roots, edges.num_edges


class RootLoop:
    """Answers roots phase by phase and keeps one record per unit and per root.

    With ``fold_trace`` set, every unit is solved a second time under a
    ``repro.obs.Tracer`` and ``fold_trace(events)`` reduces its records on
    the spot (event lists are large; holding them would slow later units).
    ``expected`` holds the per-root sha256 witnesses, in root order.
    """

    def __init__(self, workload, graph, roots, spans, *, fold_trace=None, expected=None):
        self.workload = workload
        self.graph = graph
        self.roots = roots
        self.spans = spans
        self.fold_trace = fold_trace
        self.expected = expected
        self.units: list[dict] = []
        self.answers: list[dict] = []
        self.errors: list[str] = []
        self.modeled_teps = None  # Summary of the headline roots' modeled TEPS

    def run(self, seconds: float) -> None:
        spans, w = self.spans, self.workload
        with spans.span("root_loop", "bench"):
            with spans.span("executor_open", "simmpi"):
                self.executor, owned = resolve_executor(w.executor, w.workers)
            try:
                start = time.perf_counter()
                share_used = 0.0
                for index, phase in enumerate(w.phases):
                    share_used += phase.share
                    self._run_phase(index, phase, start + seconds * share_used)
            finally:
                with spans.span("executor_close", "simmpi"):
                    if owned:
                        self.executor.close()
            with spans.span("teps_summary", "graph500"):
                # The headline rate is about the first phase, as root_p50_ms is.
                counted = [
                    a for a in self.answers if a["counted"] and a["ok"] and a["phase"] == 0
                ]
                if counted:
                    # Only roots in the largest component reached: one root in a
                    # two-vertex component would set a harmonic mean on its own,
                    # and whether a seed samples one is luck.
                    reach = max(a["traversed"] for a in counted)
                    self.modeled_teps = teps_summary(
                        np.array([a["modeled_teps"] for a in counted if a["traversed"] == reach])
                    )

    def _run_phase(self, index: int, phase: Phase, deadline: float) -> None:
        unit = 0
        last_wall = 0.0
        # A unit starts while at least half of it is expected to fit: long
        # sweeps then end near the deadline on average, not a unit past it.
        while unit < phase.min_units or time.perf_counter() + 0.5 * last_wall < deadline:
            record = {
                "phase": index, "kernel": phase.kernel, "unit": unit,
                "counted": unit < phase.min_units,
            }
            self.units.append(record)
            with self.spans.span("unit", "bench", unit=unit, phase=index) as rec:
                self._answer_unit(phase, record)
                # Garbage of one root must not be collected inside the next solve.
                with self.spans.span("gc", "bench"):
                    gc.collect()
            last_wall = record["wall_s"] = rec["end"] - rec["start"]
            stages: dict[str, float] = {}
            for child in self.spans.records[rec["id"] + 1:]:
                stages[child["name"]] = stages.get(child["name"], 0.0) + child["end"] - child["start"]
            record["stage_s"] = stages
            unit += 1

    def _solve(self, phase: Phase, roots: list[int], name: str, tracer=None):
        source = roots[0] if phase.lanes == 1 else roots
        with self.spans.span(name, KERNEL_LAYER[phase.kernel], root=roots[0]):
            return repro.run(
                self.graph,
                source,
                kernel=phase.kernel,
                engine="dist1d",
                num_ranks=self.workload.ranks,
                executor=self.executor,
                tracer=tracer,
            )

    def _answer_unit(self, phase: Phase, record: dict) -> None:
        spans, graph, unit = self.spans, self.graph, record["unit"]
        if phase.lanes == 1:
            roots = [int(self.roots[unit % len(self.roots)])]
        else:  # sweep after sweep through the sample, ``lanes`` roots at a time
            start = unit % max(1, len(self.roots) // phase.lanes) * phase.lanes
            roots = [int(r) for r in self.roots[start : start + phase.lanes]]
        record["lanes"] = len(roots)
        field = DIGEST_FIELD[phase.kernel]
        run = twin_run = None
        try:
            run = self._solve(phase, roots, "solve")
            record["modeled_s"] = run.modeled_time
            record["comm"] = dict(run.comm)
            record["time_breakdown"] = dict(run.time_breakdown)
            record["counters"] = run.result.counters.as_dict()
            if self.fold_trace is not None:
                from repro.obs import Tracer

                tracer = Tracer()
                tracer.add_meta(
                    engine="dist1d", kernel=phase.kernel, num_ranks=self.workload.ranks
                )
                twin_run = self._solve(phase, roots, "solve_traced", tracer)
                with spans.span("fold_trace", "obs"):
                    record["trace"] = self.fold_trace(tracer.events)
        except Exception as exc:  # the loop must go on: these roots count as failed
            self.errors.append(f"unit {unit} {phase.kernel}: {traceback.format_exc(limit=4)}")
            for lane, root in enumerate(roots):
                self._record(record, lane, root, ok=False, why=repr(exc))
            return
        for lane, root in enumerate(roots):
            ok, why, traversed, teps, digest = False, None, 0, 0.0, None
            try:
                answer, twin = run.result, twin_run and twin_run.result
                if phase.lanes > 1:
                    with spans.span("lane_extract", "engine", root=root):
                        answer = answer.lane(lane)
                with spans.span("validate", "graph500", root=root):
                    report = answer.validate(graph)
                with spans.span("traversed_edges", "graph500", root=root):
                    traversed = answer.traversed_edges(graph)
                    # A sweep lane is charged the amortised share of its sweep,
                    # the harness's own rule (repro.graph500.teps.lane_teps).
                    teps = traversed * len(roots) / run.modeled_time
                with spans.span("digest", "bench", root=root):
                    digest = sha256_of(getattr(answer, field))
                    if twin is not None and phase.lanes > 1:
                        twin = twin.lane(lane)
                    twin_digest = None if twin is None else sha256_of(getattr(twin, field))
                ok, why = self._judge(report, root, digest, twin_digest)
            except Exception as exc:
                self.errors.append(f"unit {unit} root {root}: {traceback.format_exc(limit=4)}")
                why = repr(exc)
            self._record(
                record, lane, root, ok=ok, why=why,
                traversed=traversed, modeled_teps=teps, digest=digest,
            )

    def _judge(self, report, root: int, digest: str, twin_digest: str | None):
        if not report.ok:
            return False, "; ".join(report.failures[:2])
        if self.expected is not None:
            position = int(np.searchsorted(self.roots, root))
            if self.expected[position] != digest:
                return False, f"digest witness mismatch for root {root}"
        if twin_digest is not None and twin_digest != digest:
            return False, f"traced and untraced answers differ for root {root}"
        return True, None

    def _record(self, unit_record, lane, root, *, ok, why,
                traversed=0, modeled_teps=0.0, digest=None):
        self.answers.append({
            "phase": unit_record["phase"], "unit": unit_record["unit"], "lane": lane,
            "root": root, "counted": unit_record["counted"], "ok": ok, "why": why,
            "traversed": traversed, "modeled_teps": modeled_teps, "digest": digest,
        })


#: Stages inside a unit that are the benchmark's own work, not the pipeline's.
OWN_STAGES = ("gc", "digest", "solve_traced", "fold_trace")


def end_to_end(workload: Workload, loop: RootLoop, setup_s: float) -> dict:
    """The end-to-end metrics.  Sums are per 64 answered roots, phase by phase."""
    spans = loop.spans
    solve_s = validate_s = loop_s = 0.0
    for index, phase in enumerate(workload.phases):
        units = [u for u in loop.units if u["phase"] == index]
        per64 = GRAPH500_ROOTS / sum(u["lanes"] for u in units)

        def stage(name, units=units):
            return sum(u["stage_s"].get(name, 0.0) for u in units)

        solve_s += per64 * stage("solve")
        validate_s += per64 * (stage("validate") + stage("lane_extract"))
        loop_s += per64 * (sum(u["wall_s"] for u in units) - sum(map(stage, OWN_STAGES)))
    executor_s = sum(spans.durations("executor_open")) + sum(spans.durations("executor_close"))
    rss_kb = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    samples = first_phase_root_ms(loop)
    return {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "validate_s": validate_s,
        "pipeline_s": setup_s + executor_s + loop_s + sum(spans.durations("teps_summary")),
        "root_p50_ms": statistics.median(samples) if samples else None,
        "modeled_hmean_gteps": loop.modeled_teps.hmean / 1e9 if loop.modeled_teps else None,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def first_phase_root_ms(loop: RootLoop) -> list[float]:
    """Wall per root of the first phase's calls; a sweep's wall over its lanes,
    the harness's own amortisation rule."""
    return [
        u["stage_s"]["solve"] * 1e3 / u["lanes"]
        for u in loop.units if u["phase"] == 0 and "modeled_s" in u
    ]


def accounting(spans: Spans) -> dict:
    """Root-loop wall against the stages inside it; the rest is the driver's own."""
    own = self_times(spans.records)
    loop_wall = sum(spans.durations("root_loop"))
    driver_self = sum(own[r["id"]] for r in spans.records if r["name"] in ("root_loop", "unit"))
    return {
        "root_loop_s": loop_wall,
        "driver_self_s": driver_self,
        "accounted_share": 1.0 - driver_self / loop_wall if loop_wall else 0.0,
    }
