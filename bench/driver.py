"""One benchmark run: warm up, set up, answer roots, measure, report.

``run_workload`` returns the run's whole document; ``result_line`` cuts it
down to the one JSON object the benchmark contract asks for.  The metric
names and units are read from ``BENCHMARK.json`` so they are declared
once.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import platform
import statistics
from pathlib import Path

import numpy as np

import layers
import probes
from pipeline import (
    DEFAULT_SEED,
    SETUP_PASSES,
    RootLoop,
    Workload,
    accounting,
    build_inputs,
    end_to_end,
    first_phase_root_ms,
    smoke,
)
from spans import Spans, self_time_by_layer

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
DIGESTS_PATH = BENCH_DIR / "expected_digests.json"
SCHEMA = "graph500-pipeline-bench/v1"


def declared_metrics() -> dict:
    """``{"end_to_end": {name: spec}, "per_layer": {name: spec}}`` from BENCHMARK.json."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {kind: {m["name"]: m for m in doc[kind]} for kind in ("end_to_end", "per_layer")}


def expected_digests(workload: Workload, seed: int) -> list[str] | None:
    """Per-root witnesses exist for the full-size workloads at the default seed only."""
    if seed != DEFAULT_SEED or not DIGESTS_PATH.exists():
        return None
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(_digest_key(workload))


def _digest_key(workload: Workload) -> str:
    return f"{workload.name}@scale{workload.scale}"


def host_cpus() -> int:
    return len(os.sched_getaffinity(0))


def steal_ticks() -> int:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def git_revision() -> str | None:
    """HEAD of the checkout, read from ``.git`` by hand (no subprocess); None outside git."""
    try:
        head = (REPO_ROOT / ".git" / "HEAD").read_text(encoding="ascii").strip()
        if head.startswith("ref: "):
            head = (REPO_ROOT / ".git" / head[5:]).read_text(encoding="ascii").strip()
        return head
    except OSError:
        return None


def run_workload(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    traced: bool,
    import_s: float = 0.0,
    expected: list[str] | None = None,
    coverage_scale: int = probes.COVERAGE_SCALE,
) -> dict:
    cpus = host_cpus()
    if workload.workers is not None and workload.workers > cpus:
        raise ValueError(
            f"workload {workload.name} needs {workload.workers} workers, host has {cpus} CPUs"
        )
    steal_before = steal_ticks()
    spans = Spans(f"{workload.name}-seed{seed}-trace{int(traced)}")

    # One untimed pass of the workload's own kernels, engine and backend at
    # a small scale: imports, lazy set-up and allocator warm-up happen here.
    warm = smoke(workload)
    warm_spans = Spans("warmup")
    warm_graph, warm_roots, _ = build_inputs(warm_spans, warm.scale, seed, warm.num_roots)
    RootLoop(warm, warm_graph, warm_roots, warm_spans).run(0.0)
    del warm_graph, warm_roots, warm_spans

    # Set-up several times, each pass on its own seed so nothing cached by
    # the generator is reused.  The workload's own pass comes last and the
    # others are dropped at once: never two graphs alive, as in one pipeline.
    for extra in range(0 if traced else SETUP_PASSES - 1, -1, -1):
        graph = roots = None
        graph, roots, generated_edges = build_inputs(
            spans, workload.scale, seed + extra, workload.num_roots
        )
    setup_passes = spans.durations("setup")
    gc.collect()

    loop = RootLoop(
        workload, graph, roots, spans,
        fold_trace=layers.fold_trace if traced else None, expected=expected,
    )
    # A traced run spends the other half of its time on probes.
    loop.run(seconds * (0.5 if traced else 1.0))
    e2e = end_to_end(workload, loop, statistics.median(setup_passes))
    account = accounting(spans)

    values: dict = dict(e2e)
    reasons: dict = {}
    if traced:
        try:
            layer_values, reasons = layers.workload_layers(
                loop, spans, graph, e2e, account, import_s
            )
        except Exception as exc:  # layer detail must not fail a run whose answers are right
            layer_values, reasons = {}, {"*": f"{type(exc).__name__}: {exc}"}
        values.update(layer_values)
        primitives = probes.PrimitiveInputs(
            graph, seed, workload.ranks, workload.executor, workload.workers
        )
        probes.run_probes("primitive", primitives, spans, values, reasons)
        with spans.span("coverage_setup", "bench"):
            coverage = probes.Coverage(seed, coverage_scale, cpus)
        probes.run_probes("coverage", coverage, spans, values, reasons)

    failed = [a for a in loop.answers if not a["ok"]]
    solved = [u for u in loop.units if "modeled_s" in u]
    return {
        "schema": SCHEMA,
        "workload": workload.name,
        "scale": workload.scale,
        "ranks": workload.ranks,
        "executor": workload.executor or "serial",
        "workers": workload.workers or 1,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "host": {
            "host_cpus": cpus,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_revision": git_revision(),
            "steal_ticks": steal_ticks() - steal_before,
        },
        "graph": {
            "vertices": graph.num_vertices,
            "generated_edges": generated_edges,
            "csr_edges": graph.num_edges,
        },
        "roots_attempted": len(loop.answers),
        "roots_failed": len(failed),
        "failures": [f"root {a['root']}: {a['why']}" for a in failed][:8] + loop.errors[:4],
        "units": len(loop.units),
        "counted_units": sum(u["counted"] for u in loop.units),
        "root_ms_samples": len(first_phase_root_ms(loop)),
        "digests_checked": expected is not None,
        "digests": [a["digest"] for a in loop.answers if a["counted"]],
        "values": values,
        "null_reasons": reasons,
        "accounting": account,
        "repeats": {
            "setup_s": setup_passes,
            "solve_s": [u["stage_s"]["solve"] for u in solved],
            "validate_s": [
                u["stage_s"].get("validate", 0.0) + u["stage_s"].get("lane_extract", 0.0)
                for u in solved
            ],
        },
        "layer_self_s": self_time_by_layer(spans.records) if traced else None,
        "spans": spans.records if traced else None,
    }


def result_line(doc: dict, declared: dict) -> dict:
    """The contract's result: the declared metrics of this kind of run, nothing else."""
    kind = "per_layer" if doc["trace"] else "end_to_end"
    metrics = {
        name: {"value": doc["values"].get(name), "unit": spec["unit"]}
        for name, spec in declared[kind].items()
    }
    complete = all(m["value"] is not None for m in metrics.values())
    return {
        "correct": doc["roots_failed"] == 0 and (complete or bool(doc["trace"])),
        "attempted": doc["roots_attempted"],
        "failed": doc["roots_failed"],
        "metrics": metrics,
    }


def render(doc: dict, declared: dict) -> str:
    """Every metric by name with its unit, and what a reader needs to trust them."""
    host = doc["host"]
    lines = [
        f"workload {doc['workload']}: scale {doc['scale']}, {doc['ranks']} ranks, "
        f"{doc['executor']} x{doc['workers']}, seed {doc['seed']}, "
        f"{doc['seconds']:g} s, trace {doc['trace']}",
        f"host_cpus {host['host_cpus']}  python {host['python']}  numpy {host['numpy']}  "
        f"git {host['git_revision']}  steal_ticks {host['steal_ticks']}",
        f"roots_attempted {doc['roots_attempted']}  roots_failed {doc['roots_failed']}  "
        f"units {doc['units']} ({doc['counted_units']} counted)  "
        f"root_p50_ms over n = {doc['root_ms_samples']}  "
        f"digest witnesses {'checked' if doc['digests_checked'] else 'not applicable'}",
    ]
    lines += [f"  FAILED {failure}" for failure in doc["failures"]]
    account = doc["accounting"]
    lines.append(
        f"root loop {account['root_loop_s']:.3f} s, stages account for "
        f"{100 * account['accounted_share']:.2f} %, driver self {account['driver_self_s']:.4f} s"
    )
    for kind in ("end_to_end", "per_layer"):
        if kind == "per_layer" and not doc["trace"]:
            continue
        lines.append(f"{kind}:")
        for name, spec in declared[kind].items():
            value = doc["values"].get(name)
            if value is None:
                shown = f"null ({doc['null_reasons'].get(name) or doc['null_reasons'].get('*')})"
            else:
                shown = str(value) if isinstance(value, int) else f"{value:.6g}"
            lines.append(f"  {name:<34} {shown} {spec['unit']}")
    extras = {n: v for n, v in doc["values"].items()
              if n not in declared["end_to_end"] and n not in declared["per_layer"]}
    if extras:
        lines.append("not declared in BENCHMARK.json:")
        lines += [f"  {name:<34} {value:.6g}" for name, value in extras.items()]
    if doc["layer_self_s"]:
        lines.append("self time by layer (driver spans):")
        for layer, seconds in sorted(doc["layer_self_s"].items(), key=lambda kv: -kv[1]):
            lines.append(f"  {layer:<12} {seconds:.4f} s")
    return "\n".join(lines)


def write_spans(doc: dict, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{doc['workload']}.spans.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for record in doc["spans"]:
            fh.write(json.dumps(record) + "\n")
    return path


def append_run(doc: dict, path: Path) -> None:
    """Add the run to the set of runs in ``path`` (``--compare`` reads such sets)."""
    runs = []
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
    kept = {key: value for key, value in doc.items() if key != "spans"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": SCHEMA, "runs": runs + [kept]}, fh, indent=1)
        fh.write("\n")


def update_digests(workloads: list[Workload]) -> None:
    """Answer all 64 roots of each workload at the default seed and store their sha256."""
    stored = {}
    if DIGESTS_PATH.exists():
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            stored = json.load(fh)
    for workload in workloads:
        every_root = dataclasses.replace(workload, phases=tuple(
            dataclasses.replace(p, min_units=-(-workload.num_roots // p.lanes))
            for p in workload.phases
        ))
        spans = Spans("update-digests")
        graph, roots, _ = build_inputs(spans, workload.scale, DEFAULT_SEED, workload.num_roots)
        loop = RootLoop(every_root, graph, roots, spans)
        loop.run(0.0)
        by_root: dict[int, str] = {}
        for answer in loop.answers:
            if not answer["ok"] or by_root.setdefault(answer["root"], answer["digest"]) != answer["digest"]:
                raise RuntimeError(f"{workload.name}: root {answer['root']} is not a witness")
        stored[_digest_key(workload)] = [by_root[int(r)] for r in roots]
        print(f"{workload.name}: {len(roots)} witnesses")
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
