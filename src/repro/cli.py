"""Command-line interface: ``python -m repro <command>``.

Mirrors the real benchmark driver's workflow:

* ``run``      — the full Graph500 protocol, official output block
                 (``--kernel sssp`` / ``--kernel bfs``: the same root loop);
                 ``--trace-out/--report-out/--chrome-out`` persist the run's
                 telemetry (JSONL stream, per-superstep report, Perfetto);
* ``inspect``  — summarize a saved ``--trace-out`` JSONL telemetry file;
* ``experiment`` — regenerate one table or figure of the reconstructed
  evaluation (``T1``-``T3``, ``F1``-``F11``, ``E1``-``E3``, or ``all``) as a
  JSON document and check its expected shape (``--smoke``: the seconds-long
  profile, unchecked); other parameters are Python calls, see
  :mod:`repro.analysis.studies`;
* ``profile``  — run one engine under full instrumentation; print the
  compute/barrier/dispatch/transport/serialization attribution table and
  the ranked bottleneck diagnosis (``--out`` writes the
  ``repro-profile-report/v1`` document);
* ``bench``    — one host wall-clock protocol (``--protocol P1|P4|K1|B1``);
  ``bench diff`` compares two BENCH_*.json documents (or profile
  reports) with per-engine deltas and a regression threshold;
* ``lint``     — the codebase-specific static analyzer (index-space,
  determinism, and dtype rule packs; see :mod:`repro.lint`).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.simmpi.executor import EXECUTOR_BACKENDS

__all__ = ["main"]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=int, default=13, help="log2 of the vertex count")
    p.add_argument("--ranks", type=int, default=8, help="simulated ranks (nodes)")
    p.add_argument("--seed", type=int, default=2022)


def _add_executor(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--executor",
        choices=EXECUTOR_BACKENDS,
        default="serial",
        help=(
            "rank-execution backend for per-rank compute phases (results "
            "are bit-identical across backends)"
        ),
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker pool size for --executor thread/process "
            "(default: the host CPU count)"
        ),
    )


def _parse_faults_arg(text: str | None):
    """Parse ``--faults`` early so a typo fails before the benchmark runs."""
    if not text:
        return None
    from repro.simmpi.faults import parse_faults

    try:
        return parse_faults(text)
    except ValueError as exc:
        raise SystemExit(f"repro: invalid --faults {text!r}: {exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    if args.kernel not in ("sssp", "bfs"):
        if args.batch_roots is not None:
            raise SystemExit(
                f"repro run: --batch-roots applies to the multi-source "
                f"kernels (sssp/bfs), not --kernel {args.kernel}"
            )
        return _run_kernel_smoke(args)
    from repro.core.config import SSSPConfig
    from repro.graph500.harness import run_graph500_bfs, run_graph500_sssp
    from repro.graph500.report import render_output_block

    if args.kernel == "sssp":
        config = SSSPConfig.baseline() if args.baseline else SSSPConfig.optimized()
        harness, kernel_opts = run_graph500_sssp, {"config": config, "engine": args.engine}
    elif args.baseline or args.engine != "dist1d":
        raise SystemExit("repro run: --baseline/--engine apply to --kernel sssp, not bfs")
    else:
        harness, kernel_opts = run_graph500_bfs, {}
    faults = _parse_faults_arg(args.faults)
    tracer = None
    tracing = args.trace_out or args.report_out or args.chrome_out
    if tracing:
        from repro.obs import JsonlSink, Tracer

        sinks = [JsonlSink(args.trace_out)] if args.trace_out else []
        tracer = Tracer(sinks=sinks)
        tracer.add_meta(command="run", baseline=bool(args.baseline))
        if faults is not None:
            tracer.add_meta(faults=faults.describe())
    racecheck = args.racecheck or bool(args.racecheck_out)
    result = harness(
        scale=args.scale,
        num_ranks=args.ranks,
        num_roots=args.roots,
        seed=args.seed,
        tracer=tracer,
        faults=faults,
        sanitize=args.sanitize,
        racecheck=racecheck,
        executor=args.executor,
        workers=args.workers,
        batch_roots=args.batch_roots,
        **kernel_opts,
    )
    print(render_output_block(result))
    if faults is not None:
        retry = result.totals("bytes_retransmitted")
        drops = result.totals("messages_dropped")
        stalls = result.totals("rank_stalls")
        print(
            f"faults: {faults.describe()} -> {drops} drops, "
            f"{retry} bytes retransmitted, {stalls} stalls (answers validated)"
        )
    if args.sanitize:
        print(
            f"sanitizer: {len(result.roots)} root run(s) audited, 0 "
            f"violations (schema matching, conservation, progress)"
        )
    if racecheck:
        minted = sum((r.racecheck or {}).get("handles_minted", 0) for r in result.roots)
        regions = sum((r.racecheck or {}).get("regions_checked", 0) for r in result.roots)
        print(
            f"racecheck: {len(result.roots)} root run(s) audited, 0 "
            f"violations ({minted} wire handles, {regions} parallel regions)"
        )
    if args.racecheck_out:
        import json

        doc = {
            "schema": "repro-racecheck-audit/v1",
            "scale": args.scale,
            "ranks": args.ranks,
            "executor": args.executor,
            "workers": args.workers,
            "roots": [
                {"root": r.root, "report": r.racecheck} for r in result.roots
            ],
            "violations": 0,
        }
        with open(args.racecheck_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"racecheck audit: {args.racecheck_out} (schema {doc['schema']})")
    if tracer is not None:
        tracer.close()
        if args.trace_out:
            print(f"trace: {args.trace_out} ({len(tracer.events)} records)")
        if args.chrome_out:
            from repro.obs import write_chrome_trace

            write_chrome_trace(tracer.events, args.chrome_out)
            print(f"chrome trace: {args.chrome_out} (open in chrome://tracing or Perfetto)")
        if args.report_out:
            import json

            from repro.obs import RunReport

            report = RunReport.from_events(tracer.events)
            with open(args.report_out, "w", encoding="utf-8") as fh:
                json.dump(report.to_dict(), fh, indent=2)
            totals = report.totals()
            print(
                f"report: {args.report_out} ({totals['supersteps']} supersteps, "
                f"{totals['total_bytes']} wire bytes)"
            )
    return 0 if result.all_valid else 1


def _cmd_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.obs import RunReport

    try:
        report = RunReport.from_jsonl(args.trace)
    except FileNotFoundError:
        print(f"repro inspect: trace file not found: {args.trace}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"repro inspect: {args.trace} is not a JSONL telemetry trace "
            f"(line {exc.lineno}: {exc.msg})",
            file=sys.stderr,
        )
        return 2
    print(report.render_text(max_rows=args.max_rows))
    return 0


def _run_kernel_smoke(args: argparse.Namespace) -> int:
    """``run --kernel cc|pagerank|kcore``: one validated whole-graph run."""
    from repro import api
    from repro.graph.csr import build_csr
    from repro.graph.kronecker import generate_kronecker
    from repro.graph500.report import render_table

    faults = _parse_faults_arg(args.faults)
    graph = build_csr(generate_kronecker(args.scale, seed=args.seed))
    out = api.run(
        graph,
        kernel=args.kernel,
        num_ranks=args.ranks,
        faults=faults,
        sanitize=args.sanitize,
        racecheck=getattr(args, "racecheck", False),
        executor=args.executor,
        workers=args.workers,
    )
    report = out.result.validate(graph)
    meta = out.result.meta
    if args.kernel == "cc":
        headline = f"components={meta.get('num_components')}"
    elif args.kernel == "pagerank":
        headline = f"iterations={out.result.iterations}"
    else:
        headline = f"max_coreness={meta.get('max_coreness')}"
    rows = [
        {
            "kernel": args.kernel,
            "supersteps": out.result.counters["supersteps"],
            "wire_bytes": out.comm["total_bytes"],
            "modeled_ms": out.modeled_time * 1e3,
            "summary": headline,
        }
    ]
    print(
        render_table(
            rows, title=f"{args.kernel} (scale {args.scale}, {args.ranks} ranks)"
        )
    )
    if faults is not None:
        print(
            f"faults: {faults.describe()} -> "
            f"{out.result.counters['messages_dropped']} drops, "
            f"{out.result.counters['bytes_retransmitted']} bytes retransmitted"
        )
    ok = report.ok
    print(f"validation: {'PASSED' if ok else 'FAILED'} (oracle comparison)")
    return 0 if ok else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.analysis.experiments import EXPERIMENTS, run_experiment
    from repro.graph500.report import render_tables

    if args.id != "all" and args.id not in EXPERIMENTS:
        print(
            f"repro experiment: unknown id {args.id!r}; options: {', '.join(EXPERIMENTS)}, all",
            file=sys.stderr,
        )
        return 2
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    failed = 0
    for exp_id in EXPERIMENTS if args.id == "all" else [args.id]:
        doc = run_experiment(exp_id, smoke=args.smoke)
        print(render_tables(doc["tables"]))
        if args.id == "all":
            print()
        if args.out:
            # Key order is kept: it is the column order of the tables.
            with open(os.path.join(args.out, f"{exp_id}.json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, allow_nan=False)
                fh.write("\n")
        for claim, held in (doc["checks"] or {}).items():
            if not held:
                failed += 1
                print(f"repro experiment: {exp_id}: shape check failed: {claim}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.perfbench import dump_json, run_bench

    doc = run_bench(
        args.protocol,
        args.scale,
        args.ranks,
        engines=tuple(args.engines),
        kernels=tuple(args.kernels),
        backends=tuple(args.backends),
        worker_counts=tuple(args.worker_counts),
        workers=args.workers,
        num_roots=args.bench_roots,
        batch_roots=args.batch_roots,
        repeats=args.repeats,
        seed=args.seed,
    )
    print(json.dumps(doc, indent=1, sort_keys=True))
    if args.out:
        dump_json(doc, args.out)
        print(f"bench: wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro import api
    from repro.analysis.attribution import PhaseAttribution
    from repro.graph.csr import build_csr
    from repro.graph.kronecker import generate_kronecker
    from repro.obs import (
        JsonlSink,
        Tracer,
        validate_profile_report,
        write_chrome_trace,
    )

    faults = _parse_faults_arg(args.faults)
    sinks = [JsonlSink(args.trace_out)] if args.trace_out else []
    tracer = Tracer(sinks=sinks)
    tracer.add_meta(
        command="profile",
        engine=args.engine,
        scale=args.scale,
        num_ranks=args.ranks,
        seed=args.seed,
    )
    if faults is not None:
        tracer.add_meta(faults=faults.describe())
    graph = build_csr(generate_kronecker(args.scale, seed=args.seed))
    source = int(np.argmax(graph.out_degree))
    # "--engine bfs" is the committed documents' key for the BFS kernel
    # on the 1-D layout.
    kernel = "bfs" if args.engine == "bfs" else "sssp"
    engine = "dist1d" if args.engine == "bfs" else args.engine
    run = api.run(
        graph,
        source,
        kernel=kernel,
        engine=engine,
        num_ranks=args.ranks,
        tracer=tracer,
        faults=faults,
        sanitize=args.sanitize,
        racecheck=args.racecheck,
        executor=args.executor,
        workers=args.workers,
    )
    tracer.close()
    attribution = PhaseAttribution.from_records(tracer.events)
    print(attribution.render_text())
    print(f"\nmodeled time: {run.modeled_time:.6f}s (cost model, unchanged)")
    doc = attribution.to_dict()
    validate_profile_report(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"profile report: {args.out} (schema {doc['schema']})")
    if args.chrome_out:
        write_chrome_trace(tracer.events, args.chrome_out)
        print(
            f"chrome trace: {args.chrome_out} "
            f"(per-rank lanes; open in chrome://tracing or Perfetto)"
        )
    if args.trace_out:
        print(f"trace: {args.trace_out} ({len(tracer.events)} records)")
    return 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    from repro.analysis.benchdiff import diff_documents, load_document, render_diff

    try:
        old = load_document(args.old)
        new = load_document(args.new)
        rows, failures = diff_documents(
            old, new, max_regression=args.max_regression
        )
    except ValueError as exc:
        print(f"repro bench diff: {exc}", file=sys.stderr)
        return 2
    print(render_diff(rows, failures, args.max_regression))
    return 1 if failures else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        LintError,
        all_rules,
        get_rules,
        lint_paths,
        render_json,
        render_text,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name:26} [{rule.pack:5}] {rule.description}")
        return 0
    try:
        rules = get_rules(args.rules)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    paths = args.paths
    if not paths:
        # Default to linting the installed repro package itself.
        import os

        import repro

        paths = [os.path.dirname(os.path.abspath(repro.__file__))]
    try:
        findings, checked = lint_paths(paths, rules=rules)
        render = render_json if args.format == "json" else render_text
        text = render(findings, checked)
    except LintError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"lint: wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graph500 SSSP reproduction: run, measure, regenerate the evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one graph kernel (default: Graph500 SSSP)")
    _add_common(p_run)
    p_run.add_argument(
        "--kernel",
        choices=("sssp", "bfs", "cc", "pagerank", "kcore"),
        default="sssp",
        help=(
            "which kernel to run: sssp and bfs run the full Graph500 "
            "protocol (kernel 3 / kernel 2), cc/pagerank/kcore a "
            "validated whole-graph run on the vertex-kernel substrate"
        ),
    )
    p_run.add_argument("--roots", type=int, default=16)
    p_run.add_argument(
        "--batch-roots",
        type=int,
        default=None,
        metavar="N",
        help=(
            "answer the root sample in batched multi-source sweeps of at "
            "most N lanes each (sssp -> sssp_batch distance-matrix sweeps, "
            "bfs -> bit-parallel bfs64, N <= 64) instead of one run per "
            "root; reports stay per-root via amortized lane accounting"
        ),
    )
    p_run.add_argument("--baseline", action="store_true")
    p_run.add_argument(
        "--engine",
        choices=("dist1d", "dist2d"),
        default="dist1d",
        help="distributed SSSP engine for kernel 3",
    )
    p_run.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "inject deterministic fabric faults, e.g. "
            "'drop=0.01,delay=2us,seed=7' (answers unchanged; modeled time "
            "and retransmitted bytes are not)"
        ),
    )
    p_run.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "audit every fabric collective at runtime (schema matching, "
            "message conservation, no-progress detection); violations abort"
        ),
    )
    p_run.add_argument(
        "--racecheck",
        action="store_true",
        help=(
            "verify the parallel backends' shared-memory contracts at "
            "runtime (wire-handle arena generations, shared-array write "
            "intervals); violations abort, results are bit-identical"
        ),
    )
    p_run.add_argument(
        "--racecheck-out",
        default=None,
        metavar="PATH",
        help=(
            "write the per-root racecheck audit as a "
            "repro-racecheck-audit/v1 JSON document (implies --racecheck)"
        ),
    )
    _add_executor(p_run)
    p_run.add_argument(
        "--trace-out", default=None, help="write the telemetry stream as JSONL"
    )
    p_run.add_argument(
        "--report-out", default=None, help="write the per-superstep report as JSON"
    )
    p_run.add_argument(
        "--chrome-out",
        default=None,
        help="write a chrome://tracing / Perfetto trace_event file",
    )
    p_run.set_defaults(func=_cmd_run)

    p_inspect = sub.add_parser("inspect", help="summarize a saved JSONL trace")
    p_inspect.add_argument("trace", help="path to a --trace-out JSONL file")
    p_inspect.add_argument("--max-rows", type=int, default=80)
    p_inspect.set_defaults(func=_cmd_inspect)

    p_exp = sub.add_parser(
        "experiment", help="regenerate one table/figure of the reconstructed evaluation"
    )
    p_exp.add_argument("id", help="T1-T3, F1-F11, E1-E3 (DESIGN.md section 4), or 'all'")
    p_exp.add_argument(
        "--smoke",
        action="store_true",
        help="the entry's seconds-long profile (rows pinned by tier-1, shape not checked)",
    )
    p_exp.add_argument("--out", default=None, metavar="DIR", help="write DIR/<ID>.json")
    p_exp.set_defaults(func=_cmd_experiment)

    p_bench = sub.add_parser(
        "bench", help="host wall-clock benchmark protocols of the engines"
    )
    _add_common(p_bench)
    p_bench.add_argument(
        "--protocol",
        choices=("P1", "P4", "K1", "B1"),
        default="P1",
        help=(
            "P1: every --engines entry, serial, with memory peaks; "
            "P4: multi-core curve, --worker-counts per parallel --backends "
            "entry against a serial anchor; K1: the whole-graph --kernels "
            "under every --backends entry; B1: the per-root loop vs batched "
            "sweeps (bfs64 / sssp_batch) over --bench-roots sampled roots.  "
            "Answer digests are asserted before any speedup is reported"
        ),
    )
    p_bench.add_argument("--repeats", type=int, default=1)
    p_bench.add_argument(
        "--engines",
        nargs="+",
        default=["dist1d", "dist2d", "bfs"],
        choices=("dist1d", "dist2d", "bfs"),
        help="engines timed by P1/P4",
    )
    p_bench.add_argument(
        "--kernels",
        nargs="+",
        default=["cc", "pagerank", "kcore"],
        choices=("cc", "pagerank", "kcore"),
        metavar="KERNEL",
        help="whole-graph kernels timed by K1 (entries: engines['kernel@backend'])",
    )
    p_bench.add_argument(
        "--bench-roots",
        type=int,
        default=64,
        metavar="N",
        help="root sample size for B1 (default: the official 64)",
    )
    p_bench.add_argument(
        "--batch-roots",
        type=int,
        default=64,
        metavar="N",
        help="lanes per batched sweep for B1 (<= 64, default 64)",
    )
    p_bench.add_argument(
        "--worker-counts",
        nargs="+",
        type=int,
        default=[1, 2, 4],
        help="worker counts swept by P4",
    )
    p_bench.add_argument(
        "--backends",
        nargs="+",
        default=list(EXECUTOR_BACKENDS),
        choices=EXECUTOR_BACKENDS,
        help="rank-execution backends to time (P4/K1/B1)",
    )
    p_bench.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker pool size for K1/B1's thread/process backends",
    )
    p_bench.add_argument("--out", default=None, help="write the JSON document here")
    p_bench.set_defaults(func=_cmd_bench)
    bench_sub = p_bench.add_subparsers(dest="bench_command")
    p_diff = bench_sub.add_parser(
        "diff",
        help=(
            "compare two BENCH_*.json documents (or profile reports): "
            "per-engine deltas, nonzero exit past the threshold"
        ),
    )
    p_diff.add_argument("old", help="baseline JSON document")
    p_diff.add_argument("new", help="candidate JSON document")
    p_diff.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="relative slowdown tolerated per engine (0.25 = +25%%)",
    )
    p_diff.set_defaults(func=_cmd_bench_diff)

    p_prof = sub.add_parser(
        "profile",
        help=(
            "run one engine under full instrumentation and print the "
            "wall-clock attribution table + bottleneck diagnosis"
        ),
    )
    _add_common(p_prof)
    p_prof.add_argument(
        "--engine",
        choices=("dist1d", "dist2d", "bfs"),
        default="dist1d",
        help="engine to profile (one single-root run)",
    )
    p_prof.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject deterministic fabric faults (see 'run --faults')",
    )
    p_prof.add_argument(
        "--sanitize",
        action="store_true",
        help="audit every fabric collective while profiling",
    )
    p_prof.add_argument(
        "--racecheck",
        action="store_true",
        help="verify parallel-backend shared-memory contracts while profiling",
    )
    _add_executor(p_prof)
    p_prof.add_argument(
        "--out",
        default=None,
        help="write the repro-profile-report/v1 JSON document here",
    )
    p_prof.add_argument(
        "--chrome-out",
        default=None,
        help="write a Perfetto trace with one lane per rank",
    )
    p_prof.add_argument(
        "--trace-out", default=None, help="write the raw telemetry stream as JSONL"
    )
    p_prof.set_defaults(func=_cmd_profile)

    p_lint = sub.add_parser(
        "lint", help="codebase-specific static analysis (see repro.lint)"
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    p_lint.add_argument("--format", choices=("text", "json"), default="text")
    p_lint.add_argument(
        "--rules",
        nargs="+",
        default=None,
        metavar="RULE|PACK",
        help=(
            "restrict to these rule ids or pack ids "
            "(index, det, dtype, obs, shm)"
        ),
    )
    p_lint.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    p_lint.add_argument("--out", default=None, help="write the report here")
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
