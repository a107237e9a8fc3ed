"""Self-tests of the benchmark: contract, plumbing, conformance, guards.

Everything runs at scale 10 / 4 roots (``pipeline.smoke``); no number
measured here is comparable with anything.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from repro.graph500 import teps_summary

import compare
import driver
import pipeline
import probes
from pipeline import WORKLOADS, Phase, RootLoop, Workload, smoke
from spans import Spans, self_time_by_layer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def declared() -> dict:
    return driver.declared_metrics()


@pytest.fixture(scope="module")
def docs() -> dict:
    """One untraced and one traced smoke run of every workload."""
    return {
        (name, traced): driver.run_workload(
            smoke(workload), seed=7, seconds=0.0, traced=traced, coverage_scale=8
        )
        for name, workload in WORKLOADS.items()
        for traced in (False, True)
    }


# -- the contract of BENCHMARK.json ------------------------------------------------


def test_benchmark_json_meets_the_contract(benchmark_json):
    doc = benchmark_json
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert doc["command"] == ["python3", "bench/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in doc[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_declared_workloads_are_the_ones_the_driver_runs(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)
    proc2 = WORKLOADS["sssp_proc2"]
    assert (proc2.executor, proc2.workers) == ("process", 2)
    assert dataclasses.replace(proc2, name="sssp_loop", executor=None, workers=None) == (
        WORKLOADS["sssp_loop"]
    )


# -- every run reports what it declares ------------------------------------------------


def test_every_declared_metric_is_reported_with_its_unit(docs, declared):
    for (name, traced), doc in docs.items():
        line = driver.result_line(doc, declared)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 4
        kind = declared["per_layer" if traced else "end_to_end"]
        assert list(line["metrics"]) == list(kind)
        text = driver.render(doc, declared)
        for metric, spec in kind.items():
            reported = line["metrics"][metric]
            assert isinstance(reported["value"], (int, float)), (name, metric, doc["null_reasons"])
            assert not isinstance(reported["value"], bool) and reported["unit"] == spec["unit"]
            assert re.search(rf"^  {re.escape(metric)} +\S+ {re.escape(spec['unit'])}$", text, re.M)
        assert "roots_attempted" in text and "roots_failed 0" in text
        json.dumps(line)  # the last line of standard output must serialise


def test_end_to_end_metrics_are_never_zero(docs, declared):
    for (_, traced), doc in docs.items():
        if not traced:
            assert all(doc["values"][name] > 0 for name in declared["end_to_end"])


def test_span_parents_resolve_and_self_times_are_non_negative(docs):
    for (name, traced), doc in docs.items():
        if not traced:
            assert doc["spans"] is None
            continue
        records = doc["spans"]
        by_id = {r["id"]: r for r in records}
        assert len(by_id) == len(records)
        for r in records:
            assert r["end"] >= r["start"] and r["run"].startswith(name)
            if r["parent"] is not None:
                parent = by_id[r["parent"]]
                assert parent["start"] <= r["start"] and r["end"] <= parent["end"]
        assert min(self_times(records).values()) >= -1e-9
        tops = sum(r["end"] - r["start"] for r in records if r["parent"] is None)
        assert sum(self_time_by_layer(records).values()) == pytest.approx(tops)
        assert {"graph", "graph500", "simmpi", "core", "engine", "bfs", "partition",
                "obs", "bench"} <= set(doc["layer_self_s"])


def test_stages_account_for_the_root_loop_wall(docs):
    for key, doc in docs.items():
        if key[0] != "bfs_s17":  # a 3 ms BFS root: see below
            assert doc["accounting"]["accounted_share"] >= 0.98, key
    # At scale 10 a BFS root is so short that the driver's own bookkeeping
    # is a percent of it; three scales up it is the share a real run sees.
    workload = dataclasses.replace(smoke(WORKLOADS["bfs_s17"]), scale=13)
    doc = driver.run_workload(workload, seed=7, seconds=0.0, traced=False)
    assert doc["accounting"]["accounted_share"] >= 0.98
    assert doc["accounting"]["driver_self_s"] >= 0.0


def test_seconds_adds_units_but_counts_come_from_the_counted_ones(docs):
    workload = smoke(WORKLOADS["sssp_loop"])
    longer = driver.run_workload(workload, seed=7, seconds=0.6, traced=False)
    fixed = docs["sssp_loop", False]
    assert longer["units"] > fixed["units"] == longer["counted_units"] == 4
    assert longer["roots_attempted"] == longer["units"] and longer["roots_failed"] == 0
    assert longer["values"]["modeled_hmean_gteps"] == fixed["values"]["modeled_hmean_gteps"]
    assert longer["digests"] == fixed["digests"]


def test_more_workers_than_cpus_is_refused(monkeypatch):
    monkeypatch.setattr(driver, "host_cpus", lambda: 1)
    with pytest.raises(ValueError, match="needs 2 workers, host has 1"):
        driver.run_workload(smoke(WORKLOADS["sssp_proc2"]), seed=7, seconds=0.0, traced=False)


# -- the driver stands in for graph500/harness.py: it must not drift from it ------------


@pytest.mark.parametrize(
    "phase, harness, options",
    [
        (Phase("sssp", 1, 1.0, 8), "run_graph500_sssp", {}),
        (Phase("sssp_batch", 8, 1.0, 1), "run_graph500_sssp", {"batch_roots": 8}),
        (Phase("sssp_batch", 4, 1.0, 2), "run_graph500_sssp", {"batch_roots": 4}),
        (Phase("bfs", 1, 1.0, 8), "run_graph500_bfs", {}),
        (Phase("bfs64", 8, 1.0, 1), "run_graph500_bfs", {"batch_roots": 8}),
    ],
)
def test_driver_answers_what_the_harness_answers(phase, harness, options):
    import repro.graph500

    reference = getattr(repro.graph500, harness)(10, num_ranks=4, seed=11, num_roots=8, **options)
    workload = Workload("conformance", 10, 4, (phase,), num_roots=8)
    spans = Spans("conformance")
    graph, roots, _ = pipeline.build_inputs(spans, 10, 11, 8)
    loop = RootLoop(workload, graph, roots, spans)
    loop.run(0.0)
    assert [a["root"] for a in loop.answers] == [r.root for r in reference.roots]
    assert [a["ok"] for a in loop.answers] == [r.validation.ok for r in reference.roots]
    assert [a["traversed"] for a in loop.answers] == [r.traversed_edges for r in reference.roots]
    teps = [a["modeled_teps"] for a in loop.answers]
    assert teps == pytest.approx([r.teps for r in reference.roots], rel=1e-12)
    assert teps_summary(np.array(teps)).hmean == pytest.approx(reference.teps.hmean, rel=1e-12)


def test_a_root_in_a_tiny_component_does_not_set_the_headline_rate():
    from repro.graph import EdgeList, build_csr

    # A 40-vertex ring and, apart from it, the single edge 40-41.
    ring = np.arange(40)
    edges = EdgeList(
        src=np.append(ring, 40), dst=np.append((ring + 1) % 40, 41),
        weight=np.full(41, 0.5), num_vertices=42,
    )
    graph = build_csr(edges)
    roots = np.array([3, 17, 40])
    workload = Workload("components", 0, 2, (Phase("sssp", 1, 1.0, 3),), num_roots=3)
    loop = RootLoop(workload, graph, roots, Spans("components"))
    loop.run(0.0)
    assert [a["ok"] for a in loop.answers] == [True, True, True]
    assert [a["traversed"] for a in loop.answers] == [40, 40, 1]
    in_ring = [a["modeled_teps"] for a in loop.answers[:2]]
    assert loop.modeled_teps.n == 2
    assert loop.modeled_teps.hmean == pytest.approx(teps_summary(np.array(in_ring)).hmean)


# -- witnesses and guards ------------------------------------------------------------


def test_a_digest_mismatch_fails_exactly_that_root():
    workload = smoke(WORKLOADS["sssp_loop"])
    spans = Spans("digests")
    graph, roots, _ = pipeline.build_inputs(spans, workload.scale, 7, workload.num_roots)
    honest = RootLoop(workload, graph, roots, spans)
    honest.run(0.0)
    witnesses = [a["digest"] for a in honest.answers]
    checked = RootLoop(workload, graph, roots, spans, expected=witnesses)
    checked.run(0.0)
    assert all(a["ok"] for a in checked.answers)
    witnesses[2] = "0" * 64
    tampered = RootLoop(workload, graph, roots, spans, expected=witnesses)
    tampered.run(0.0)
    assert [a["ok"] for a in tampered.answers] == [True, True, False, True]
    assert "digest witness mismatch" in tampered.answers[2]["why"]


def test_committed_witnesses_cover_every_root_of_every_workload():
    stored = json.loads(driver.DIGESTS_PATH.read_text(encoding="utf-8"))
    for workload in WORKLOADS.values():
        witnesses = driver.expected_digests(workload, pipeline.DEFAULT_SEED)
        assert len(witnesses) == workload.num_roots
        assert all(re.fullmatch(r"[0-9a-f]{64}", w) for w in witnesses)
        assert driver.expected_digests(workload, pipeline.DEFAULT_SEED + 1) is None
    assert stored["sssp_loop@scale16"] == stored["sssp_proc2@scale16"]


def test_a_removed_probe_target_yields_null_with_the_reason(monkeypatch, docs, declared):
    # A later change deletes BucketQueue: the stub module stands for it.
    monkeypatch.setitem(sys.modules, "repro.core.buckets", types.ModuleType("repro.core.buckets"))
    spans = Spans("guard")
    graph, _, _ = pipeline.build_inputs(spans, 10, 7, 4)
    values, reasons = {}, {}
    inputs = probes.PrimitiveInputs(graph, 7, 4, None, None)
    probes.run_probes("primitive", inputs, spans, values, reasons)
    gone = {"core.bucket_insert_us.n4096", "core.bucket_drain_us.n4096"}
    assert {name for name, value in values.items() if value is None} == gone == set(reasons)
    assert all("ImportError" in reasons[name] and "BucketQueue" in reasons[name] for name in gone)
    # The run still succeeds and prints null for those two.
    doc = dict(docs["sssp_loop", True])
    doc["values"] = {**doc["values"], **values}
    doc["null_reasons"] = reasons
    line = driver.result_line(doc, declared)
    assert line["correct"] is True
    assert {n for n, m in line["metrics"].items() if m["value"] is None} == gone
    assert "core.bucket_drain_us.n4096         null (ImportError" in driver.render(doc, declared)


def test_a_renamed_profiler_yields_null_buckets(monkeypatch):
    import layers

    monkeypatch.setitem(
        sys.modules, "repro.analysis.attribution", types.ModuleType("repro.analysis.attribution")
    )
    folded = layers.fold_trace([])
    assert "buckets" not in folded and "PhaseAttribution" in folded["reason"]


# -- the command line ------------------------------------------------------------------


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_line_prints_the_result_as_its_last_line(trace, declared, tmp_path):
    out = tmp_path / "set.json"
    done = _run_cli("--workload", "bfs_s17", "--seed", "5", "--seconds", "1", "--trace", trace,
                    "--smoke", "--out", str(out))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"} and line["correct"]
    assert set(line["metrics"]) == set(declared["per_layer" if trace == "1" else "end_to_end"])
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())
    stored = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert len(stored) == 1 and stored[0]["seed"] == 5 and "spans" not in stored[0]
    assert stored[0]["host"]["host_cpus"] >= 1 and len(stored[0]["repeats"]["setup_s"]) >= 1
    spans_file = BENCH / "out" / "bfs_s17.spans.jsonl"
    if trace == "1":
        assert all(json.loads(row)["name"] for row in spans_file.read_text().splitlines())


def _session_members(session: int) -> list[str]:
    members = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text(errors="replace")
            if entry.name.isdigit() and int(stat.rsplit(")", 1)[1].split()[3]) == session:
                members.append(stat[:60])
        except (OSError, IndexError, ValueError):
            continue
    return members


@pytest.mark.skipif(driver.host_cpus() < 2, reason="sssp_proc2 needs 2 CPUs")
def test_the_process_backend_run_leaves_no_process_behind():
    # Shared memory starts multiprocessing's resource tracker, which would outlive
    # its parent by a moment: the command must have stopped and reaped it by now.
    child = subprocess.Popen(
        [sys.executable, "bench/run.py", "--workload", "sssp_proc2", "--smoke", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = child.communicate(timeout=170)
    assert _session_members(child.pid) == []
    assert child.returncode == 0, stderr
    assert json.loads(stdout.strip().splitlines()[-1])["correct"]


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run_cli("--workload", "sssp_loop", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path)
    assert done.returncode != 0 and "no program to measure" in done.stderr
    assert not any(row.startswith("{") for row in done.stdout.splitlines())


def test_compare_exits_non_zero_on_a_breach(tmp_path, docs, capsys):
    def write(path, scale):
        runs = []
        for (_, traced), doc in docs.items():
            kept = {k: v for k, v in doc.items() if k != "spans"}
            if not traced:
                kept["values"] = {**doc["values"], "solve_s": doc["values"]["solve_s"] * scale}
            runs.append(kept)
        path.write_text(json.dumps({"schema": driver.SCHEMA, "runs": runs}))
        return path

    a, slower = write(tmp_path / "a.json", 1.0), write(tmp_path / "b.json", 1.5)
    assert compare.main(a, a) == 0
    assert "0 of 28 pairs breach" in capsys.readouterr().out
    assert compare.main(a, slower) == 1
    report = capsys.readouterr().out
    assert report.count("BREACH") == 4 and "4 of 28 pairs breach" in report
    assert "0 differ" in report
    assert compare.main(slower, a) == 0  # faster is never a breach
    (tmp_path / "empty.json").write_text(json.dumps({"schema": driver.SCHEMA, "runs": []}))
    assert compare.main(a, tmp_path / "empty.json") == 2
