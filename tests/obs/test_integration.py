"""End-to-end telemetry: engines and harness against CommTrace ground truth.

The binding invariant: the timeline report's byte totals must equal
``CommTrace.total_bytes`` for every instrumented engine — both are fed by
the same ``record_exchange`` call sites, so any divergence means an
exchange escaped the telemetry stream.
"""

from functools import partial

import numpy as np
import pytest

from repro import run
from repro.core.delta_stepping import _delta_stepping as delta_stepping
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph500.harness import run_graph500_bfs, run_graph500_sssp
from repro.analysis.attribution import PhaseAttribution
from repro.obs import Tracer

distributed_sssp = partial(run, engine="dist1d")
distributed_sssp_2d = partial(run, engine="dist2d")
distributed_bfs = partial(run, kernel="bfs", engine="dist1d")


def _graph(scale=9):
    return build_csr(generate_kronecker(scale, seed=2022))


class TestEngineTelemetry:
    def test_dist_sssp_bytes_match_commtrace(self):
        tracer = Tracer()
        run = distributed_sssp(_graph(), 0, num_ranks=4, tracer=tracer)
        totals = PhaseAttribution.from_records(tracer.events).totals()
        assert totals["total_bytes"] == run.comm["total_bytes"]
        assert totals["total_messages"] == run.comm["messages"]
        assert totals["supersteps"] == run.comm["supersteps"]
        assert totals["allreduces"] == run.comm["allreduces"]

    def test_dist_sssp_step_annotations(self):
        tracer = Tracer()
        distributed_sssp(_graph(), 0, num_ranks=4, tracer=tracer)
        timeline = PhaseAttribution.from_records(tracer.events).timeline
        phases = {row["phase"] for row in timeline}
        assert phases <= {"light", "heavy"}
        assert "light" in phases and "heavy" in phases
        light = [row for row in timeline if row["phase"] == "light"]
        assert any(row["frontier"] for row in light)
        assert any(row["edges"] for row in timeline)
        # Step indices are the CommTrace superstep sequence, gap-free.
        assert [row["step"] for row in timeline] == list(range(len(timeline)))

    def test_twod_bytes_match_commtrace(self):
        tracer = Tracer()
        run = distributed_sssp_2d(_graph(), 0, num_ranks=4, tracer=tracer)
        report = PhaseAttribution.from_records(tracer.events)
        assert report.totals()["total_bytes"] == run.comm["total_bytes"]
        assert all(row["phase"] == "frontier" for row in report.timeline)

    def test_bfs_bytes_match_commtrace(self):
        tracer = Tracer()
        run = distributed_bfs(_graph(), 0, num_ranks=4, direction="auto", tracer=tracer)
        report = PhaseAttribution.from_records(tracer.events)
        assert report.totals()["total_bytes"] == run.comm["total_bytes"]
        phases = {row["phase"] for row in report.timeline}
        assert phases <= {"top_down", "bottom_up"}

    def test_shared_memory_epoch_spans(self):
        tracer = Tracer()
        result = delta_stepping(_graph(), 0, tracer=tracer)
        epochs = [r for r in tracer.events if r.get("name") == "epoch"]
        assert len(epochs) == result.counters["epochs"]
        assert sum(r["tags"]["edges"] for r in epochs) == result.counters["edges_relaxed"]


class TestTelemetryIsInert:
    """Tracing must never perturb the answer or the measured execution."""

    def test_same_answer_and_traffic_with_and_without(self):
        g = _graph()
        base = distributed_sssp(g, 0, num_ranks=4)
        traced = distributed_sssp(g, 0, num_ranks=4, tracer=Tracer())
        assert np.array_equal(base.result.dist, traced.result.dist)
        assert base.comm == traced.comm
        assert base.modeled_time == traced.modeled_time

    def test_disabled_path_allocates_no_records(self):
        from repro.obs import NULL_TRACER

        before = len(NULL_TRACER.events)
        distributed_sssp(_graph(), 0, num_ranks=4)  # tracer=None -> NULL_TRACER
        assert len(NULL_TRACER.events) == before == 0


class TestHarnessTelemetry:
    def test_per_superstep_bytes_agree_with_commtrace_summary(self):
        tracer = Tracer()
        result = run_graph500_sssp(
            scale=8, num_ranks=2, num_roots=3, tracer=tracer, validate=True
        )
        report = PhaseAttribution.from_records(tracer.events)
        # Per-root: the timeline rows inside each root span must sum to that
        # root's CommTrace.summary() totals, byte for byte.
        for index, root_run in enumerate(result.roots):
            rows = [row for row in report.timeline if row["root"] == index]
            assert rows, f"no timeline rows for root {index}"
            assert sum(r["bytes"] for r in rows) == root_run.trace["total_bytes"]
            assert sum(r["messages"] for r in rows) == root_run.trace["messages"]
            assert len(rows) == root_run.trace["supersteps"]
        total = sum(r.trace["total_bytes"] for r in result.roots)
        assert report.totals()["total_bytes"] == total

    def test_batched_timeline_keeps_sweep_order(self):
        # Sweeps open ``batch`` spans, not ``root`` spans: each sweep is one
        # unit of the timeline, its steps ascending, the sweeps in order.
        tracer = Tracer()
        result = run_graph500_sssp(
            scale=8, num_ranks=4, num_roots=8, seed=3, batch_roots=4, tracer=tracer
        )
        report = PhaseAttribution.from_records(tracer.events)
        sweeps = [result.roots[0], result.roots[4]]  # lanes share their sweep's trace
        units = [row["root"] for row in report.timeline]
        assert units == sorted(units) and set(units) == {0, 1}
        for index, sweep in enumerate(sweeps):
            rows = [row for row in report.timeline if row["root"] == index]
            assert len(rows) == sweep.trace["supersteps"]
            assert [r["step"] for r in rows] == list(range(len(rows)))
            assert sum(r["messages"] for r in rows) == sweep.trace["messages"]
        assert report.totals()["roots"] == 2
        assert report.wavefront() == report.wavefront(root=0) + report.wavefront(root=1)

    @pytest.mark.parametrize(
        "harness, batch_roots, engine_spans",
        [
            (run_graph500_sssp, None, {("engine", "epoch"), ("engine", "superstep")}),
            (run_graph500_bfs, None, {("engine", "superstep")}),
            (run_graph500_sssp, 2, {("engine", "superstep")}),
            (run_graph500_bfs, 2, {("engine", "superstep")}),
        ],
        ids=["sssp", "bfs", "sssp-sweeps", "bfs-sweeps"],
    )
    def test_harness_spans_and_meta(self, harness, batch_roots, engine_spans):
        tracer = Tracer()
        harness(
            scale=8, num_ranks=2, num_roots=2, tracer=tracer, batch_roots=batch_roots
        )
        report = PhaseAttribution.from_records(tracer.events)
        names = {(a["cat"], a["name"]) for a in report.span_summary}
        run_span = ("harness", "root" if batch_roots is None else "batch")
        assert {("harness", "generation"), ("harness", "construction"),
                run_span, ("harness", "validation")} | engine_spans <= names
        # Validation nests inside the run's span, looped or in sweeps.
        spans = [e for e in tracer.events if e.get("cat") == "harness"]
        runs = [e for e in spans if e["name"] == run_span[1]]
        checks = [e for e in spans if e["name"] == "validation"]
        assert len(checks) == 2 and len(runs) == (2 if batch_roots is None else 1)
        assert {c["parent"] for c in checks} == {r["id"] for r in runs}
        assert report.meta["scale"] == 8
        assert report.meta["ranks"] == 2

    def test_traced_run_records_spans_events_and_meta_only(self):
        """No write-only record type: every record kind has a reader."""
        tracer = Tracer()
        run_graph500_sssp(scale=8, num_ranks=2, num_roots=2, tracer=tracer)
        assert {r["type"] for r in tracer.events} == {"span", "event", "meta"}
        assert "metrics" not in PhaseAttribution.from_records(tracer.events).to_dict()

    def test_trace_round_trip_through_jsonl(self, tmp_path):
        from repro.obs import JsonlSink, read_jsonl

        path = tmp_path / "run.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)], keep_events=False)
        run_graph500_sssp(scale=8, num_ranks=2, num_roots=2, tracer=tracer)
        tracer.close()
        totals = PhaseAttribution.from_jsonl(path).totals()
        assert totals["supersteps"] > 0
        assert totals["total_bytes"] > 0
