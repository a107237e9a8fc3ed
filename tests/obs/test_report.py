"""Tests for the timeline view of PhaseAttribution: rows, totals, rendering."""

from repro.analysis.attribution import PhaseAttribution
from repro.obs import Tracer


def _make_trace():
    """Two roots, two supersteps each; exchange events inside step spans."""
    tr = Tracer()
    tr.add_meta(scale=10, ranks=4)
    step = 0
    for index in range(2):
        with tr.span("root", cat="harness", root=100 + index, index=index):
            for bucket in range(2):
                with tr.span(
                    "superstep", cat="engine", phase="light", epoch=bucket + 1,
                    bucket=bucket, frontier=5 * (bucket + 1),
                ) as sp:
                    tr.event(
                        "exchange", cat="fabric", kind="alltoallv",
                        step=step, bytes=100 * (step + 1), messages=step + 1,
                    )
                    tr.event("allreduce", cat="fabric", op="max")
                    sp.tag(edges=10 * (step + 1))
                step += 1
            # reset per-root step numbering like a fresh fabric would
            step = 0
    return tr


class TestTimeline:
    def test_rows_join_fabric_and_engine_tags(self):
        report = PhaseAttribution.from_records(_make_trace().events)
        assert report.totals()["supersteps"] == 4
        row = report.timeline[0]
        assert row["root"] == 0  # index tag of the enclosing root span
        assert row["step"] == 0
        assert row["bytes"] == 100
        assert row["messages"] == 1
        assert row["phase"] == "light"
        assert row["bucket"] == 0
        assert row["edges"] == 10
        assert row["frontier"] == 5

    def test_totals(self):
        report = PhaseAttribution.from_records(_make_trace().events)
        t = report.totals()
        assert t["total_bytes"] == 2 * (100 + 200)
        assert t["total_messages"] == 2 * (1 + 2)
        assert t["supersteps"] == 4
        assert t["allreduces"] == 4
        assert t["roots"] == 2

    def test_per_root_views(self):
        report = PhaseAttribution.from_records(_make_trace().events)
        assert len(report.wavefront(root=0)) == 2
        assert report.wavefront(root=1) == [100, 200]
        assert sum(report.wavefront()) == report.totals()["total_bytes"]

    def test_rows_sorted_by_root_then_step(self):
        report = PhaseAttribution.from_records(_make_trace().events)
        keys = [(r["root"], r["step"]) for r in report.timeline]
        assert keys == sorted(keys)

    def test_span_summary(self):
        report = PhaseAttribution.from_records(_make_trace().events)
        by_name = {(a["cat"], a["name"]): a for a in report.span_summary}
        assert by_name[("engine", "superstep")]["count"] == 4
        assert by_name[("harness", "root")]["count"] == 2
        assert by_name[("harness", "root")]["wall_s"] > 0.0

    def test_meta_collected(self):
        report = PhaseAttribution.from_records(_make_trace().events)
        # Trace meta records, plus the rank count the attribution backfills.
        assert report.meta == {"scale": 10, "ranks": 4, "num_ranks": 0}

    def test_exchange_outside_any_span(self):
        tr = Tracer()
        tr.event("exchange", cat="fabric", step=0, bytes=64, messages=1)
        report = PhaseAttribution.from_records(tr.events)
        row = report.timeline[0]
        assert row["root"] == -1
        assert row["phase"] is None and row["edges"] is None
        assert report.totals()["total_bytes"] == 64


    def test_task_percentiles_are_exact(self):
        # Ten rank tasks in one step, none in the other: p50/p99 are the
        # exact (linearly interpolated) percentiles of the step's task
        # microseconds, not bucket estimates.
        tr = Tracer()
        with tr.span("root", cat="harness", index=0):
            with tr.span("superstep", cat="engine", phase="light"):
                with tr.span("fabric_exchange", cat="fabric"):
                    for rank, us in enumerate((3, 1, 4, 1, 5, 9, 2, 6, 5, 35)):
                        tr.event("rank_task", cat="executor", rank=rank, seconds=us * 1e-6)
                tr.event("exchange", cat="fabric", step=0, bytes=8, messages=1)
            with tr.span("superstep", cat="engine", phase="heavy"):
                tr.event("exchange", cat="fabric", step=1, bytes=8, messages=1)
        first, second = PhaseAttribution.from_records(tr.events).timeline
        assert first["task_p50_us"] == 4.5
        assert first["task_p99_us"] == 32.66
        assert second["task_p50_us"] is None and second["task_p99_us"] is None
        assert "p99_us" in PhaseAttribution.from_records(tr.events).render_text()


class TestRendering:
    def test_to_dict_json_serializable(self):
        import json

        report = PhaseAttribution.from_records(_make_trace().events)
        parsed = json.loads(json.dumps(report.to_dict()))
        assert parsed["totals"] == report.totals()
        assert len(parsed["timeline"]) == 4

    def test_render_text_timeline(self):
        text = PhaseAttribution.from_records(_make_trace().events).render_text()
        assert "per-superstep timeline" in text
        assert "spans" in text
        assert "supersteps: 4" in text

    def test_render_text_caps_rows(self):
        text = PhaseAttribution.from_records(_make_trace().events).render_text(max_rows=2)
        assert "first 2 of 4 steps" in text

    def test_empty_report(self):
        report = PhaseAttribution.from_records([])
        assert report.totals()["supersteps"] == 0
        text = report.render_text()
        assert "supersteps: 0" in text
        # No phase_call events: no attribution section.
        assert "wall-clock attribution" not in text
