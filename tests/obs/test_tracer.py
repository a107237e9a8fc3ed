"""Tests for the tracer: span nesting, ordering, tags, the disabled path."""

import pytest

from repro.obs import NULL_TRACER, JsonlSink, NullTracer, Tracer, read_jsonl


class _FakeClock:
    def __init__(self) -> None:
        self.total = 0.0


class TestSpans:
    def test_span_record_shape(self):
        tr = Tracer()
        with tr.span("outer", cat="test", a=1):
            pass
        (rec,) = tr.events
        assert rec["type"] == "span"
        assert rec["name"] == "outer"
        assert rec["cat"] == "test"
        assert rec["parent"] is None
        assert rec["tags"] == {"a": 1}
        assert rec["dur_wall"] >= 0.0
        assert rec["t_sim"] is None and rec["dur_sim"] is None

    def test_nesting_parent_links(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            assert tr.depth == 1
            with tr.span("inner") as inner:
                assert tr.depth == 2
                assert inner.parent == outer.id
            tr.event("point")
        assert tr.depth == 0
        by_name = {r["name"]: r for r in tr.events}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        # The point event fired while only "outer" was open.
        assert by_name["point"]["parent"] == by_name["outer"]["id"]

    def test_children_emitted_before_parents(self):
        # Span records land at exit: inner first, linked by id/parent.
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        assert [r["name"] for r in tr.events] == ["inner", "outer"]
        assert [r["seq"] for r in tr.events] == [0, 1]

    def test_late_tags(self):
        tr = Tracer()
        with tr.span("s", x=1) as sp:
            sp.tag(y=2, x=3)
        assert tr.events[0]["tags"] == {"x": 3, "y": 2}

    def test_sibling_spans_share_parent(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("a"):
                pass
            with tr.span("b"):
                pass
        by_name = {r["name"]: r for r in tr.events}
        assert by_name["a"]["parent"] == by_name["b"]["parent"] == by_name["outer"]["id"]

    def test_numpy_tags_become_plain_json_types(self):
        np = pytest.importorskip("numpy")
        tr = Tracer()
        tr.event("e", count=np.int64(7), val=np.float64(0.5))
        tags = tr.events[0]["tags"]
        assert type(tags["count"]) is int
        assert type(tags["val"]) is float


class TestSimClock:
    def test_sim_timestamps_from_clock(self):
        tr = Tracer()
        clock = _FakeClock()
        tr.use_sim_clock(clock)
        with tr.span("s"):
            clock.total = 2.5
        rec = tr.events[0]
        assert rec["t_sim"] == 0.0
        assert rec["dur_sim"] == 2.5

    def test_detaching_clock(self):
        tr = Tracer()
        tr.use_sim_clock(_FakeClock())
        tr.use_sim_clock(None)
        assert tr.sim_time() is None


class TestMetaAndSinks:
    def test_meta_records(self):
        tr = Tracer()
        tr.add_meta(scale=12, ranks=8)
        tr.add_meta(variant="optimized")
        assert tr.meta == {"scale": 12, "ranks": 8, "variant": "optimized"}
        assert [r["type"] for r in tr.events] == ["meta", "meta"]

    def test_sink_receives_every_record(self, tmp_path):
        tr = Tracer(sinks=[JsonlSink(tmp_path / "t.jsonl")])
        tr.add_meta(a=1)
        with tr.span("s"):
            tr.event("e")
        tr.close()
        records = read_jsonl(tmp_path / "t.jsonl")
        assert [r["type"] for r in records] == ["meta", "event", "span"]
        assert records == tr.events

    def test_keep_events_false(self, tmp_path):
        tr = Tracer(sinks=[JsonlSink(tmp_path / "t.jsonl")], keep_events=False)
        tr.event("e")
        tr.close()
        assert tr.events == []
        assert len(read_jsonl(tmp_path / "t.jsonl")) == 1


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_span_is_shared_noop(self):
        s1 = NULL_TRACER.span("a", x=1)
        s2 = NULL_TRACER.span("b")
        assert s1 is s2  # one inert object, zero allocation per call
        with s1 as sp:
            sp.tag(y=2)

    def test_records_nothing(self):
        tr = NullTracer()
        tr.add_meta(a=1)
        tr.event("e")
        with tr.span("s"):
            pass
        assert tr.events == []
        assert tr.meta == {}

    def test_surface_matches_tracer(self):
        tr = NullTracer()
        assert tr.sim_time() is None
        assert tr.current_span_id is None
        assert tr.depth == 0
        tr.use_sim_clock(_FakeClock())
        tr.close()
