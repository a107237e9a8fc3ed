"""Tests for the telemetry sinks: JSONL round-trip, Chrome trace validity."""

import json

import pytest

from repro.analysis.attribution import PhaseAttribution
from repro.obs import (
    JsonlSink,
    Tracer,
    chrome_trace_events,
    read_jsonl,
    write_chrome_trace,
)


def _sample_tracer(path=None):
    sinks = [JsonlSink(path)] if path else []
    tr = Tracer(sinks=sinks)
    tr.add_meta(scale=10, ranks=4)
    with tr.span("root", cat="harness", index=0):
        with tr.span("superstep", cat="engine", phase="light", bucket=0) as sp:
            tr.event("exchange", cat="fabric", step=0, bytes=128, messages=3)
            sp.tag(edges=42)
        tr.event("allreduce", cat="fabric", op="min")
    tr.close()
    return tr


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tr = _sample_tracer(path)
        records = read_jsonl(path)
        assert records == tr.events

    def test_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tr = _sample_tracer(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(tr.events)
        for line in lines:
            json.loads(line)

    def test_report_from_round_tripped_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _sample_tracer(path)
        report = PhaseAttribution.from_jsonl(path)
        assert report.totals()["total_bytes"] == 128
        assert report.timeline[0]["edges"] == 42


class TestChromeTrace:
    def test_export_validity(self, tmp_path):
        tr = _sample_tracer()
        path = tmp_path / "c.json"
        write_chrome_trace(tr.events, path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert isinstance(events, list) and events
        phases = {e["ph"] for e in events}
        assert "X" in phases and "i" in phases
        for e in events:
            assert "pid" in e and "name" in e
            if e["ph"] == "X":
                assert e["dur"] >= 0.0 and e["ts"] >= 0.0

    def test_spans_carry_tags_as_args(self):
        tr = _sample_tracer()
        events = chrome_trace_events(tr.events)
        steps = [e for e in events if e["ph"] == "X" and e["name"] == "superstep"]
        assert steps and steps[0]["args"]["edges"] == 42

    def test_empty_record_list(self):
        assert all(e["ph"] == "M" for e in chrome_trace_events([]))


def _rank_task(rank, start, seconds, t_wall, parent=1):
    return {
        "type": "event", "name": "rank_task", "cat": "executor",
        "t_wall": t_wall, "parent": parent,
        "tags": {"rank": rank, "method": "spin", "seconds": seconds,
                 "start": start, "end": start + seconds, "wait": 0.0},
    }


class TestRankLanes:
    RECORDS = [
        {"type": "span", "id": 1, "parent": None, "name": "superstep",
         "cat": "engine", "t_wall": 10.0, "dur_wall": 1.0, "tags": {}},
        _rank_task(0, 10.1, 0.5, 10.9),
        _rank_task(1, 10.2, 0.3, 10.9),
        # A rank_task WITHOUT a start timestamp (profiling off) stays an
        # instant on the driver lane.
        {"type": "event", "name": "rank_task", "cat": "executor",
         "t_wall": 10.6, "parent": 1,
         "tags": {"rank": 0, "method": "spin", "seconds": 0.1}},
    ]

    def test_one_lane_per_rank_with_thread_names(self):
        events = chrome_trace_events(self.RECORDS)
        names = {
            (e["pid"], e.get("tid")): e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names[(1, 2)] == "rank 0"
        assert names[(1, 3)] == "rank 1"
        assert names[(1, 1)] == "driver"

    def test_rank_slices_are_complete_events(self):
        events = chrome_trace_events(self.RECORDS)
        slices = [
            e for e in events if e["ph"] == "X" and e["name"] == "spin"
        ]
        assert len(slices) == 2
        by_tid = {e["tid"]: e for e in slices}
        # The epoch is the earliest timestamp anywhere (the span's 10.0).
        assert by_tid[2]["ts"] == pytest.approx((10.1 - 10.0) * 1e6)
        assert by_tid[2]["dur"] == pytest.approx(0.5 * 1e6)
        assert by_tid[3]["ts"] == pytest.approx((10.2 - 10.0) * 1e6)
        assert by_tid[2]["args"]["rank"] == 0

    def test_task_without_start_stays_instant(self):
        events = chrome_trace_events(self.RECORDS)
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 1 and instants[0]["tid"] == 1

    def test_epoch_covers_task_starts_before_first_span(self):
        # A task that started BEFORE the earliest span emission must not
        # produce a negative timestamp.
        records = [
            {"type": "span", "id": 1, "parent": None, "name": "s",
             "cat": "x", "t_wall": 10.0, "dur_wall": 0.1, "tags": {}},
            _rank_task(0, 9.5, 0.4, 10.05),
        ]
        events = chrome_trace_events(records)
        assert all(e["ts"] >= 0.0 for e in events if e["ph"] != "M")
