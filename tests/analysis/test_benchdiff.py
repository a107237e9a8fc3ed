"""bench diff: pairing BENCH/profile documents and the regression gate."""

import json

import pytest

from repro.analysis.benchdiff import diff_documents, load_document, render_diff
from repro.obs.profile import BUCKETS, PROFILE_SCHEMA


def bench_doc(**engines):
    return {"engines": {k: {"wall_seconds": v} for k, v in engines.items()}}


def profile_doc(total, **buckets):
    full = {b: 0.0 for b in BUCKETS}
    full.update(buckets)
    return {"schema": PROFILE_SCHEMA, "total_wall_s": total, "buckets": full}


class TestDiffDocuments:
    def test_improvement_passes(self):
        rows, failures = diff_documents(
            bench_doc(dist1d=1.0), bench_doc(dist1d=0.8)
        )
        assert failures == []
        assert rows[0]["status"] == "improved"
        assert rows[0]["delta"] == pytest.approx(-0.2)

    def test_regression_past_threshold_fails(self):
        rows, failures = diff_documents(
            bench_doc(**{"dist1d@process": 1.0}),
            bench_doc(**{"dist1d@process": 1.5}),
            max_regression=0.25,
        )
        assert len(failures) == 1
        assert "dist1d@process" in failures[0]
        assert rows[0]["status"] == "regression"

    def test_regression_within_threshold_passes(self):
        rows, failures = diff_documents(
            bench_doc(dist1d=1.0), bench_doc(dist1d=1.2), max_regression=0.25
        )
        assert failures == []
        assert rows[0]["status"] == "ok"

    def test_engine_missing_from_candidate_fails(self):
        rows, failures = diff_documents(
            bench_doc(dist1d=1.0, dist2d=1.0), bench_doc(dist1d=1.0)
        )
        assert len(failures) == 1 and "dist2d" in failures[0]
        missing = next(r for r in rows if r["name"] == "dist2d")
        assert missing["status"] == "missing" and missing["new_s"] is None

    def test_new_engine_in_candidate_is_informational(self):
        rows, failures = diff_documents(
            bench_doc(dist1d=1.0), bench_doc(dist1d=1.0, bfs=0.5)
        )
        assert failures == []
        assert next(r for r in rows if r["name"] == "bfs")["status"] == "new"

    def test_profile_reports_gate_on_total_only(self):
        # Buckets shift dramatically but the total improves: no failure —
        # bucket rows inform, total_wall gates.
        old = profile_doc(1.0, compute=0.2, dispatch=0.8)
        new = profile_doc(0.9, compute=0.8, dispatch=0.1)
        rows, failures = diff_documents(old, new)
        assert failures == []
        by_name = {r["name"]: r for r in rows}
        assert by_name["total_wall"]["status"] == "improved"
        assert by_name["bucket:compute"]["delta"] == pytest.approx(3.0)

    def test_profile_total_regression_fails(self):
        rows, failures = diff_documents(profile_doc(1.0), profile_doc(2.0))
        assert len(failures) == 1 and "total_wall" in failures[0]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="max_regression"):
            diff_documents(bench_doc(a=1.0), bench_doc(a=1.0), max_regression=-1)


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "doc",
        [{}, {"engines": {}}, {"engines": "oops"}, {"something": 1}],
    )
    def test_missing_engines_mapping(self, doc):
        with pytest.raises(ValueError, match="engines"):
            diff_documents(doc, bench_doc(a=1.0))

    @pytest.mark.parametrize("entry", [{}, 3.5, None, [1.0]])
    def test_engine_without_wall_seconds(self, entry):
        with pytest.raises(ValueError, match="wall_seconds"):
            diff_documents({"engines": {"a": entry}}, bench_doc(a=1.0))

    @pytest.mark.parametrize("wall", [None, "fast", 0, -1.0, [1.0], True])
    def test_wall_must_be_a_positive_number(self, wall):
        with pytest.raises(ValueError, match="wall_seconds must be a positive"):
            diff_documents(
                {"engines": {"a": {"wall_seconds": wall}}}, bench_doc(a=1.0)
            )
        # The candidate side is held to the same rule as the baseline.
        with pytest.raises(ValueError, match="candidate"):
            diff_documents(
                bench_doc(a=1.0), {"engines": {"a": {"wall_seconds": wall}}}
            )

    def test_profile_without_buckets(self):
        with pytest.raises(ValueError, match="buckets"):
            diff_documents({"schema": PROFILE_SCHEMA}, profile_doc(1.0))


class TestLoadDocument:
    def test_loads_json_object(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(bench_doc(a=1.0)))
        assert "engines" in load_document(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_document(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_document(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_document(path)


class TestRenderDiff:
    def test_renders_table_and_verdict(self):
        rows, failures = diff_documents(
            bench_doc(dist1d=1.0), bench_doc(dist1d=1.6), max_regression=0.25
        )
        text = render_diff(rows, failures, 0.25)
        assert "dist1d" in text and "FAIL:" in text

    def test_ok_footer_when_clean(self):
        rows, failures = diff_documents(bench_doc(a=1.0), bench_doc(a=1.0))
        assert "OK:" in render_diff(rows, failures, 0.25)
