"""The perf-regression gate must fail loudly, not crash, on bad baselines."""

import json

import pytest

from repro.analysis.perfbench import check_regression
from repro.cli import main

CURRENT = {"engines": {"dist1d": {"wall_seconds": 1.0}}}

BENCH = ["bench", "--scale", "8", "--ranks", "2", "--engines", "dist1d"]


class TestCheckRegression:
    def test_passes_within_tolerance(self):
        baseline = {"engines": {"dist1d": {"wall_seconds": 0.9}}}
        assert check_regression(CURRENT, baseline, max_regression=0.30) == []

    def test_flags_a_regression(self):
        baseline = {"engines": {"dist1d": {"wall_seconds": 0.5}}}
        failures = check_regression(CURRENT, baseline, max_regression=0.30)
        assert len(failures) == 1
        assert "exceeds baseline" in failures[0]

    def test_flags_engine_missing_from_current(self):
        baseline = {
            "engines": {
                "dist1d": {"wall_seconds": 1.0},
                "bfs": {"wall_seconds": 1.0},
            }
        }
        failures = check_regression(CURRENT, baseline)
        assert failures == ["bfs: missing from current run"]

    @pytest.mark.parametrize(
        "baseline",
        [
            {},
            [],
            {"engines": {}},
            {"engines": "oops"},
            {"something_else": 1},
        ],
    )
    def test_document_without_engines_raises(self, baseline):
        with pytest.raises(ValueError, match="non-empty 'engines' mapping"):
            check_regression(CURRENT, baseline)

    @pytest.mark.parametrize("wall", [None, "fast", 0, -1.0, [1.0]])
    def test_bad_wall_seconds_raises(self, wall):
        baseline = {"engines": {"dist1d": {"wall_seconds": wall}}}
        with pytest.raises(ValueError, match="wall_seconds must be a positive"):
            check_regression(CURRENT, baseline)

    def test_engine_entry_not_a_dict_raises(self):
        baseline = {"engines": {"dist1d": 3.5}}
        with pytest.raises(ValueError, match="wall_seconds"):
            check_regression(CURRENT, baseline)


class TestMulticoreBench:
    """Shape and gate-compatibility of the P4 document."""

    @pytest.fixture(scope="class")
    def doc(self):
        from repro.analysis.perfbench import run_multicore_bench

        return run_multicore_bench(
            6, 4, engines=("dist1d",), backends=("thread",),
            worker_counts=(2,), repeats=1,
        )

    def test_entries_keyed_engine_at_backend_at_workers(self, doc):
        assert doc["benchmark"] == "P4_multicore"
        assert set(doc["engines"]) == {"dist1d@serial", "dist1d@thread@w2"}
        for entry in doc["engines"].values():
            assert entry["wall_seconds"] > 0
            assert "tracemalloc_peak_bytes" not in entry  # wall-clock only

    def test_bit_identity_digest_matches_across_backends(self, doc):
        shas = {e["result_sha256"] for e in doc["engines"].values()}
        assert len(shas) == 1

    def test_speedup_and_host_cpus_recorded(self, doc):
        assert doc["speedup"]["dist1d@thread@w2"] == pytest.approx(
            doc["engines"]["dist1d@serial"]["wall_seconds"]
            / doc["engines"]["dist1d@thread@w2"]["wall_seconds"]
        )
        assert doc["host_cpus"] >= 1
        assert doc["worker_counts"] == [2]

    def test_executor_meta_embedded(self, doc):
        assert doc["engines"]["dist1d@serial"]["executor"] == {
            "backend": "serial", "workers": 1,
        }
        assert doc["engines"]["dist1d@thread@w2"]["executor"] == {
            "backend": "thread", "workers": 2,
        }

    def test_check_regression_gates_the_p4_document(self, doc):
        # The @backend@wN keys ride through the existing gate unchanged.
        assert check_regression(doc, doc, max_regression=0.0) == []
        tighter = json.loads(json.dumps(doc))
        tighter["engines"]["dist1d@thread@w2"]["wall_seconds"] /= 10.0
        failures = check_regression(doc, tighter, max_regression=0.30)
        assert failures and "dist1d@thread@w2" in failures[0]

    def test_bench_multicore_cli(self, capsys):
        rc = main(
            ["bench", "--multicore", "--scale", "6", "--ranks", "2",
             "--engines", "dist1d", "--backends", "thread",
             "--worker-counts", "1", "--repeats", "1"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["benchmark"] == "P4_multicore"
        assert list(doc["engines"]) == ["dist1d@serial", "dist1d@thread@w1"]


class TestBenchCheckCli:
    """Exit codes of ``repro bench --check``: 2 = unusable baseline."""

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        rc = main(BENCH + ["--check", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "baseline not found" in capsys.readouterr().err

    def test_invalid_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        rc = main(BENCH + ["--check", str(bad)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_malformed_document_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"engines": {}}))
        rc = main(BENCH + ["--check", str(bad)])
        assert rc == 2
        assert "malformed baseline" in capsys.readouterr().err

    def test_generous_baseline_passes(self, tmp_path, capsys):
        ok = tmp_path / "baseline.json"
        ok.write_text(json.dumps({"engines": {"dist1d": {"wall_seconds": 1e6}}}))
        rc = main(BENCH + ["--check", str(ok)])
        assert rc == 0
        assert "within 30%" in capsys.readouterr().err
