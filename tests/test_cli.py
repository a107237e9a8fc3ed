"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scale == 13
        assert args.ranks == 8
        assert not args.baseline

    def test_project_defaults(self):
        # The projection is experiment T1; `experiment` has two options, both off.
        args = build_parser().parse_args(["experiment", "T1"])
        assert (args.id, args.smoke, args.out) == ("T1", False, None)

    @pytest.mark.parametrize("command", ["ablation", "sweep", "compare", "project", "profile"])
    def test_removed_subcommands_are_unknown(self, command):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command])
        assert exit_info.value.code == 2

    def test_run_trace_flags_default_off(self):
        args = build_parser().parse_args(["run"])
        assert args.trace_out is None
        assert args.chrome_out is None

    def test_run_report_out_is_gone(self):
        # The timeline document is ``inspect --profile-out``'s to write.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "--report-out", "r.json"])
        assert exit_info.value.code == 2

    def test_inspect_requires_trace_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["inspect"])


class TestCommands:
    def test_run(self, capsys):
        rc = main(["run", "--scale", "8", "--ranks", "2", "--roots", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "harmonic_mean_TEPS" in out
        assert "validation: PASSED" in out

    def test_run_baseline(self, capsys):
        rc = main(["run", "--scale", "8", "--ranks", "2", "--roots", "2", "--baseline"])
        assert rc == 0
        assert "variant: baseline" in capsys.readouterr().out

    def test_run_prints_the_variant_the_engine_ran(self, capsys, tmp_path):
        # The grid runs none of delegation, fusion and ∆: it is not "optimized".
        trace = tmp_path / "t.jsonl"
        rc = main(["run", "--engine", "dist2d", "--scale", "8", "--ranks", "4",
                   "--roots", "2", "--trace-out", str(trace)])
        assert rc == 0
        assert "variant: part=edge_balanced +coalesce +compress" in capsys.readouterr().out
        from repro.analysis.attribution import PhaseAttribution

        meta = PhaseAttribution.from_jsonl(trace).meta
        assert meta["variant"] == "part=edge_balanced +coalesce +compress"

    def test_bfs(self, capsys):
        # Kernel 2 runs the same protocol and prints the same block as SSSP.
        rc = main(["run", "--kernel", "bfs", "--scale", "9", "--ranks", "2", "--roots", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "harmonic_mean_TEPS" in out and "variant: auto" in out
        assert "validation: PASSED" in out

    @pytest.mark.parametrize("kernel", ["sssp", "bfs"])
    def test_every_run_flag_reaches_the_kernel(self, kernel, capsys):
        rc = main(
            ["run", "--kernel", kernel, "--scale", "8", "--ranks", "4",
             "--roots", "4", "--batch-roots", "4", "--sanitize", "--racecheck",
             "--executor", "thread", "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "batched: 1 multi-source sweeps x <= 4 lanes" in out
        assert "sanitizer: 4 root run(s) audited" in out
        regions = re.search(r"racecheck: .*\((\d+) wire handles, (\d+) parallel regions\)", out)
        assert regions and int(regions.group(2)) > 0

    def test_sssp_only_flags_are_rejected_for_bfs(self):
        with pytest.raises(SystemExit, match="apply to --kernel sssp"):
            main(["run", "--kernel", "bfs", "--scale", "8", "--engine", "dist2d"])

    @pytest.mark.parametrize(
        "kernel, summary",
        [("cc", "components"), ("pagerank", "iterations"), ("kcore", "max_coreness")],
    )
    def test_whole_graph_kernel(self, kernel, summary, capsys):
        rc = main(["run", "--kernel", kernel, "--scale", "8", "--ranks", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert re.search(rf"^{kernel} +\d+ +\d+ +[\d.]+ +{summary}=\d+", out, re.M)
        assert "validation: PASSED" in out

    @pytest.mark.parametrize("kernel", ["cc", "pagerank", "kcore"])
    def test_batch_roots_rejected_for_whole_graph_kernels(self, kernel):
        with pytest.raises(SystemExit, match="multi-source kernels"):
            main(["run", "--kernel", kernel, "--scale", "8", "--batch-roots", "4"])

    def test_ablation(self, capsys):
        rc = main(["experiment", "F3", "--smoke"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "optimized" in out and "baseline" in out

    def test_sweep(self, capsys):
        rc = main(["experiment", "F4", "--smoke"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "adaptive" in out

    def test_project(self, capsys):
        rc = main(["experiment", "T1", "--smoke"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "42" in out
        assert "GTEPS (modeled)" in out

    def test_compare(self, capsys):
        rc = main(["experiment", "E3", "--smoke"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2-D checkerboard" in out
        assert "1-D optimized" in out

    def test_experiment_writes_its_document(self, capsys, tmp_path):
        import json

        rc = main(["experiment", "T2", "--out", str(tmp_path / "docs")])
        assert rc == 0
        doc = json.loads((tmp_path / "docs" / "T2.json").read_text())
        assert doc["benchmark"] == "T2" and doc["smoke"] is False
        assert all(doc["checks"].values())
        assert "T2: machine models" in capsys.readouterr().out

    def test_experiment_exits_1_when_a_shape_fails(self, capsys, monkeypatch):
        from dataclasses import replace

        from repro.analysis.experiments import EXPERIMENTS

        failing = replace(EXPERIMENTS["T2"], check=lambda rows: {"never holds": False})
        monkeypatch.setitem(EXPERIMENTS, "T2", failing)
        assert main(["experiment", "T2"]) == 1
        assert "T2: shape check failed: never holds" in capsys.readouterr().err

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "F99"]) == 2
        assert "unknown id 'F99'" in capsys.readouterr().err


class TestTelemetryWorkflow:
    def test_run_with_trace_report_chrome_then_inspect(self, capsys, tmp_path):
        import json

        trace = tmp_path / "run.jsonl"
        report = tmp_path / "report.json"
        chrome = tmp_path / "chrome.json"
        rc = main(
            [
                "run", "--scale", "8", "--ranks", "2", "--roots", "2",
                "--trace-out", str(trace),
                "--chrome-out", str(chrome),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace:" in out and "chrome trace:" in out

        # The chrome export is a loadable trace_event file with one lane
        # per rank.
        events = json.loads(chrome.read_text())["traceEvents"]
        lanes = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "rank 0" in lanes and "rank 1" in lanes

        # inspect renders a timeline summary from the saved trace.
        rc = main(["inspect", str(trace)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "per-superstep timeline" in out
        assert "supersteps:" in out

        # The written document's per-superstep byte totals are internally
        # consistent.
        assert main(["inspect", str(trace), "--profile-out", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["totals"]["total_bytes"] == sum(
            row["bytes"] for row in payload["timeline"]
        )
        assert payload["totals"]["supersteps"] == len(payload["timeline"])
        assert payload["meta"]["scale"] == 8


class TestProfileCommand:
    """A run is profiled by recording it (``run --trace-out``) and folding
    the trace (``inspect --profile-out``)."""

    def test_profile_prints_attribution_and_writes_report(self, capsys, tmp_path):
        import json

        from repro.obs.profile import PROFILE_SCHEMA, validate_profile_report

        trace = tmp_path / "run.jsonl"
        report = tmp_path / "profile.json"
        rc = main(
            [
                "run", "--scale", "8", "--ranks", "2", "--roots", "1",
                "--engine", "dist1d", "--executor", "serial",
                "--trace-out", str(trace),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(["inspect", str(trace), "--profile-out", str(report)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "per-superstep timeline" in out
        assert "wall-clock attribution" in out
        assert "dominant overhead is" in out
        doc = json.loads(report.read_text())
        assert doc["schema"] == PROFILE_SCHEMA
        validate_profile_report(doc)
        assert doc["meta"]["engine"] == "dist1d"
        assert doc["meta"]["backend"] == "serial"

    def test_profile_with_faults_still_reconciles(self, capsys, tmp_path):
        import json

        from repro.obs.profile import validate_profile_report

        trace = tmp_path / "run.jsonl"
        report = tmp_path / "profile.json"
        rc = main(
            [
                "run", "--kernel", "bfs", "--scale", "8", "--ranks", "2",
                "--roots", "1", "--faults", "drop=0.1,seed=7",
                "--trace-out", str(trace),
            ]
        )
        assert rc == 0
        assert main(["inspect", str(trace), "--profile-out", str(report)]) == 0
        doc = json.loads(report.read_text())
        validate_profile_report(doc)
        assert doc["meta"]["engine"] == "bfs"

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_written_document_equals_the_in_memory_fold(
        self, backend, capsys, tmp_path, monkeypatch
    ):
        import json

        import repro.obs
        from repro.analysis.attribution import PhaseAttribution

        tracers = []

        class RecordingTracer(repro.obs.Tracer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracers.append(self)

        monkeypatch.setattr(repro.obs, "Tracer", RecordingTracer)
        trace = tmp_path / "run.jsonl"
        report = tmp_path / "profile.json"
        rc = main(
            [
                "run", "--scale", "8", "--ranks", "4", "--roots", "2",
                "--executor", backend, "--workers", "2",
                "--trace-out", str(trace),
            ]
        )
        assert rc == 0
        assert main(["inspect", str(trace), "--profile-out", str(report)]) == 0
        (tracer,) = tracers
        in_memory = PhaseAttribution.from_records(tracer.events).to_dict()
        written = json.loads(report.read_text())
        assert written["buckets"] == in_memory["buckets"]
        assert written == json.loads(json.dumps(in_memory))

    def test_profile_out_without_phase_calls_exits_2(self, capsys, tmp_path):
        from repro.obs import JsonlSink, Tracer

        trace = tmp_path / "bare.jsonl"
        tracer = Tracer(sinks=[JsonlSink(trace)])
        with tracer.span("superstep", cat="engine", phase="light"):
            tracer.event("exchange", cat="fabric", step=0, bytes=64, messages=1)
        tracer.close()
        report = tmp_path / "profile.json"
        rc = main(["inspect", str(trace), "--profile-out", str(report)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "no phase_call events" in captured.err
        assert "per-superstep timeline" in captured.out
        assert not report.exists()


class TestBenchDiffCommand:
    @staticmethod
    def _doc(path, **engines):
        import json

        path.write_text(
            json.dumps(
                {"engines": {k: {"wall_seconds": v} for k, v in engines.items()}}
            )
        )
        return str(path)

    def test_improvement_exits_zero(self, capsys, tmp_path):
        old = self._doc(tmp_path / "old.json", dist1d=1.0)
        new = self._doc(tmp_path / "new.json", dist1d=0.7)
        rc = main(["bench", "diff", old, new])
        out = capsys.readouterr().out
        assert rc == 0
        assert "improved" in out and "OK:" in out

    def test_regression_past_threshold_exits_one(self, capsys, tmp_path):
        old = self._doc(tmp_path / "old.json", **{"dist1d@process": 1.0})
        new = self._doc(tmp_path / "new.json", **{"dist1d@process": 1.4})
        rc = main(["bench", "diff", old, new, "--max-regression", "0.2"])
        err = capsys.readouterr()
        assert rc == 1
        assert "dist1d@process" in err.out
        assert "FAIL" in err.out

    def test_malformed_document_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        good = self._doc(tmp_path / "good.json", dist1d=1.0)
        rc = main(["bench", "diff", str(bad), good])
        assert rc == 2
        assert "bench diff" in capsys.readouterr().err

    def test_profile_reports_diffable(self, capsys, tmp_path):
        import json

        from repro.obs.profile import BUCKETS, PROFILE_SCHEMA

        def prof(path, total):
            path.write_text(
                json.dumps(
                    {
                        "schema": PROFILE_SCHEMA,
                        "total_wall_s": total,
                        "buckets": {b: total / len(BUCKETS) for b in BUCKETS},
                    }
                )
            )
            return str(path)

        rc = main(
            [
                "bench", "diff",
                prof(tmp_path / "o.json", 1.0), prof(tmp_path / "n.json", 1.05),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "total_wall" in out and "bucket:compute" in out
