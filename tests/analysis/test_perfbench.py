"""The one bench runner: every protocol reproduces its committed receipts.

Each protocol runs once at the parameters of its committed smoke document
(``benchmarks/results/BENCH_*_smoke.json``); everything deterministic in
a document — entry keys, answer digests, modeled time, wire bytes,
counters — must equal the committed value, which makes the committed
documents the refactor oracle of ``run_bench``.  Wall-clock is what
``repro bench diff`` gates, not these tests.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.perfbench import PROTOCOLS, run_bench
from repro.cli import build_parser, main

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

#: protocol -> (scale, ranks, keywords) of the committed smoke document.
SMOKE = {
    "P1": (12, 8, {}),
    "P4": (10, 8, {"worker_counts": (1, 2)}),
    "K1": (10, 8, {"backends": ("serial", "thread"), "workers": 2}),
    "B1": (10, 4, {"backends": ("serial",), "num_roots": 16, "batch_roots": 16}),
}
PINNED = ("result_sha256", "modeled_time", "total_bytes", "counters")


@pytest.fixture(scope="module", params=sorted(SMOKE))
def smoke(request):
    scale, ranks, options = SMOKE[request.param]
    committed = json.loads((RESULTS / f"BENCH_{request.param}_smoke.json").read_text())
    return request.param, committed, run_bench(request.param, scale, ranks, repeats=1, **options)


def test_protocol_reproduces_its_committed_smoke_receipts(smoke):
    protocol, committed, doc = smoke
    assert doc["benchmark"] == committed["benchmark"] == PROTOCOLS[protocol][0]
    assert doc["host_cpus"] >= 1  # every document says what host measured it
    for field in ("scale", "num_ranks", "seed", "num_vertices", "num_edges", "source"):
        assert doc.get(field) == committed.get(field), field
    assert set(doc["engines"]) == set(committed["engines"])
    assert set(doc.get("speedup", {})) == set(committed.get("speedup", {}))
    for key, entry in committed["engines"].items():
        fresh = doc["engines"][key]
        assert set(entry) <= set(fresh), key
        for field in PINNED:
            if field in entry:
                assert fresh[field] == entry[field], (key, field)
        assert fresh["wall_seconds"] == min(fresh["wall_seconds_all"])
        assert fresh["wall_seconds"] > 0


def test_speedups_divide_the_reference_wall(smoke):
    protocol, _, doc = smoke
    eng = doc["engines"]
    reference = {
        "P4": lambda key: key.split("@")[0] + "@serial",
        "B1": lambda key: {"bfs64": "bfs_loop", "sssp_batch": "sssp_loop"}[
            key.split("@")[0]
        ] + "@serial",
    }.get(protocol)
    if reference is None:
        pytest.skip(f"{protocol} has no speedup section")
    for key, ratio in doc["speedup"].items():
        ref = reference(key)
        assert ratio == pytest.approx(eng[ref]["wall_seconds"] / eng[key]["wall_seconds"])
        # A speedup is only ever reported for the same answer.
        assert eng[key]["result_sha256"] == eng[ref]["result_sha256"]


def test_protocol_specific_fields(smoke):
    protocol, _, doc = smoke
    eng = doc["engines"]
    if protocol == "P1":
        assert all("tracemalloc_peak_bytes" in e and "result_sha256" not in e for e in eng.values())
    elif protocol == "P4":
        assert doc["worker_counts"] == [1, 2]
        assert "tracemalloc_peak_bytes" not in eng["dist1d@serial"]  # wall-clock only
        assert eng["dist1d@serial"]["executor"] == {"backend": "serial", "workers": 1}
        assert eng["dist1d@thread@w2"]["executor"] == {"backend": "thread", "workers": 2}
    elif protocol == "K1":
        assert doc["workers"] == 2
        assert eng["cc@thread"]["result_sha256"] == eng["cc@serial"]["result_sha256"]
    else:
        assert (doc["num_roots"], doc["batch_roots"]) == (16, 16)
        assert doc["delta"] > doc["batch_delta"] > 0
        assert eng["bfs_loop@serial"]["result_sha256"] != eng["sssp_loop@serial"]["result_sha256"]
        for entry in eng.values():
            assert entry["roots_per_sec"] == pytest.approx(16 / entry["wall_seconds"])


class TestBenchCli:
    def test_protocol_flag_selects_the_protocol(self, capsys):
        rc = main(
            ["bench", "--protocol", "P4", "--scale", "6", "--ranks", "2",
             "--engines", "dist1d", "--backends", "thread",
             "--worker-counts", "1", "--repeats", "1"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["benchmark"] == "P4_multicore"
        assert list(doc["engines"]) == ["dist1d@serial", "dist1d@thread@w1"]

    def test_b1_writes_the_document(self, capsys, tmp_path):
        out = tmp_path / "BENCH_B1.json"
        rc = main(
            ["bench", "--protocol", "B1", "--scale", "7", "--ranks", "2",
             "--bench-roots", "4", "--batch-roots", "4", "--backends",
             "serial", "--repeats", "1", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc == json.loads(capsys.readouterr().out)
        assert set(doc["engines"]) == {
            f"{k}@serial" for k in ("bfs_loop", "bfs64", "sssp_loop", "sssp_batch")
        }

    def test_default_protocol_is_p1(self):
        assert build_parser().parse_args(["bench"]).protocol == "P1"

    @pytest.mark.parametrize(
        "flag", [["--multicore"], ["--batched"], ["--check", "x.json"], ["--max-regression", "0.3"]]
    )
    def test_mode_and_gate_flags_are_gone(self, flag, capsys):
        # The gate is `repro bench diff OLD NEW --max-regression R`.
        with pytest.raises(SystemExit):
            main(["bench", "--scale", "6", *flag])
        capsys.readouterr()
