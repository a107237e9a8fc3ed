"""Kernel-specific tests for batched multi-source sweeps in the harness.

The invariants every (kernel, loop/sweeps) cell shares — chunking, lane
provenance, amortized timing, per-lane TEPS and validation — are one
parametrised test in ``test_harness.py``; what is left here is particular
to one kernel or to sweeps: argument rejection, the per-lane
``edges_scanned`` split, faults + sanitizer, heterogeneous-counter
aggregation, and the report rendering.
"""

import pytest

from repro.core.config import SSSPConfig
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph500.harness import (
    BenchmarkResult,
    RootRun,
    run_graph500_bfs,
    run_graph500_sssp,
    run_roots,
)
from repro.graph500.report import render_output_block
from repro.graph500.roots import sample_roots
from repro.graph500.teps import lane_teps
from repro.graph500.validation import ValidationReport
from repro.simmpi.machine import small_cluster

SCALE = 9
RANKS = 4


@pytest.fixture(scope="module")
def graph():
    return build_csr(generate_kronecker(SCALE, seed=2022))


@pytest.fixture(scope="module")
def batched(graph):
    roots = sample_roots(graph, 10, seed=2022)
    return roots, run_roots(
        graph, roots, RANKS, small_cluster(RANKS), SSSPConfig(),
        batch_roots=4,
    )


class TestLaneTeps:
    def test_amortized_share(self):
        # 1000 edges over a 2 s sweep shared by 4 lanes: 0.5 s per lane.
        assert lane_teps(1000, 2.0, 4) == 2000.0

    def test_single_lane_is_plain_teps(self):
        assert lane_teps(500, 2.0, 1) == 250.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            lane_teps(10, 1.0, 0)
        with pytest.raises(ValueError):
            lane_teps(10, 0.0, 4)


class TestBatchedSSSPHarness:
    def test_per_lane_edges_scanned_split(self, batched):
        _, runs = batched
        group = [r for r in runs if r.batch == 0]
        scans = [r.counters["edges_scanned"] for r in group]
        assert all(s > 0 for s in scans)
        # Lanes share one traversal but are charged individually.
        assert len(set(scans)) > 1 or len(scans) == 1

    def test_rejects_bad_batch_roots(self, graph):
        roots = sample_roots(graph, 4, seed=2022)
        with pytest.raises(ValueError, match="batch_roots"):
            run_roots(
                graph, roots, RANKS, small_cluster(RANKS), SSSPConfig(),
                batch_roots=0,
            )

    def test_rejects_non_dist1d_engine(self, graph):
        roots = sample_roots(graph, 4, seed=2022)
        with pytest.raises(ValueError, match="dist1d"):
            run_roots(
                graph, roots, RANKS, small_cluster(RANKS), SSSPConfig(),
                engine="dist2d", batch_roots=4,
            )

    def test_full_protocol_with_faults_and_sanitizer(self):
        result = run_graph500_sssp(
            scale=SCALE, num_ranks=RANKS, num_roots=6, batch_roots=6,
            faults="drop=0.02,seed=7", sanitize=True,
        )
        assert result.all_valid
        assert len(result.roots) == 6
        assert all(r.lane is not None for r in result.roots)


class TestHeterogeneousCounters:
    """Satellite: aggregation must tolerate mixed counter key sets."""

    def _result_with(self, runs):
        return BenchmarkResult(
            scale=SCALE, edgefactor=16, seed=1, num_ranks=RANKS,
            machine_name="m", config=SSSPConfig(), num_vertices=512,
            num_edges_generated=8192, num_edges_csr=9000,
            generation_wall_seconds=0.1, construction_wall_seconds=0.1,
            roots=runs,
        )

    def _root(self, root, counters):
        return RootRun(
            root=root, simulated_seconds=1e-3, teps=1e6,
            traversed_edges=1000,
            validation=ValidationReport(ok=True, failures=[]),
            counters=counters, time_breakdown={}, trace={},
            work_imbalance=1.0,
        )

    def test_totals_tolerates_missing_keys(self):
        result = self._result_with([
            self._root(1, {"epochs": 3, "edges_relaxed": 100}),
            self._root(2, {"epochs": 4, "edges_scanned": 55}),
        ])
        assert result.totals("edges_relaxed") == 100
        assert result.totals("edges_scanned") == 55
        assert result.totals("absent") == 0

    def test_mixed_batched_and_plain_roots_aggregate(self, graph, batched):
        roots, runs = batched
        plain = run_roots(
            graph, roots[:2], RANKS, small_cluster(RANKS), SSSPConfig()
        )
        mixed = self._result_with(list(runs) + list(plain))
        # Batched lanes contribute sweep keys, plain runs relaxation keys;
        # both aggregate without KeyError.
        assert mixed.totals("batch_lanes") > 0
        assert mixed.totals("edges_relaxed") > 0

    def test_delta_sweep_tolerates_batched_counters(self, graph):
        """analysis.studies must not KeyError on sweep-style counters."""
        from repro.analysis.studies import delta_sweep

        rows = delta_sweep(graph, num_ranks=RANKS, deltas=[0.5], num_roots=2)
        assert all("epochs" in row for row in rows)


class TestBatchedReport:
    def test_output_block_reports_sweeps(self, batched, graph):
        roots, runs = batched
        result = BenchmarkResult(
            scale=SCALE, edgefactor=16, seed=2022, num_ranks=RANKS,
            machine_name="m", config=SSSPConfig(),
            num_vertices=graph.num_vertices, num_edges_generated=8192,
            num_edges_csr=graph.num_edges, generation_wall_seconds=0.1,
            construction_wall_seconds=0.1, roots=list(runs),
        )
        block = render_output_block(result)
        assert "batched: 3 multi-source sweeps x <= 4 lanes" in block

    def test_unbatched_block_has_no_sweep_line(self, graph):
        roots = sample_roots(graph, 2, seed=2022)
        runs = run_roots(
            graph, roots, RANKS, small_cluster(RANKS), SSSPConfig()
        )
        result = BenchmarkResult(
            scale=SCALE, edgefactor=16, seed=2022, num_ranks=RANKS,
            machine_name="m", config=SSSPConfig(),
            num_vertices=graph.num_vertices, num_edges_generated=8192,
            num_edges_csr=graph.num_edges, generation_wall_seconds=0.1,
            construction_wall_seconds=0.1, roots=list(runs),
        )
        assert "batched:" not in render_output_block(result)


class TestBatchedBFSHarness:
    def test_sweeps_are_labelled_bfs64(self):
        result = run_graph500_bfs(
            scale=SCALE, num_ranks=RANKS, num_roots=10, batch_roots=8
        )
        assert result.all_valid
        assert result.direction == "bfs64"
        assert [r.batch for r in result.roots] == [0] * 8 + [1] * 2

    def test_rejects_too_many_lanes(self):
        with pytest.raises(ValueError, match=r"\[1, 64\]"):
            run_graph500_bfs(scale=SCALE, num_roots=4, batch_roots=65)

    def test_rejects_direction_with_batching(self):
        with pytest.raises(ValueError, match="direction"):
            run_graph500_bfs(
                scale=SCALE, num_roots=4, batch_roots=4, direction="top_down"
            )
