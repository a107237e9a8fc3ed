"""Tests for root sampling, TEPS aggregation and the benchmark harness."""

import numpy as np
import pytest

from repro.core.config import SSSPConfig
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph.synth import star_graph
from repro.graph500.harness import run_graph500_bfs, run_graph500_sssp, run_roots
from repro.graph500.report import render_output_block, render_table
from repro.graph500.roots import sample_roots
from repro.graph500.spec import GRAPH500_EDGEFACTOR, GRAPH500_NUM_ROOTS, problem_class
from repro.graph500.teps import lane_teps, teps_summary


class TestSpec:
    def test_constants(self):
        assert GRAPH500_EDGEFACTOR == 16
        assert GRAPH500_NUM_ROOTS == 64

    def test_problem_class(self):
        assert problem_class(26) == "toy"
        assert problem_class(41) == "large"
        assert problem_class(42) == "huge"
        assert problem_class(50) == "huge"
        assert problem_class(10) == "sub-toy"


class TestRoots:
    def test_no_isolated_roots(self):
        g = build_csr(generate_kronecker(9))
        roots = sample_roots(g, 32)
        assert np.all(g.out_degree[roots] > 0)

    def test_distinct(self):
        g = build_csr(generate_kronecker(9))
        roots = sample_roots(g, 64)
        assert np.unique(roots).size == roots.size

    def test_deterministic(self):
        g = build_csr(generate_kronecker(9))
        assert np.array_equal(sample_roots(g, 16, seed=4), sample_roots(g, 16, seed=4))

    def test_seed_changes_sample(self):
        g = build_csr(generate_kronecker(9))
        assert not np.array_equal(sample_roots(g, 16, seed=4), sample_roots(g, 16, seed=5))

    def test_caps_at_candidates(self):
        g = build_csr(star_graph(4))
        roots = sample_roots(g, 100)
        assert roots.size == 4

    def test_rejects_empty_graph(self):
        from repro.graph.types import EdgeList

        g = build_csr(EdgeList(np.array([]), np.array([]), np.array([]), 5))
        with pytest.raises(ValueError):
            sample_roots(g, 4)

    def test_rejects_bad_count(self):
        g = build_csr(star_graph(4))
        with pytest.raises(ValueError):
            sample_roots(g, 0)


class TestTeps:
    def test_harmonic(self):
        s = teps_summary(np.array([1e6, 2e6, 4e6]))
        assert s.hmean == pytest.approx(3e6 / 1.75)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            teps_summary(np.array([1e6, 0.0]))


SCALE = 9
RANKS = 4


@pytest.fixture(scope="module")
def graph():
    return build_csr(generate_kronecker(SCALE, seed=2022))


@pytest.fixture(scope="module")
def sample(graph):
    return sample_roots(graph, 10, seed=2022)


@pytest.fixture(scope="module")
def unbatched(graph, sample):
    return {
        kernel: run_roots(graph, sample, RANKS, kernel=kernel)
        for kernel in ("sssp", "bfs")
    }


@pytest.mark.parametrize("batch_roots", [None, 4], ids=["loop", "sweeps"])
@pytest.mark.parametrize("kernel", ["sssp", "bfs"])
def test_root_loop_invariants(graph, sample, unbatched, kernel, batch_roots):
    """The one root loop, for every kernel, looped and in sweeps."""
    plain = unbatched[kernel]
    runs = plain if batch_roots is None else run_roots(
        graph, sample, RANKS, kernel=kernel, batch_roots=batch_roots
    )
    # Every root gets a run, in sample order.
    assert [r.root for r in runs] == [int(r) for r in sample]
    # Chunking and lane provenance.
    if batch_roots is None:
        assert all(
            r.lane is None and r.batch is None and r.sweep_seconds is None
            for r in runs
        )
        groups = [[r] for r in runs]
    else:
        assert [r.batch for r in runs] == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
        assert [r.lane for r in runs] == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]
        assert [r.counters["batch_lanes"] for r in runs] == [4] * 8 + [2] * 2
        groups = [[r for r in runs if r.batch == b] for b in (0, 1, 2)]
    # Amortised time sums to the sweep's; TEPS is the lane's share of it.
    for group in groups:
        sweep = group[0].sweep_seconds or group[0].simulated_seconds
        assert all((r.sweep_seconds or r.simulated_seconds) == sweep for r in group)
        assert sum(r.simulated_seconds for r in group) == pytest.approx(
            sweep, rel=1e-12
        )
        for r in group:
            assert r.teps == lane_teps(r.traversed_edges, sweep, len(group))
            assert r.teps > 0
            assert r.teps == pytest.approx(r.traversed_edges / r.simulated_seconds)
    # Every lane is validated on its own answer.
    assert all(r.validation.ok and r.validation.failures == [] for r in runs)
    # Answers equal the unbatched loop's.
    assert [r.traversed_edges for r in runs] == [r.traversed_edges for r in plain]
    if kernel == "bfs":
        assert all(r.counters["levels"] > 0 for r in runs)
        assert [r.counters["levels"] for r in runs] == [
            r.counters["levels"] for r in plain
        ]


@pytest.mark.parametrize("harness", [run_graph500_sssp, run_graph500_bfs])
def test_pipeline_front_times_generation_and_construction_apart(harness):
    res = harness(scale=8, num_ranks=4, num_roots=2, seed=5)
    assert res.generation_wall_seconds > 0
    assert res.construction_wall_seconds > 0
    assert res.num_edges_generated == GRAPH500_EDGEFACTOR << 8
    assert res.num_vertices == 256
    assert res.num_edges_csr <= 2 * res.num_edges_generated
    assert res.teps.hmean > 0 and res.teps.minimum > 0


class TestHarness:
    @pytest.fixture(scope="class")
    def result(self):
        return run_graph500_sssp(scale=8, num_ranks=4, num_roots=6, seed=5)

    def test_all_roots_run_and_validate(self, result):
        assert len(result.roots) == 6
        assert result.all_valid

    def test_row(self, result):
        row = result.row()
        assert row["kernel"] == "SSSP"
        assert row["scale"] == 8
        assert row["valid"] is True
        assert row["variant"] == "optimized"

    def test_totals(self, result):
        assert result.totals("edges_relaxed") > 0
        assert result.totals("nonexistent") == 0

    def test_output_block_renders(self, result):
        block = render_output_block(result)
        assert "harmonic_mean_TEPS" in block
        assert "validation: PASSED" in block
        assert f"SCALE: 8" in block

    def test_baseline_config_threads_through(self):
        res = run_graph500_sssp(
            scale=7, num_ranks=2, num_roots=2, config=SSSPConfig.baseline()
        )
        assert res.row()["variant"] == "baseline"
        assert res.all_valid

    def test_validate_can_be_skipped(self):
        res = run_graph500_sssp(scale=7, num_ranks=2, num_roots=2, validate=False)
        assert res.all_valid  # vacuous reports


class TestBFSHarness:
    def test_row_and_output_block(self):
        result = run_graph500_bfs(scale=8, num_ranks=4, num_roots=6, seed=5)
        row = result.row()
        assert row["kernel"] == "BFS"
        assert row["valid"] is True
        assert row["variant"] == result.direction == "auto"
        block = render_output_block(result)
        assert "variant: auto" in block and "validation: PASSED" in block

    def test_direction_threads_through(self):
        res = run_graph500_bfs(scale=7, num_ranks=2, num_roots=2, direction="top_down")
        assert res.direction == "top_down"
        assert res.all_valid

    def test_auto_beats_top_down_on_inspections(self):
        auto = run_graph500_bfs(scale=9, num_ranks=2, num_roots=2)
        td = run_graph500_bfs(scale=9, num_ranks=2, num_roots=2, direction="top_down")
        assert sum(r.counters["edges_inspected"] for r in auto.roots) < sum(
            r.counters["edges_inspected"] for r in td.roots
        )


class TestRenderTable:
    def test_basic(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        out = render_table(rows, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_empty(self):
        assert "(empty)" in render_table([])

    def test_float_formatting(self):
        out = render_table([{"v": 0.000123456}, {"v": 123456.7}, {"v": 1.5}, {"v": 0.0}])
        assert "0.0001235" in out
        assert "1.235e+05" in out
        assert "1.5" in out
