"""Tests for the evaluation drivers (scaling, ablation, sweep, projection)."""

import numpy as np
import pytest

from repro.analysis.studies import ablation_study, default_ablation_variants
from repro.analysis.projection import ProjectionModel, fit_projection_model
from repro.analysis.studies import strong_scaling, weak_scaling
from repro.analysis.studies import default_delta_grid, delta_sweep
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.simmpi.machine import small_cluster, sunway_exascale


@pytest.fixture(scope="module")
def kron11():
    return build_csr(generate_kronecker(11, seed=13))


class TestWeakScaling:
    def test_rows_and_efficiency(self):
        rows = weak_scaling(8, [1, 2, 4], num_roots=2)
        assert len(rows) == 6  # 2 variants x 3 node counts
        opt = [r for r in rows if r["variant"] == "optimized"]
        assert [r["nodes"] for r in opt] == [1, 2, 4]
        assert [r["scale"] for r in opt] == [8, 9, 10]
        assert opt[0]["efficiency"] == pytest.approx(1.0)
        for r in rows:
            assert 0 < r["efficiency"] <= 1.5

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            weak_scaling(8, [3], num_roots=1)

    @pytest.mark.parametrize("bad", [0, -2])
    def test_rejects_non_positive_node_counts_by_name(self, bad):
        # Was OverflowError / "cannot convert float NaN to integer" from log2.
        with pytest.raises(ValueError, match=f"power-of-two node counts, got {bad}"):
            weak_scaling(8, [1, bad], num_roots=1)
        with pytest.raises(ValueError, match=f"positive node counts, got {bad}"):
            strong_scaling(8, [1, bad], num_roots=1)

    @pytest.mark.parametrize("study", [weak_scaling, strong_scaling])
    def test_rejects_empty_node_counts(self, study):
        # strong_scaling(8, []) was an IndexError.
        with pytest.raises(ValueError, match="at least one node count"):
            study(8, [], num_roots=1)


class TestStrongScaling:
    def test_speedup_columns(self):
        rows = strong_scaling(10, [1, 2, 4], num_roots=2)
        opt = [r for r in rows if r["variant"] == "optimized"]
        assert opt[0]["speedup"] == pytest.approx(1.0)
        assert opt[0]["ideal"] == 1.0
        assert opt[-1]["ideal"] == 4.0
        assert all(r["mean_sim_s"] > 0 for r in rows)
        # At toy scale strong scaling may turn over (sync-bound); the
        # speedup column must still be consistent with the times.
        assert opt[-1]["speedup"] == pytest.approx(
            opt[0]["mean_sim_s"] / opt[-1]["mean_sim_s"]
        )


class TestAblation:
    def test_variant_family(self):
        variants = default_ablation_variants()
        assert "optimized" in variants and "baseline" in variants
        assert len(variants) == 7

    def test_rows(self, kron11):
        rows = ablation_study(kron11, num_ranks=4, num_roots=2)
        names = [r["variant"] for r in rows]
        assert names[0] == "optimized"
        baseline = next(r for r in rows if r["variant"] == "baseline")
        assert baseline["speedup_vs_baseline"] == pytest.approx(1.0)
        assert all(r["valid"] for r in rows)

    def test_coalescing_cuts_bytes(self, kron11):
        rows = ablation_study(kron11, num_ranks=4, num_roots=2)
        by = {r["variant"]: r for r in rows}
        assert by["optimized"]["bytes"] < by["-coalescing"]["bytes"]

    def test_custom_variants(self, kron11):
        from repro.core.config import SSSPConfig

        rows = ablation_study(
            kron11,
            num_ranks=2,
            num_roots=1,
            variants={"a": SSSPConfig(), "b": SSSPConfig(delta=0.5)},
        )
        assert [r["variant"] for r in rows] == ["a", "b"]


class TestDeltaSweep:
    def test_grid(self, kron11):
        grid = default_delta_grid(kron11, points=5)
        assert len(grid) == 5
        assert grid[0] < grid[-1]
        with pytest.raises(ValueError):
            default_delta_grid(kron11, points=1)

    def test_sweep_shape(self, kron11):
        rows = delta_sweep(kron11, num_ranks=4, deltas=[0.02, 0.2, 1.0], num_roots=2)
        assert len(rows) == 4  # 3 grid + adaptive
        assert rows[-1]["tag"] == "adaptive"
        # U-shape drivers: small delta -> more supersteps; large -> more relaxations.
        assert rows[0]["supersteps"] > rows[2]["supersteps"]
        assert rows[2]["edges_relaxed"] > rows[0]["edges_relaxed"]


class TestProjection:
    @pytest.fixture(scope="class")
    def model(self):
        model, results = fit_projection_model(scales=[9, 10, 11], num_ranks=8, num_roots=2)
        return model

    def test_fit_coefficients_sane(self, model):
        assert 1.0 < model.relax_per_edge < 20.0
        assert 0.0 < model.bytes_per_edge < 50.0
        assert model.work_imbalance >= 1.0
        assert model.steps_slope >= 0.0

    def test_projection_headline(self, model):
        p = model.project(42, 107_520, sunway_exascale())
        assert p.cores > 40_000_000
        assert p.directed_edges > 1.4e14 * 0.99
        assert p.total_seconds > 0
        # The paper's regime: communication or compute bound, not sync bound.
        assert p.t_sync < p.total_seconds / 2
        # Modeled GTEPS in a plausible exascale band.
        assert 100 < p.gteps < 1e6

    def test_projection_monotone_in_nodes(self, model):
        small = model.project(36, 1024, sunway_exascale())
        large = model.project(36, 65536, sunway_exascale())
        assert large.total_seconds < small.total_seconds

    def test_efficiency_derate(self, model):
        raw = model.project(40, 65536, sunway_exascale(), efficiency=1.0)
        derated = model.project(40, 65536, sunway_exascale(), efficiency=0.25)
        assert derated.total_seconds > raw.total_seconds
        with pytest.raises(ValueError):
            model.project(40, 1024, sunway_exascale(), efficiency=0.0)

    def test_capacity_check(self, model):
        with pytest.raises(ValueError):
            model.project(42, 200_000, sunway_exascale())

    def test_fit_needs_two_scales(self):
        with pytest.raises(ValueError):
            fit_projection_model(scales=[10], num_ranks=2, num_roots=1)

    def test_supersteps_floor(self):
        m = ProjectionModel(
            relax_per_edge=2,
            bytes_per_edge=2,
            steps_intercept=-100,
            steps_slope=0.1,
            work_imbalance=1.1,
        )
        assert m.supersteps(10) == 1.0
