"""Tests for the design-choice sweeps and the engine comparison driver."""

import numpy as np
import pytest

from repro.analysis.studies import engine_comparison
from repro.analysis.studies import fusion_cap_sweep, hub_threshold_sweep
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph.synth import star_graph


@pytest.fixture(scope="module")
def kron11():
    return build_csr(generate_kronecker(11, seed=17))


class TestHubThresholdSweep:
    def test_rows_cover_references_and_grid(self, kron11):
        rows = hub_threshold_sweep(kron11, num_ranks=4, thresholds=[50, 200], num_roots=1)
        labels = [r["threshold"] for r in rows]
        assert labels[0] == "off"
        assert labels[1].startswith("auto")
        assert "50" in labels and "200" in labels

    def test_lower_threshold_means_more_hubs(self, kron11):
        rows = hub_threshold_sweep(kron11, num_ranks=4, thresholds=[50, 400], num_roots=1)
        by = {r["threshold"]: r for r in rows}
        assert by["50"]["hubs"] > by["400"]["hubs"]
        assert by["off"]["hubs"] == 0

    def test_delegation_balances_star(self):
        g = build_csr(star_graph(3000, weight=0.5))
        rows = hub_threshold_sweep(g, num_ranks=8, thresholds=[16], num_roots=1)
        by = {r["threshold"]: r for r in rows}
        assert by["16"]["work_imbalance"] < by["off"]["work_imbalance"]


class TestFusionCapSweep:
    def test_monotone_superstep_reduction(self, kron11):
        rows = fusion_cap_sweep(kron11, num_ranks=2, caps=[1, 4, 64], num_roots=1)
        steps = [r["supersteps"] for r in rows]
        assert steps[0] >= steps[1] >= steps[2]

    def test_cap_one_equals_no_fusion(self, kron11):
        from repro import run
        from repro.core.config import SSSPConfig
        from repro.graph500.roots import sample_roots

        root = int(sample_roots(kron11, 1, seed=2022)[0])
        capped = run(kron11, root, num_ranks=2, config=SSSPConfig(fusion_cap=1))
        off = run(kron11, root, num_ranks=2, config=SSSPConfig().without("fuse_buckets"))
        assert capped.comm["supersteps"] == off.comm["supersteps"]


class TestEngineComparison:
    def test_all_engines_agree_and_report(self, kron11):
        rows = engine_comparison(kron11, num_ranks=9, num_roots=1)
        assert [r["engine"] for r in rows] == [
            "1-D optimized",
            "1-D baseline",
            "1-D hierarchical",
            "2-D checkerboard",
        ]
        for r in rows:
            assert r["mean_sim_s"] > 0
            assert r["supersteps"] > 0
