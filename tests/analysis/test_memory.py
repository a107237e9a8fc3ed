"""Tests for the memory feasibility model."""

import pytest

from repro.analysis.memory import estimate_memory, max_feasible_scale
from repro.simmpi.machine import laptop_machine, sunway_exascale


class TestEstimate:
    def test_record_scale_fits_full_machine(self):
        m = sunway_exascale()
        est = estimate_memory(42, m.max_nodes, m)
        assert est.fits
        # The paper's scale leaves real headroom; the steady state is small.
        assert est.total_per_node / est.mem_per_node < 0.5

    def test_scale_44_does_not_fit(self):
        m = sunway_exascale()
        assert not estimate_memory(44, m.max_nodes, m).fits

    def test_construction_peak_dominates(self):
        est = estimate_memory(40, 65536, sunway_exascale())
        assert est.construction_peak_per_node > est.total_per_node

    def test_footprint_scales_inversely_with_nodes(self):
        m = sunway_exascale()
        half = estimate_memory(40, 50_000, m)
        full = estimate_memory(40, 100_000, m)
        assert full.total_per_node < half.total_per_node

    def test_row_fields(self):
        row = estimate_memory(30, 1024, sunway_exascale()).row()
        assert {"scale", "nodes", "steady_GB/node", "k1_peak_GB/node", "fits"} <= set(row)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            estimate_memory(0, 4)
        with pytest.raises(ValueError):
            estimate_memory(30, 0)
        with pytest.raises(ValueError):
            estimate_memory(30, 10**7, sunway_exascale())


class TestMaxFeasible:
    def test_full_machine(self):
        # Record ran at 42; the model must place the wall within two scales.
        assert max_feasible_scale(107_520, sunway_exascale()) in (42, 43, 44)

    def test_laptop(self):
        s = max_feasible_scale(1, laptop_machine())
        assert 20 <= s <= 30

    def test_monotone_in_nodes(self):
        m = sunway_exascale()
        assert max_feasible_scale(1024, m) <= max_feasible_scale(65536, m)
