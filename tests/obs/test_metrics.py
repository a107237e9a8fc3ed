"""Tests for the power-of-two histogram behind the timeline's task percentiles."""

import json
import math

import pytest

from repro.obs.metrics import Histogram


class TestHistogram:
    def test_summary_stats(self):
        h = Histogram()
        for v in (1, 2, 4, 100):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["sum"] == 107.0
        assert s["min"] == 1.0 and s["max"] == 100.0
        assert math.isclose(s["mean"], 26.75)
        assert json.loads(json.dumps(s)) == s

    def test_power_of_two_buckets(self):
        h = Histogram()
        h.observe(0)      # le_1
        h.observe(1)      # le_1
        h.observe(3)      # le_4
        h.observe(1024)   # le_1024
        assert h.summary()["buckets"] == {"le_1": 2, "le_4": 1, "le_1024": 1}

    def test_observe_many(self):
        h = Histogram()
        h.observe_many([1, 2, 3])
        assert h.count == 3

    def test_empty_histogram_summary(self):
        s = Histogram().summary()
        assert s["count"] == 0
        assert s["min"] is None and s["max"] is None


class TestHistogramPercentile:
    def test_empty_returns_none(self):
        assert Histogram().percentile(0.5) is None

    def test_q_out_of_range(self):
        h = Histogram()
        h.observe(1.0)
        for q in (-0.1, 1.5):
            with pytest.raises(ValueError, match="percentile q"):
                h.percentile(q)

    def test_single_observation_is_exact(self):
        h = Histogram()
        h.observe(5.0)
        for q in (0.0, 0.5, 1.0):
            assert h.percentile(q) == 5.0

    def test_extremes_clamp_to_observed_min_max(self):
        h = Histogram()
        h.observe_many([3.0, 17.0, 250.0])
        assert h.percentile(0.0) == 3.0
        assert h.percentile(1.0) == 250.0

    def test_uniform_interpolation(self):
        # 1..100: the p50 target falls exactly mid-way through the
        # (32, 64] bucket, which holds values 33..64 -> interpolates to 50.
        h = Histogram()
        h.observe_many(float(v) for v in range(1, 101))
        assert h.percentile(0.50) == pytest.approx(50.0)
        # p99 lands in the top bucket and clamps to the observed max.
        assert h.percentile(0.99) <= 100.0

    def test_monotone_in_q(self):
        h = Histogram()
        h.observe_many([0.5, 2.0, 6.0, 6.5, 40.0, 1000.0])
        ps = [h.percentile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert ps == sorted(ps)
