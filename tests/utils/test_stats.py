"""Tests for statistics helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import harmonic_mean, summarize
from repro.utils.timing import Counters, Timer


class TestMeans:
    def test_harmonic_known_value(self):
        assert harmonic_mean(np.array([1.0, 2.0, 4.0])) == pytest.approx(12.0 / 7.0)

    def test_harmonic_constant(self):
        assert harmonic_mean(np.full(5, 3.0)) == pytest.approx(3.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            harmonic_mean(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            harmonic_mean(np.array([-1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            harmonic_mean(np.array([]))

    @given(st.lists(st.floats(0.001, 1e6), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_mean_inequality(self, values):
        """AM >= GM >= HM for positive values."""
        x = np.array(values)
        am = x.mean()
        gm = float(np.exp(np.log(x).mean()))
        hm = harmonic_mean(x)
        assert am >= gm * (1 - 1e-9)
        assert gm >= hm * (1 - 1e-9)


class TestSummarize:
    def test_basic_fields(self):
        s = summarize(np.array([1.0, 2.0, 3.0, 4.0]))
        assert s.n == 4
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.median == pytest.approx(2.5)
        assert s.hmean is not None
        assert s.hmean <= s.mean

    def test_single_value(self):
        s = summarize(np.array([5.0]))
        assert s.stddev == 0.0
        assert s.hmean == pytest.approx(5.0)
        assert s.hmean_stderr == 0.0

    def test_nonpositive_disables_hmean(self):
        s = summarize(np.array([0.0, 1.0]))
        assert s.hmean is None

    def test_row_shape(self):
        row = summarize(np.array([1.0, 2.0])).row()
        assert set(row) == {"n", "min", "q1", "median", "q3", "max", "mean", "stddev", "hmean"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize(np.array([]))


class TestTimerCounters:
    def test_timer_accumulates(self):
        t = Timer()
        with t:
            pass
        with t:
            pass
        assert t.laps == 2
        assert t.seconds >= 0.0

    def test_timer_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.laps == 0 and t.seconds == 0.0

    def test_counters_add_get(self):
        c = Counters()
        c.add("edges", 10)
        c.add("edges", 5)
        assert c["edges"] == 15
        assert c["missing"] == 0

    def test_counters_merge(self):
        a, b = Counters(), Counters()
        a.add("x", 1)
        b.add("x", 2)
        b.add("y", 3)
        a.merge(b)
        assert a.as_dict() == {"x": 3, "y": 3}

    def test_counters_reset(self):
        c = Counters()
        c.add("x")
        c.reset()
        assert c.as_dict() == {}
