"""Tests for the counter-based PRNG."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.prng import BLOCK_WORDS, CounterRNG, splitmix64

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64_ref(x: int) -> int:
    """The splitmix64 finalizer on Python ints, one value at a time."""
    z = (x + _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class TestSplitmix64:
    def test_scalar_and_array_agree(self):
        xs = np.arange(10, dtype=np.uint64)
        arr = splitmix64(xs)
        for i, x in enumerate(xs):
            assert splitmix64(x) == arr[i]

    def test_is_deterministic(self):
        xs = np.arange(100, dtype=np.uint64)
        assert np.array_equal(splitmix64(xs), splitmix64(xs))

    def test_no_collisions_on_small_range(self):
        # splitmix64 is bijective; any collision indicates a broken impl.
        xs = np.arange(1 << 16, dtype=np.uint64)
        out = splitmix64(xs)
        assert np.unique(out).size == xs.size

    def test_output_spread(self):
        out = splitmix64(np.arange(4096, dtype=np.uint64))
        # Mean of uniform uint64 should be near 2^63.
        mean = out.astype(np.float64).mean()
        assert abs(mean - 2.0**63) < 2.0**63 * 0.05


class TestCounterRNG:
    def test_sequential_matches_indexed(self):
        rng = CounterRNG(42)
        seq = rng.uint64(16)
        idx = CounterRNG(42).at(np.arange(16, dtype=np.uint64))
        assert np.array_equal(seq, idx)

    def test_call_granularity_invariance(self):
        a = CounterRNG(7).uint64(10)
        r = CounterRNG(7)
        b = np.concatenate([r.uint64(3), r.uint64(3), r.uint64(4)])
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = CounterRNG(5, stream=0).uint64(32)
        b = CounterRNG(5, stream=1).uint64(32)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = CounterRNG(1).uint64(32)
        b = CounterRNG(2).uint64(32)
        assert not np.array_equal(a, b)

    def test_uniform_range(self):
        u = CounterRNG(3).uniform(10_000)
        assert u.min() >= 0.0
        assert u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02

    def test_below_bounds(self):
        v = CounterRNG(9).below(10_000, 17)
        assert v.min() >= 0
        assert v.max() < 17
        # Every residue should occur for this many draws.
        assert np.unique(v).size == 17

    def test_below_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            CounterRNG(1).below(10, 0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            CounterRNG(1).uint64(-1)

    def test_split_independence(self):
        base = CounterRNG(11)
        s1 = base.split(1).uint64(16)
        s2 = base.split(2).uint64(16)
        assert not np.array_equal(s1, s2)

    def test_shuffle_permutation_is_permutation(self):
        perm = CounterRNG(4).shuffle_permutation(1000)
        assert np.array_equal(np.sort(perm), np.arange(1000))

    def test_shuffle_permutation_deterministic(self):
        p1 = CounterRNG(4).shuffle_permutation(512)
        p2 = CounterRNG(4).shuffle_permutation(512)
        assert np.array_equal(p1, p2)

    def test_shuffle_actually_shuffles(self):
        perm = CounterRNG(4).shuffle_permutation(512)
        assert not np.array_equal(perm, np.arange(512))

    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(1, 200))
    @settings(max_examples=25, deadline=None)
    def test_uniform_always_in_range(self, seed, n):
        u = CounterRNG(seed).uniform(n)
        assert np.all(u >= 0.0)
        assert np.all(u < 1.0)

    @given(seed=st.integers(0, 2**31), split_at=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_granularity_property(self, seed, split_at):
        whole = CounterRNG(seed).uint64(50)
        r = CounterRNG(seed)
        parts = np.concatenate([r.uint64(split_at), r.uint64(50 - split_at)])
        assert np.array_equal(whole, parts)


class TestBlockedEvaluation:
    """``at`` runs in blocks of BLOCK_WORDS counters; the block edges must
    not show in the values."""

    @pytest.mark.parametrize("count", [0, 1, BLOCK_WORDS - 1, BLOCK_WORDS, BLOCK_WORDS + 1])
    def test_at_matches_elementwise_reference(self, count):
        rng = CounterRNG(2022, stream=1)
        counters = np.arange(count, dtype=np.uint64) * np.uint64(3) + np.uint64(5)
        expected = np.array(
            [_splitmix64_ref((rng._base + int(c) * _GOLDEN) & _M64) for c in counters],
            dtype=np.uint64,
        )
        got = rng.at(counters)
        assert got.dtype == np.uint64 and got.shape == (count,)
        assert np.array_equal(got, expected)
        assert np.array_equal(splitmix64(counters), [_splitmix64_ref(int(c)) for c in counters])

    def test_shape_and_scalar_preserved(self):
        rng = CounterRNG(3)
        grid = np.arange(6, dtype=np.uint64).reshape(2, 3)
        assert np.array_equal(rng.at(grid), rng.at(np.arange(6, dtype=np.uint64)).reshape(2, 3))
        assert isinstance(rng.at(4), np.uint64) and rng.at(4) == rng.at(np.arange(5))[4]
        assert isinstance(rng.uniform_at(4), np.float64)
        assert isinstance(splitmix64(np.uint64(9)), np.uint64)

    def test_shuffle_keys_are_distinct(self):
        """The keys are a bijective image of the counters, so the argsort
        needs no tie-break and equals the stable one."""
        rng = CounterRNG(4, stream=3)
        keys = rng.at(np.arange(1 << 16, dtype=np.uint64))
        assert np.unique(keys).size == keys.size
        assert np.array_equal(rng.shuffle_permutation(keys.size), np.argsort(keys, kind="stable"))
