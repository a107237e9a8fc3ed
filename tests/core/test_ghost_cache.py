"""Unit tests for the compact ghost-vertex min-cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coalescing import dedup_min
from repro.core.ghost_cache import GhostMinCache


def reference_dict(pairs):
    best = {}
    for k, v in pairs:
        best[k] = min(v, best.get(k, np.inf))
    return best


def test_absent_keys_read_inf():
    c = GhostMinCache()
    out = c.get(np.array([1, 2, 3]))
    assert np.all(np.isinf(out))
    assert len(c) == 0


def test_insert_then_get():
    c = GhostMinCache()
    c.update_min(np.array([5, 9]), np.array([1.5, 0.25]))
    np.testing.assert_array_equal(c.get(np.array([9, 5, 7])), [0.25, 1.5, np.inf])
    assert len(c) == 2


def test_min_semantics_within_and_across_batches():
    c = GhostMinCache()
    c.update_min(np.array([4, 4, 4]), np.array([3.0, 1.0, 2.0]))
    assert c.get(np.array([4]))[0] == 1.0
    c.update_min(np.array([4]), np.array([2.0]))  # worse: ignored
    assert c.get(np.array([4]))[0] == 1.0
    c.update_min(np.array([4]), np.array([0.5]))  # better: folded
    assert c.get(np.array([4]))[0] == 0.5
    assert len(c) == 1


def test_growth_preserves_contents():
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 100_000, size=5000).astype(np.int64)
    vals = rng.random(5000)
    c = GhostMinCache()
    # Feed in many small batches to exercise repeated growth.
    for i in range(0, keys.size, 257):
        c.update_min(keys[i : i + 257], vals[i : i + 257])
    expect = reference_dict(zip(keys.tolist(), vals.tolist()))
    assert len(c) == len(expect)
    q = np.fromiter(expect.keys(), dtype=np.int64)
    got = c.get(q)
    want = np.array([expect[int(k)] for k in q])
    np.testing.assert_array_equal(got, want)
    # The sorted layout is exact-fit: no load-factor slack.
    held = c.resident()
    assert {a.size for a in held.values()} == {len(c)}
    assert sum(a.nbytes for a in held.values()) == len(c) * (c._keys.itemsize + 8)


def test_batch_with_many_new_keys():
    """A batch far larger than the current cache must merge cleanly."""
    c = GhostMinCache()
    keys = np.arange(0, 4096, 17, dtype=np.int64)
    vals = np.linspace(1, 2, keys.size)
    c.update_min(keys, vals)
    assert len(c) == keys.size
    np.testing.assert_array_equal(c.get(keys), vals)


def test_uint32_key_storage():
    c = GhostMinCache(key_dtype=np.uint32)
    keys = np.array([7, 2**32 - 1, 12], dtype=np.int64)
    vals = np.array([1.0, 2.0, 3.0])
    c.update_min(keys, vals)
    assert c._keys.dtype == np.uint32
    np.testing.assert_array_equal(c.get(keys), vals)
    assert c.get(np.array([8]))[0] == np.inf


def test_empty_update_is_noop():
    c = GhostMinCache()
    c.update_min(np.empty(0, dtype=np.int64), np.empty(0))
    assert len(c) == 0


def test_deterministic_layout():
    """Same inserts -> same internal layout (simulation reproducibility)."""
    a, b = GhostMinCache(), GhostMinCache()
    keys = np.array([10, 7, 10, 99, 1], dtype=np.int64)
    vals = np.array([0.1, 0.2, 0.05, 0.9, 0.3])
    a.update_min(keys, vals)
    b.update_min(keys, vals)
    np.testing.assert_array_equal(a._keys, b._keys)
    np.testing.assert_array_equal(a._vals, b._vals)


def test_coalesce_batch_filters_and_folds():
    c = GhostMinCache()
    c.update_min(np.array([10, 20]), np.array([5.0, 1.0]))
    keys = np.array([10, 30, 20, 10, 30], dtype=np.int64)
    vals = np.array([6.0, 9.0, 0.5, 4.0, 7.0])
    kept_k, kept_v = c.coalesce_batch(keys, vals)
    # 10: batch min 4.0 beats cached 5.0; 20: 0.5 beats 1.0;
    # 30: absent, so its batch min 7.0 passes.  Sorted by key.
    np.testing.assert_array_equal(kept_k, [10, 20, 30])
    np.testing.assert_array_equal(kept_v, [4.0, 0.5, 7.0])
    np.testing.assert_array_equal(
        c.get(np.array([10, 20, 30])), [4.0, 0.5, 7.0]
    )
    # A second identical batch is fully filtered (nothing beats the fold).
    kept_k, kept_v = c.coalesce_batch(keys, vals)
    assert kept_k.size == 0 and kept_v.size == 0


@pytest.mark.parametrize("seed", range(4))
def test_coalesce_batch_matches_get_update_reference(seed):
    """coalesce_batch == (dedup, filter via get, update_min) at every step."""
    rng = np.random.default_rng(seed)
    fused, plain = GhostMinCache(), GhostMinCache()
    for _ in range(15):
        batch = rng.integers(1, 300)
        keys = rng.integers(0, 500, size=batch).astype(np.int64)
        vals = np.round(rng.random(batch), 3)
        kept_k, kept_v = fused.coalesce_batch(keys, vals)
        # Reference: dedup to per-key minima, filter against the cached
        # view, then fold the passing entries.
        best = {}
        for k, v in zip(keys.tolist(), vals.tolist()):
            best[k] = min(v, best.get(k, np.inf))
        uniq = np.array(sorted(best), dtype=np.int64)
        mins = np.array([best[int(k)] for k in uniq])
        passing = mins < plain.get(uniq)
        plain.update_min(uniq[passing], mins[passing])
        np.testing.assert_array_equal(kept_k, uniq[passing])
        np.testing.assert_array_equal(kept_v, mins[passing])
        np.testing.assert_array_equal(fused._keys, plain._keys)
        np.testing.assert_array_equal(fused._vals, plain._vals)


@pytest.mark.parametrize("seed", range(4))
def test_randomized_against_reference(seed):
    rng = np.random.default_rng(seed)
    c = GhostMinCache()
    expect = {}
    for _ in range(20):
        batch = rng.integers(1, 400)
        keys = rng.integers(0, 1000, size=batch).astype(np.int64)
        vals = np.round(rng.random(batch), 3)
        c.update_min(keys, vals)
        for k, v in zip(keys.tolist(), vals.tolist()):
            expect[k] = min(v, expect.get(k, np.inf))
        probe = rng.integers(0, 1000, size=100).astype(np.int64)
        got = c.get(probe)
        want = np.array([expect.get(int(k), np.inf) for k in probe])
        np.testing.assert_array_equal(got, want)
    assert len(c) == len(expect)


# -- the fixed-key slot path against per-batch coalescing --------------------

#: Values with ties and ``inf`` (a candidate that can never be sent).
_VALUES = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, np.inf])


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_slot_path_flush_equals_per_batch_coalescing(data):
    """``lower`` per batch then ``take_dirty`` per exchange sends exactly
    what ``coalesce_batch`` per batch then one ``dedup_min`` fold of the
    passed batches at the exchange sent — the same keys, values and order."""
    keys = np.array(
        sorted(data.draw(st.sets(st.integers(0, 2**32 - 1), min_size=1, max_size=40))),
        dtype=np.uint32,
    )
    batch = st.lists(st.tuples(st.integers(0, keys.size - 1), _VALUES), max_size=30)
    exchanges = data.draw(st.lists(st.lists(batch, max_size=4), min_size=1, max_size=5))
    fixed = GhostMinCache.fixed(keys)
    oracle = GhostMinCache(key_dtype=np.uint32)
    for batches in exchanges:
        passed = []
        for pairs in batches:
            slots = np.array([s for s, _ in pairs], dtype=np.int64)
            vals = np.array([v for _, v in pairs], dtype=np.float64)
            fixed.lower(slots, vals)
            kept = oracle.coalesce_batch(keys[slots], vals)
            if kept[0].size:
                passed.append(kept)
        if len(passed) > 1:
            want = dedup_min(*(np.concatenate(c) for c in zip(*passed)))
        elif passed:
            want = passed[0]
        else:
            want = (np.empty(0, dtype=np.int64), np.empty(0))
        got_keys, got_vals = fixed.take_dirty()
        assert got_keys.dtype == keys.dtype
        np.testing.assert_array_equal(got_keys.astype(np.int64), want[0])
        np.testing.assert_array_equal(got_vals, want[1])
    np.testing.assert_array_equal(fixed.get(keys), oracle.get(keys))
    assert fixed.take_dirty()[0].size == 0


def test_fixed_cache_holds_its_keys_and_reports_the_dirty_mask():
    keys = np.array([3, 8, 21], dtype=np.uint32)
    c = GhostMinCache.fixed(keys)
    assert len(c) == 3 and c.resident()["ghost_keys"] is keys
    assert {name: a.size for name, a in c.resident().items()} == {
        "ghost_keys": 3, "ghost_vals": 3, "ghost_dirty": 3
    }
    np.testing.assert_array_equal(c.get(keys), [np.inf] * 3)
    c.lower(np.array([2, 0, 2]), np.array([4.0, 1.0, 2.0]))
    got_keys, got_vals = c.take_dirty()
    np.testing.assert_array_equal(got_keys, [3, 21])
    np.testing.assert_array_equal(got_vals, [1.0, 2.0])
    c.lower(np.array([0, 1]), np.array([1.0, np.inf]))  # a tie and an inf: nothing drops
    assert c.take_dirty()[0].size == 0
