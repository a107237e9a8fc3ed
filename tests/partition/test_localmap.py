"""Unit tests for the global ↔ owned-local index translation."""

import numpy as np
import pytest

from repro.partition import LocalIndexMap, block1d, hashed1d


def test_contiguous_round_trip():
    owned = np.arange(100, 164, dtype=np.int64)
    m = LocalIndexMap(owned)
    assert m.contiguous
    assert m.size == 64
    local = m.to_local(owned)
    np.testing.assert_array_equal(local, np.arange(64))
    np.testing.assert_array_equal(m.to_global(local), owned)


def test_scattered_round_trip():
    owned = np.array([3, 17, 18, 40, 999], dtype=np.int64)
    m = LocalIndexMap(owned)
    assert not m.contiguous
    local = m.to_local(owned)
    np.testing.assert_array_equal(local, np.arange(5))
    np.testing.assert_array_equal(m.to_global(local), owned)


def test_monotonicity_preserves_sort_order():
    """Sorting by local id equals sorting by global id — the wire invariant."""
    rng = np.random.default_rng(0)
    owned = np.unique(rng.integers(0, 10_000, size=500))
    m = LocalIndexMap(owned)
    sample = rng.choice(owned, size=200)
    local = m.to_local(sample)
    np.testing.assert_array_equal(np.argsort(local, kind="stable"),
                                  np.argsort(sample, kind="stable"))


def test_empty_map():
    m = LocalIndexMap(np.empty(0, dtype=np.int64))
    assert m.size == 0 and m.contiguous
    assert m.to_local(np.empty(0, dtype=np.int64)).size == 0


def test_rejects_unsorted_or_duplicate():
    with pytest.raises(ValueError):
        LocalIndexMap(np.array([3, 1, 2]))
    with pytest.raises(ValueError):
        LocalIndexMap(np.array([1, 1, 2]))


@pytest.mark.parametrize("factory", [block1d, hashed1d])
def test_partition_owned_lists_satisfy_contract(factory):
    part = factory(1000, 7)
    for r in range(7):
        owned = part.vertices_of(r)
        m = LocalIndexMap(owned)  # raises if unsorted/duplicated
        np.testing.assert_array_equal(m.to_global(m.to_local(owned)), owned)
