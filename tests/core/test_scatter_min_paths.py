"""Property tests: ``scatter_min`` against a sort-based oracle.

``scatter_min`` is one unbuffered ``np.minimum.at`` scatter plus a
winner dedup that picks a sort or a mark array by size.  Every engine's
modeled run depends on it being exact and order-free: ``dist`` must come
out bitwise equal to folding each target's smallest candidate in (float64
``min`` is exact, associative and commutative), and the winners must be
the targets whose value dropped, unique and ascending.  The oracle below
is the argsort + ``minimum.reduceat`` reduction the function used to run
for large batches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relaxation import scatter_min


def oracle_scatter_min(dist, targets, candidates):
    """Group candidates by target with a sort, reduce each group, assign."""
    if targets.size == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(targets, kind="stable")
    st_, sc = targets[order], candidates[order]
    first = np.flatnonzero(np.concatenate(([True], st_[1:] != st_[:-1])))
    uniq = st_[first]
    best = np.minimum.reduceat(sc, first)
    improved = best < dist[uniq]
    dist[uniq[improved]] = best[improved]
    return uniq[improved].astype(np.int64)


def check(dist, targets, candidates):
    d_ref = dist.copy()
    won_ref = oracle_scatter_min(d_ref, targets, candidates)
    d = dist.copy()
    won = scatter_min(d, targets, candidates)
    np.testing.assert_array_equal(d.view(np.uint64), d_ref.view(np.uint64))
    assert won.dtype == np.int64
    assert np.all(np.diff(won) > 0)  # unique and ascending
    np.testing.assert_array_equal(won, won_ref)
    return won


#: A few values, so exact ties and repeated minima are common; inf included.
_VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.75, np.inf])


@st.composite
def batches(draw):
    n = draw(st.integers(1, 200))
    size = draw(st.integers(0, 400))
    dist = np.array(draw(st.lists(_VALUES, min_size=n, max_size=n)))
    # Narrow target ranges force heavy duplication on few vertices.
    hi = draw(st.integers(1, n))
    targets = np.array(
        draw(st.lists(st.integers(0, hi - 1), min_size=size, max_size=size)),
        dtype=np.int64,
    )
    candidates = np.array(
        draw(st.lists(_VALUES, min_size=size, max_size=size)), dtype=np.float64
    )
    return dist, targets, candidates


@settings(max_examples=300, deadline=None)
@given(batches())
def test_matches_oracle(batch):
    check(*batch)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("size", [1, 95, 96, 5_000, 100_000])
@pytest.mark.parametrize("n", [64, 50_000])
def test_matches_oracle_random_batches(seed, size, n):
    """Both dedup branches: few winners in a large ``dist``, and many."""
    rng = np.random.default_rng(seed)
    dist = np.where(rng.random(n) < 0.3, np.inf, rng.random(n) * 2)
    targets = rng.integers(0, n, size=size)
    candidates = np.round(rng.random(size) * 4, 2)
    check(dist, targets, candidates)


@pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.intp])
def test_narrow_index_dtypes(dtype):
    rng = np.random.default_rng(7)
    dist = np.full(300, np.inf)
    targets = rng.integers(0, 300, size=2_000).astype(dtype)
    check(dist, targets, rng.random(2_000))


def test_empty_batch():
    dist = np.full(10, np.inf)
    out = scatter_min(dist, np.empty(0, dtype=np.int64), np.empty(0))
    assert out.size == 0 and out.dtype == np.int64
    assert np.all(np.isinf(dist))


def test_all_duplicates_single_target():
    won = check(
        np.full(4, np.inf), np.full(1000, 2, dtype=np.int64), np.linspace(1.0, 0.001, 1000)
    )
    assert won.tolist() == [2]


def test_no_improvement_returns_empty():
    dist = np.zeros(16)
    targets = np.arange(16, dtype=np.int64).repeat(50)
    won = check(dist, targets, np.ones(targets.size))
    assert won.size == 0


def test_exact_ties_do_not_report_improvement():
    won = check(
        np.array([1.0, np.inf, 0.5]),
        np.array([0, 0, 1, 2], dtype=np.int64),
        np.array([1.0, 1.0, np.inf, 0.5]),
    )
    assert won.size == 0


def test_integer_labels():
    """cc folds int64 labels through the same function."""
    labels = np.arange(10, dtype=np.int64)
    won = scatter_min(labels, np.array([9, 9, 3, 0]), np.array([4, 2, 3, 5]))
    assert labels.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 2]
    assert won.tolist() == [9]
