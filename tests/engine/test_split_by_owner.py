"""``split_by_owner``: the cut of a record batch into per-destination pieces.

The pieces are the wire byte order, so whichever way a batch is cut — in
place when its owners never decrease, after a stable owner sort
otherwise — they must be exactly the slices of the stable-argsort
reference below.
"""

import numpy as np
import pytest

from repro.engine.protocol import split_by_owner


def reference_split(targets, values, starts):
    """Owner lookup → stable argsort → one piece per owner present."""
    owners = np.searchsorted(starts, targets, side="right") - 1
    order = np.argsort(owners, kind="stable")
    return [
        (int(dst), targets[order][owners[order] == dst],
         tuple(v[order][owners[order] == dst] for v in values))
        for dst in np.unique(owners)
    ]


def assert_same_pieces(got, want):
    assert [dst for dst, _, _ in got] == [dst for dst, _, _ in want]
    for (_, gt, gv), (_, wt, wv) in zip(got, want):
        np.testing.assert_array_equal(gt, wt)
        assert gt.dtype == wt.dtype
        assert len(gv) == len(wv)
        for g, w in zip(gv, wv):
            np.testing.assert_array_equal(g, w)
            assert g.dtype == w.dtype


def batch(targets, dtype=np.int64):
    targets = np.asarray(targets, dtype=dtype)
    n = targets.size
    return targets, (np.arange(n, dtype=np.uint8), np.arange(n) * 0.5)


#: Four ranks owning [0, 10), [10, 10) (nothing), [10, 25), [25, 40).
STARTS = np.array([0, 10, 10, 25, 40], dtype=np.int64)

MONOTONE = {
    "every owner": [0, 3, 9, 10, 17, 24, 25, 39],
    "range boundaries only": [0, 9, 10, 24, 25, 39],
    "empty destinations": [26, 26, 31],
    "single owner": [12, 11, 24, 10],  # targets unsorted, owners constant
    "owner-sorted, targets not": [5, 2, 7, 14, 11, 30, 25],
    "one record": [17],
}


@pytest.mark.parametrize("targets", MONOTONE.values(), ids=MONOTONE.keys())
@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_owner_monotone_batch_is_cut_in_place(targets, dtype):
    targets, values = batch(targets, dtype)
    pieces = split_by_owner(targets, values, STARTS)
    assert_same_pieces(pieces, reference_split(targets, values, STARTS))
    for _, part, part_values in pieces:
        assert np.shares_memory(part, targets)
        for piece, field in zip(part_values, values):
            assert np.shares_memory(piece, field)


@pytest.mark.parametrize("seed", range(5))
def test_shuffled_batch_takes_the_stable_sort(seed):
    rng = np.random.default_rng(seed)
    targets, values = batch(rng.integers(0, 40, size=500))
    pieces = split_by_owner(targets, values, STARTS)
    assert_same_pieces(pieces, reference_split(targets, values, STARTS))
    assert not any(np.shares_memory(part, targets) for _, part, _ in pieces)


def test_single_rank_passes_the_batch_through():
    targets, values = batch([7, 3, 5])
    ((dst, part, part_values),) = split_by_owner(
        targets, values, np.array([0, 8], dtype=np.int64)
    )
    assert dst == 0 and part is targets and part_values is values


def test_empty_batch_yields_nothing():
    targets, values = batch([])
    assert split_by_owner(targets, values, STARTS) == []


def test_owner_keys_wider_than_a_byte():
    starts = np.arange(0, 301, dtype=np.int64)  # 300 ranks, one vertex each
    targets, values = batch([0, 255, 256, 299])
    pieces = split_by_owner(targets, values, starts)
    assert [dst for dst, _, _ in pieces] == [0, 255, 256, 299]
    assert_same_pieces(pieces, reference_split(targets, values, starts))
    shuffled, values = batch([299, 0, 256, 255, 0])
    assert_same_pieces(
        split_by_owner(shuffled, values, starts),
        reference_split(shuffled, values, starts),
    )
