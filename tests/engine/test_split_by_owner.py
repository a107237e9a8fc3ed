"""``OwnerRouter.split`` and ``Outbox``: the wire side of the rank substrate.

The pieces ``split`` cuts a record batch into are the wire byte order, so
whichever way a batch is cut — in place when its owners never decrease,
after a stable owner sort otherwise, with the owner looked up by range
search or by dense gather — they must be exactly the slices of the
stable-argsort reference below.
"""

import numpy as np
import pytest

from repro.engine.rank import Outbox, OwnerRouter
from repro.partition import Partition1D, hashed1d


def contiguous(starts):
    """The partition whose rank ``r`` owns ``[starts[r], starts[r + 1])``."""
    counts = np.diff(starts)
    return Partition1D(np.repeat(np.arange(counts.size), counts), counts.size, "test")


def reference_split(targets, values, partition):
    """Owner lookup → stable argsort → one piece per owner present."""
    owners = partition.owner_of(targets)
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
RANGES = contiguous(np.array([0, 10, 10, 25, 40]))

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
    pieces = OwnerRouter(RANGES).split(targets, values)
    assert_same_pieces(pieces, reference_split(targets, values, RANGES))
    for _, part, part_values in pieces:
        assert np.shares_memory(part, targets)
        for piece, field in zip(part_values, values):
            assert np.shares_memory(piece, field)


@pytest.mark.parametrize(
    "partition", [RANGES, hashed1d(40, 4), hashed1d(40, 300)],
    ids=["ranges", "hashed", "hashed, wide keys"],
)
@pytest.mark.parametrize("seed", range(5))
def test_shuffled_batch_takes_the_stable_sort(seed, partition):
    rng = np.random.default_rng(seed)
    targets, values = batch(rng.integers(0, 40, size=500))
    router = OwnerRouter(partition)
    assert (router.starts is None) == (partition.kind == "hashed1d")
    pieces = router.split(targets, values)
    assert_same_pieces(pieces, reference_split(targets, values, partition))
    assert not any(np.shares_memory(part, targets) for _, part, _ in pieces)


def test_single_rank_passes_the_batch_through():
    targets, values = batch([7, 3, 5])
    ((dst, part, part_values),) = OwnerRouter(contiguous(np.array([0, 8]))).split(
        targets, values
    )
    assert dst == 0 and part is targets and part_values is values


def test_empty_batch_yields_nothing():
    targets, values = batch([])
    assert OwnerRouter(RANGES).split(targets, values) == []


def test_owner_keys_wider_than_a_byte():
    ranks = contiguous(np.arange(0, 301))  # 300 ranks, one vertex each
    router = OwnerRouter(ranks)
    targets, values = batch([0, 255, 256, 299])
    pieces = router.split(targets, values)
    assert [dst for dst, _, _ in pieces] == [0, 255, 256, 299]
    assert_same_pieces(pieces, reference_split(targets, values, ranks))
    shuffled, values = batch([299, 0, 256, 255, 0])
    assert_same_pieces(
        router.split(shuffled, values), reference_split(shuffled, values, ranks)
    )


def test_outbox_flushes_parts_in_insertion_order_and_counts_their_bytes():
    outbox = Outbox(OwnerRouter(RANGES), ("vertex", "dist"))
    outbox.route(np.array([30, 3]), np.array([0.5, 1.5]))
    outbox.route(np.array([4, 26, 27]), np.array([2.5, 3.5, 4.5]))
    out, nbytes = outbox.flush()
    assert list(out) == [0, 3]
    np.testing.assert_array_equal(out[0]["vertex"], [3, 4])
    np.testing.assert_array_equal(out[0]["dist"], [1.5, 2.5])
    np.testing.assert_array_equal(out[3]["vertex"], [30, 26, 27])
    np.testing.assert_array_equal(out[3]["dist"], [0.5, 3.5, 4.5])
    assert nbytes == sum(msg.nbytes for msg in out.values()) == 5 * 16
    assert outbox.flush() == ({}, 0)
