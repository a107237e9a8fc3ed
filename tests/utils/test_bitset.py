"""Tests for the numpy-backed bitset."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bitset import (
    MAX_LANES,
    Bitset,
    and_not,
    lane_bit,
    lane_matrix,
    lane_members,
    nonzero_lanes,
)


class TestBitsetBasics:
    def test_empty(self):
        bs = Bitset(100)
        assert bs.count() == 0
        assert not bs.any()
        assert bs.to_indices().size == 0

    def test_add_and_test(self):
        bs = Bitset(130)
        bs.add(np.array([0, 63, 64, 129]))
        assert np.array_equal(bs.test(np.array([0, 63, 64, 129, 1])), [True] * 4 + [False])
        assert bs.count() == 4

    def test_add_duplicate_indices(self):
        bs = Bitset(10)
        bs.add(np.array([3, 3, 3]))
        assert bs.count() == 1

    def test_discard(self):
        bs = Bitset.from_indices(100, np.array([1, 2, 3]))
        bs.discard(np.array([2]))
        assert sorted(bs) == [1, 3]

    def test_discard_absent_is_noop(self):
        bs = Bitset.from_indices(100, np.array([1]))
        bs.discard(np.array([50]))
        assert sorted(bs) == [1]

    def test_contains(self):
        bs = Bitset.from_indices(70, np.array([65]))
        assert 65 in bs
        assert 64 not in bs

    def test_out_of_range_rejected(self):
        bs = Bitset(10)
        with pytest.raises(IndexError):
            bs.add(np.array([10]))
        with pytest.raises(IndexError):
            bs.add(np.array([-1]))

    def test_zero_size(self):
        bs = Bitset(0)
        assert bs.count() == 0
        assert bs.to_indices().size == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Bitset(-1)

    def test_clear(self):
        bs = Bitset.from_indices(64, np.array([5, 6]))
        bs.clear()
        assert bs.count() == 0


class TestBitsetSetOps:
    def test_union(self):
        a = Bitset.from_indices(100, np.array([1, 2]))
        b = Bitset.from_indices(100, np.array([2, 3]))
        assert sorted(a | b) == [1, 2, 3]

    def test_intersection(self):
        a = Bitset.from_indices(100, np.array([1, 2]))
        b = Bitset.from_indices(100, np.array([2, 3]))
        assert sorted(a & b) == [2]

    def test_difference(self):
        a = Bitset.from_indices(100, np.array([1, 2]))
        b = Bitset.from_indices(100, np.array([2, 3]))
        assert sorted(a - b) == [1]

    def test_inplace_union(self):
        a = Bitset.from_indices(100, np.array([1]))
        a |= Bitset.from_indices(100, np.array([99]))
        assert sorted(a) == [1, 99]

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _ = Bitset(10) | Bitset(11)

    def test_equality(self):
        a = Bitset.from_indices(64, np.array([5]))
        b = Bitset.from_indices(64, np.array([5]))
        assert a == b
        b.add(np.array([6]))
        assert a != b

    def test_copy_is_independent(self):
        a = Bitset.from_indices(64, np.array([5]))
        b = a.copy()
        b.add(np.array([6]))
        assert a.count() == 1
        assert b.count() == 2

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Bitset(8))


class TestLaneHelpers:
    """The uint64 lane-word helpers behind the bfs64 kernel."""

    def test_max_lanes_is_word_width(self):
        assert MAX_LANES == 64

    def test_lane_bit(self):
        assert lane_bit(0) == np.uint64(1)
        assert lane_bit(63) == np.uint64(1) << np.uint64(63)

    def test_lane_bit_range_checked(self):
        for bad in (-1, 64, 100):
            with pytest.raises(ValueError):
                lane_bit(bad)

    def test_and_not(self):
        words = np.array([0b1011, 0b0110], dtype=np.uint64)
        mask = np.array([0b0010, 0b0110], dtype=np.uint64)
        assert np.array_equal(
            and_not(words, mask), np.array([0b1001, 0], dtype=np.uint64)
        )

    def test_bitset_and_not_method(self):
        a = Bitset.from_indices(100, np.array([1, 2, 70]))
        b = Bitset.from_indices(100, np.array([2, 3]))
        assert sorted(a.and_not(b)) == [1, 70]

    def test_nonzero_lanes(self):
        words = np.zeros(5, dtype=np.uint64)
        words[1] = lane_bit(0) | lane_bit(63)
        words[4] = lane_bit(7)
        assert nonzero_lanes(words).tolist() == [0, 7, 63]

    def test_nonzero_lanes_empty(self):
        assert nonzero_lanes(np.zeros(3, dtype=np.uint64)).size == 0

    def test_lane_members_column_extraction(self):
        words = np.zeros(6, dtype=np.uint64)
        words[np.array([0, 2, 5])] |= lane_bit(3)
        words[1] = lane_bit(4)
        assert lane_members(words, 3).tolist() == [0, 2, 5]
        assert lane_members(words, 4).tolist() == [1]
        assert lane_members(words, 0).size == 0


class TestLaneMatrix:
    """``lane_matrix``, the one lane helper the batched kernels call."""

    def test_bit_i_is_column_i(self):
        words = np.array([1, (1 << 5) | (1 << 63), 0], dtype=np.uint64)
        m = lane_matrix(words)
        assert m.shape == (3, MAX_LANES) and m.dtype == bool
        assert [np.flatnonzero(row).tolist() for row in m] == [[0], [5, 63], []]

    def test_any_input_byte_order(self):
        words = np.array([(1 << 3) | (1 << 40), 1 << 9], dtype=np.uint64)
        for dtype in ("<u8", ">u8"):
            m = lane_matrix(words.astype(dtype))
            assert [np.flatnonzero(row).tolist() for row in m] == [[3, 40], [9]]

    def test_empty_input(self):
        m = lane_matrix(np.empty(0, dtype=np.uint64))
        assert m.shape == (0, MAX_LANES) and m.dtype == bool


@given(
    n=st.integers(1, 40),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_lane_helpers_match_set_reference(n, data):
    """Property: lane-word ops agree with a per-lane set-of-rows model."""
    # Reference model: lane -> set of rows whose word has that lane's bit.
    memberships = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, MAX_LANES - 1)),
            max_size=80,
        )
    )
    mask_memberships = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, MAX_LANES - 1)),
            max_size=80,
        )
    )
    words = np.zeros(n, dtype=np.uint64)
    mask = np.zeros(n, dtype=np.uint64)
    ref: dict[int, set[int]] = {}
    mask_ref: dict[int, set[int]] = {}
    for row, lane in memberships:
        words[row] |= lane_bit(lane)
        ref.setdefault(lane, set()).add(row)
    for row, lane in mask_memberships:
        mask[row] |= lane_bit(lane)
        mask_ref.setdefault(lane, set()).add(row)
    assert nonzero_lanes(words).tolist() == sorted(k for k, v in ref.items() if v)
    for lane in range(MAX_LANES):
        assert lane_members(words, lane).tolist() == sorted(ref.get(lane, set()))
        assert lane_members(and_not(words, mask), lane).tolist() == sorted(
            ref.get(lane, set()) - mask_ref.get(lane, set())
        )


@given(
    size=st.integers(1, 300),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_bitset_matches_python_set(size, data):
    """Property: Bitset behaves exactly like a Python set of ints."""
    indices = data.draw(st.lists(st.integers(0, size - 1), max_size=50))
    removals = data.draw(st.lists(st.integers(0, size - 1), max_size=50))
    bs = Bitset(size)
    ref: set[int] = set()
    if indices:
        bs.add(np.array(indices))
        ref |= set(indices)
    if removals:
        bs.discard(np.array(removals))
        ref -= set(removals)
    assert bs.count() == len(ref)
    assert list(bs) == sorted(ref)
    probe = np.arange(size)
    assert np.array_equal(bs.test(probe), np.array([i in ref for i in range(size)]))
