"""Tests for the lane words of the batched BFS kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bitset import MAX_LANES, lane_matrix


class TestLaneHelpers:
    """The uint64 lane-word layout behind the bfs64 kernel."""

    def test_max_lanes_is_word_width(self):
        assert MAX_LANES == 64


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
    """Property: ``lane_matrix`` agrees with a per-lane set-of-rows model."""
    memberships = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, MAX_LANES - 1)),
            max_size=80,
        )
    )
    words = np.zeros(n, dtype=np.uint64)
    ref: dict[int, set[int]] = {}
    for row, lane in memberships:
        words[row] |= np.uint64(1) << np.uint64(lane)
        ref.setdefault(lane, set()).add(row)
    matrix = lane_matrix(words)
    for lane in range(MAX_LANES):
        assert np.flatnonzero(matrix[:, lane]).tolist() == sorted(ref.get(lane, set()))
