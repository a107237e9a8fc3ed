"""Tests for the lazy bucket queue."""

import numpy as np
import pytest

from repro.core.buckets import BucketQueue


def _bq(dists, delta=1.0):
    dist = np.asarray(dists, dtype=np.float64)
    return BucketQueue(dist, delta), dist


class TestBucketQueue:
    def test_insert_and_drain(self):
        bq, dist = _bq([0.5, 1.5, 2.5])
        bq.insert(np.array([0, 1, 2]))
        assert bq.min_bucket() == 0
        assert list(bq.drain(0)) == [0]
        assert bq.min_bucket() == 1

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            _bq([1.0], delta=0.0)

    def test_bucket_index(self):
        bq, dist = _bq([0.0, 0.99, 1.0, 3.7], delta=1.0)
        assert list(bq.bucket_index(np.arange(4))) == [0, 0, 1, 3]

    def test_stale_entries_filtered_on_drain(self):
        bq, dist = _bq([1.5, 1.5])
        bq.insert(np.array([0, 1]))
        dist[0] = 0.5  # vertex 0 moved to bucket 0, entry in bucket 1 stale
        assert list(bq.drain(1)) == [1]

    def test_drain_dedups(self):
        bq, dist = _bq([0.5])
        bq.insert(np.array([0]))
        bq.insert(np.array([0]))
        assert list(bq.drain(0)) == [0]
        assert bq.drain(0).size == 0

    def test_infinite_distance_never_live(self):
        bq, dist = _bq([0.5, np.inf])
        bq.insert(np.array([0]))
        dist_view_entry = np.array([1])
        # Insert vertex 1 while finite, then make it infinite (cannot happen
        # in SSSP, but the structure must tolerate it).
        dist[1] = 0.7
        bq.insert(dist_view_entry)
        dist[1] = np.inf
        assert list(bq.drain(0)) == [0]

    def test_min_live_bucket_skips_dead(self):
        bq, dist = _bq([1.5, 5.5])
        bq.insert(np.array([0, 1]))
        dist[0] = 5.2  # bucket 1 now holds only a stale entry
        bq.insert(np.array([0]))
        assert bq.min_live_bucket() == 5

    def test_min_live_bucket_empty(self):
        bq, _ = _bq([1.0])
        assert bq.min_live_bucket() is None

    def test_live_count(self):
        bq, dist = _bq([0.1, 0.2, 1.5])
        bq.insert(np.array([0, 1, 2]))
        assert bq.live_count(0) == 2
        assert bq.live_count(1) == 1
        assert bq.live_count(7) == 0

    def test_empty(self):
        bq, _ = _bq([0.5])
        assert bq.empty()
        bq.insert(np.array([0]))
        assert not bq.empty()

    def test_multi_bucket_insert(self):
        bq, dist = _bq([0.5, 1.5, 2.5, 0.7])
        bq.insert(np.array([0, 1, 2, 3]))
        assert sorted(bq.drain(0)) == [0, 3]
        assert list(bq.drain(1)) == [1]
        assert list(bq.drain(2)) == [2]

    def test_ops_counted(self):
        bq, _ = _bq([0.5, 1.5])
        bq.insert(np.array([0, 1]))
        assert bq.ops == 2
        bq.drain(0)
        assert bq.ops >= 3
