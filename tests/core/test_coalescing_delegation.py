"""Tests for coalescing utilities and hub delegation tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coalescing import dedup_min
from repro.core.delegation import DelegateTable, auto_hub_threshold, select_hubs
from repro.engine.rank import Outbox, OwnerRouter, wire_id_dtype
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph.synth import star_graph
from repro.partition import block1d
from repro.simmpi.fabric import Fabric
from repro.simmpi.machine import laptop_machine


class TestDedupMin:
    def test_basic(self):
        t, d = dedup_min(np.array([3, 1, 3, 1]), np.array([5.0, 2.0, 4.0, 3.0]))
        assert list(t) == [1, 3]
        assert list(d) == [2.0, 4.0]

    def test_empty(self):
        t, d = dedup_min(np.array([], dtype=np.int64), np.array([]))
        assert t.size == 0 and d.size == 0

    def test_already_unique(self):
        t, d = dedup_min(np.array([5, 2]), np.array([1.0, 2.0]))
        assert list(t) == [2, 5]
        assert list(d) == [2.0, 1.0]

    def test_int32_keys_stay_int32(self):
        targets = np.array([7, 2, 7, 9, 2, 0], dtype=np.int64)
        dists = np.array([3.0, 1.5, 2.0, 4.0, 0.5, 6.0])
        t64, d64 = dedup_min(targets, dists)
        t32, d32 = dedup_min(targets.astype(np.int32), dists)
        assert t32.dtype == np.int32 and t64.dtype == np.int64
        np.testing.assert_array_equal(t32, t64)
        np.testing.assert_array_equal(d32, d64)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dedup_min(np.array([1]), np.array([1.0, 2.0]))

    @given(st.lists(st.tuples(st.integers(0, 20), st.floats(0.01, 100)), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_reduction(self, pairs):
        targets = np.array([p[0] for p in pairs], dtype=np.int64)
        dists = np.array([p[1] for p in pairs])
        t, d = dedup_min(targets, dists)
        ref: dict[int, float] = {}
        for k, v in pairs:
            ref[k] = min(ref.get(k, np.inf), v)
        assert dict(zip(t.tolist(), d.tolist())) == ref


def _shipped(targets, dists, kinds, compress, num_vertices):
    """One batch through an outbox declared for a ``num_vertices`` graph:
    the wire it flushes and the inbox the fabric delivers from it."""
    outbox = Outbox(
        OwnerRouter(block1d(1000, 1)),
        ("vertex", "dist", "kind"),
        wire_id_dtype(num_vertices, compress),
    )
    outbox.route(np.asarray(targets), np.asarray(dists), np.asarray(kinds, np.uint8))
    wire = outbox.flush()
    (inbox,) = Fabric(laptop_machine(), 1).exchange([wire])
    return wire, inbox


class TestPacking:
    """The wire's id narrowing, declared once where an outbox is built."""

    def test_roundtrip_compressed(self):
        wire, msg = _shipped([5, 9], [0.5, 0.7], [0, 1], True, 100)
        assert wire.dtypes[0] == np.uint32
        assert msg["vertex"].dtype == np.uint32
        assert list(msg["vertex"].astype(np.int64)) == [5, 9]
        assert list(msg["dist"]) == [0.5, 0.7]
        assert list(msg["kind"]) == [0, 1]

    def test_uncompressed_keeps_int64(self):
        _, msg = _shipped([5], [0.5], [0], False, 100)
        assert msg["vertex"].dtype == np.int64

    def test_compression_saves_bytes(self):
        t = np.arange(1000)
        d = np.ones(1000)
        k = np.zeros(1000)
        small, _ = _shipped(t, d, k, True, 10_000)
        big, _ = _shipped(t, d, k, False, 10_000)
        assert small.nbytes == big.nbytes - 4 * 1000
        assert small.record_bytes == 13

    def test_too_many_vertices_disables_compression(self):
        assert wire_id_dtype(2**32 - 1, True) == np.uint32
        assert wire_id_dtype(2**32, True) == np.int64
        _, msg = _shipped([5], [0.5], [0], True, 2**40)
        assert msg["vertex"].dtype == np.int64


class TestHubSelection:
    def test_auto_threshold_scales(self):
        g = build_csr(generate_kronecker(10))
        t4 = auto_hub_threshold(g, 4)
        t64 = auto_hub_threshold(g, 64)
        assert t64 >= t4
        assert t4 >= 8  # at least 2 * num_ranks

    def test_auto_threshold_invalid_ranks(self):
        g = build_csr(star_graph(5))
        with pytest.raises(ValueError):
            auto_hub_threshold(g, 0)

    def test_select_hubs_sorted(self):
        g = build_csr(generate_kronecker(10))
        hubs = select_hubs(g, 100)
        assert np.all(np.diff(hubs) > 0)
        assert np.all(g.out_degree[hubs] >= 100)

    def test_select_hubs_invalid_threshold(self):
        g = build_csr(star_graph(5))
        with pytest.raises(ValueError):
            select_hubs(g, 0)


class TestDelegateTable:
    def test_slices_partition_hub_edges(self):
        g = build_csr(star_graph(101, weight=0.5))
        hubs = np.array([0], dtype=np.int64)
        tables = [DelegateTable.build(g, hubs, r, 4) for r in range(4)]
        total = sum(t.num_edges for t in tables)
        assert total == 100
        # Interleaved slices are balanced to within one edge.
        sizes = [t.num_edges for t in tables]
        assert max(sizes) - min(sizes) <= 1
        # Union of slices == hub's adjacency.
        all_adj = np.sort(np.concatenate([t.adj for t in tables]))
        assert np.array_equal(all_adj, np.sort(g.neighbors(0)))

    def test_empty_hub_list(self):
        g = build_csr(star_graph(5))
        t = DelegateTable.build(g, np.empty(0, dtype=np.int64), 0, 2)
        assert t.num_hubs == 0
        assert t.num_edges == 0

    def test_unsorted_hubs_rejected(self):
        g = build_csr(star_graph(5))
        with pytest.raises(ValueError):
            DelegateTable.build(g, np.array([3, 1]), 0, 2)

    def test_bad_rank_rejected(self):
        g = build_csr(star_graph(5))
        with pytest.raises(ValueError):
            DelegateTable.build(g, np.array([0]), 2, 2)

    def test_is_hub(self):
        g = build_csr(generate_kronecker(8))
        hubs = select_hubs(g, 50)
        t = DelegateTable.build(g, hubs, 0, 2)
        mask = t.is_hub(np.arange(g.num_vertices))
        assert np.array_equal(np.flatnonzero(mask), hubs)

    def test_slots_of_non_hub_raises(self):
        g = build_csr(star_graph(10))
        t = DelegateTable.build(g, np.array([0]), 0, 2)
        with pytest.raises(KeyError):
            t.slots_of(np.array([5]))

    def test_expand_candidates(self):
        g = build_csr(star_graph(9, weight=0.5))
        t = DelegateTable.build(g, np.array([0]), 0, 2)
        targets, cands, scanned = t.expand(np.array([0]), np.array([1.0]))
        assert scanned == t.num_edges
        assert np.all(cands == 1.5)

    def test_expand_weight_filters(self):
        g = build_csr(generate_kronecker(8, seed=3))
        hubs = select_hubs(g, 30)
        t = DelegateTable.build(g, hubs, 1, 3)
        d = np.zeros(hubs.size)
        light_t, light_c, _ = t.expand(hubs, d, weight_max=0.5)
        heavy_t, heavy_c, _ = t.expand(hubs, d, weight_min=0.5)
        assert light_t.size + heavy_t.size == t.num_edges
        assert np.all(light_c < 0.5)
        assert np.all(heavy_c >= 0.5)

    def test_expand_empty(self):
        g = build_csr(star_graph(5))
        t = DelegateTable.build(g, np.array([0]), 1, 8)  # rank 1 slice of degree-4 hub
        targets, cands, scanned = t.expand(np.array([0]), np.array([0.0]))
        assert scanned == t.num_edges
