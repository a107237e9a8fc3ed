"""Tests for the distributed ∆-stepping engine on SimMPI."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dijkstra import dijkstra
from repro.core.config import SSSPConfig
from repro import run
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph.synth import grid_graph, path_graph, random_graph, star_graph
from repro.simmpi.machine import small_cluster

distributed_sssp = partial(run, engine="dist1d")


def assert_exact(run, ref):
    assert np.array_equal(run.result.dist, ref.dist)


@pytest.fixture(scope="module")
def kron10():
    return build_csr(generate_kronecker(10, seed=21))


class TestDistributedCorrectness:
    @pytest.mark.parametrize("num_ranks", [1, 2, 3, 8, 16])
    def test_matches_dijkstra_all_rank_counts(self, kron10, num_ranks):
        src = int(np.argmax(kron10.out_degree))
        ref = dijkstra(kron10, src)
        run = distributed_sssp(kron10, src, num_ranks=num_ranks)
        assert_exact(run, ref)

    @pytest.mark.parametrize(
        "config",
        [
            SSSPConfig.optimized(),
            SSSPConfig.baseline(),
            SSSPConfig().without("coalesce"),
            SSSPConfig().without("delegate_hubs"),
            SSSPConfig().without("fuse_buckets"),
            SSSPConfig().without("compressed_indices"),
            SSSPConfig(partition="block", delegate_hubs=False),
            SSSPConfig(partition="block"),
            SSSPConfig(fusion_cap=2),
            SSSPConfig(delta=0.05),
            SSSPConfig(delta=1.0),
            SSSPConfig(hub_degree_threshold=4),
        ],
    )
    def test_every_variant_exact(self, kron10, config):
        src = 5
        ref = dijkstra(kron10, src)
        run = distributed_sssp(kron10, src, num_ranks=4, config=config)
        assert_exact(run, ref)

    def test_parent_tree_valid(self, kron10):
        run = distributed_sssp(kron10, 0, num_ranks=4)
        res = run.result
        reached = np.flatnonzero(res.reached)
        for v in reached[:100]:
            if v == 0:
                continue
            p = int(res.parent[v])
            assert kron10.has_edge(p, v)
            assert res.dist[p] + kron10.edge_weight(p, v) == res.dist[v]

    def test_disconnected_graph(self):
        from repro.graph.types import EdgeList

        el = EdgeList(np.array([0, 2]), np.array([1, 3]), np.array([0.5, 0.5]), 6)
        g = build_csr(el)
        run = distributed_sssp(g, 0, num_ranks=3)
        assert run.result.num_reached == 2
        assert np.isinf(run.result.dist[2])

    def test_grid_graph(self):
        g = build_csr(grid_graph(10, 10, seed=5))
        ref = dijkstra(g, 0)
        run = distributed_sssp(g, 0, num_ranks=5)
        assert_exact(run, ref)

    def test_star_graph_hub_delegated(self):
        g = build_csr(star_graph(200, weight=0.5))
        config = SSSPConfig(hub_degree_threshold=10)
        run = distributed_sssp(g, 7, num_ranks=4, config=config)
        assert run.result.meta["num_hubs"] == 1
        ref = dijkstra(g, 7)
        assert_exact(run, ref)

    def test_invalid_inputs(self):
        g = build_csr(path_graph(4))
        with pytest.raises(ValueError):
            distributed_sssp(g, 10, num_ranks=2)
        with pytest.raises(ValueError):
            distributed_sssp(g, 0, num_ranks=0)

    def test_simple_dist_baseline_exact(self, kron10):
        # The reference-style baseline is a configuration of the engine.
        ref = dijkstra(kron10, 3)
        run = distributed_sssp(kron10, 3, num_ranks=4, config=SSSPConfig.baseline())
        assert_exact(run, ref)
        assert run.meta["config"] == SSSPConfig.baseline()
        assert run.result.meta["variant"] == "baseline"

    def test_simple_dist_with_delta(self, kron10):
        config = replace(SSSPConfig.baseline(), delta=0.5)
        run = distributed_sssp(kron10, 3, num_ranks=2, config=config)
        assert run.meta["delta"] == 0.5
        assert_exact(run, dijkstra(kron10, 3))


class TestDistributedMeasurements:
    def test_coalescing_reduces_bytes(self, kron10):
        src = int(np.argmax(kron10.out_degree))
        on = distributed_sssp(kron10, src, num_ranks=8)
        off = distributed_sssp(
            kron10, src, num_ranks=8, config=SSSPConfig().without("coalesce")
        )
        assert on.comm["total_bytes"] < off.comm["total_bytes"] / 1.5

    def test_delegation_improves_balance_on_star(self):
        """Star graph: all edges at one vertex — the extreme delegation case."""
        g = build_csr(star_graph(2000, weight=0.5))
        src = 17
        on = distributed_sssp(
            g, src, num_ranks=8, config=SSSPConfig(hub_degree_threshold=16)
        )
        off = distributed_sssp(
            g, src, num_ranks=8, config=SSSPConfig().without("delegate_hubs")
        )
        assert on.work_imbalance < off.work_imbalance

    def test_fusion_reduces_supersteps_on_path(self):
        """A path inside one rank fuses to a handful of exchanges."""
        g = build_csr(path_graph(64, weight=0.9))
        cfg_on = SSSPConfig(delta=100.0, partition="block")  # one bucket
        cfg_off = cfg_on.without("fuse_buckets")
        on = distributed_sssp(g, 0, num_ranks=2, config=cfg_on)
        off = distributed_sssp(g, 0, num_ranks=2, config=cfg_off)
        assert (
            on.result.counters["light_supersteps"]
            < off.result.counters["light_supersteps"] / 4
        )

    def test_simulated_time_positive_and_decomposed(self, kron10):
        run = distributed_sssp(kron10, 0, num_ranks=4)
        assert run.modeled_time > 0
        assert set(run.time_breakdown) <= {"compute", "comm", "sync"}
        assert run.modeled_time == pytest.approx(sum(run.time_breakdown.values()))

    def test_teps(self, kron10):
        src = int(np.argmax(kron10.out_degree))
        run = distributed_sssp(kron10, src, num_ranks=4)
        teps = run.teps(kron10)
        assert teps > 0

    def test_single_rank_no_network_bytes(self, kron10):
        run = distributed_sssp(kron10, 0, num_ranks=1)
        assert run.comm["total_bytes"] == 0

    def test_machine_capacity_respected(self, kron10):
        with pytest.raises(ValueError):
            distributed_sssp(kron10, 0, num_ranks=8, machine=small_cluster(4))

    def test_counters_and_meta(self, kron10):
        src = int(np.argmax(kron10.out_degree))
        run = distributed_sssp(kron10, src, num_ranks=4)
        c = run.result.counters
        assert c["epochs"] > 0
        assert c["light_supersteps"] >= c["epochs"]
        assert c["edges_relaxed"] > 0
        assert run.result.meta["variant"] == "optimized"
        assert run.meta["partition"] == "block1d_edge_balanced"


class TestConfig:
    def test_baseline_name(self):
        assert SSSPConfig.baseline().variant_name() == "baseline"

    def test_optimized_name(self):
        assert SSSPConfig.optimized().variant_name() == "optimized"

    def test_without_names(self):
        assert "coalesce" in SSSPConfig().without("coalesce").variant_name()
        assert "delegate" in SSSPConfig().without("delegate_hubs").variant_name()

    def test_without_unknown(self):
        with pytest.raises(ValueError):
            SSSPConfig().without("warp_drive")

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            SSSPConfig(partition="3d")
        with pytest.raises(ValueError):
            SSSPConfig(delta=0.0)
        with pytest.raises(ValueError):
            SSSPConfig(fusion_cap=0)
        with pytest.raises(ValueError):
            SSSPConfig(hub_degree_threshold=0)


@given(
    n=st.integers(4, 50),
    m=st.integers(2, 300),
    seed=st.integers(0, 200),
    num_ranks=st.integers(1, 6),
    coalesce=st.booleans(),
    delegate=st.booleans(),
    fuse=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_distributed_always_matches_dijkstra(n, m, seed, num_ranks, coalesce, delegate, fuse):
    """Property: any config on any graph produces exact distances."""
    g = build_csr(random_graph(n, m, seed))
    source = seed % n
    config = SSSPConfig(
        coalesce=coalesce,
        delegate_hubs=delegate,
        fusion_cap=64 if fuse else 1,
        hub_degree_threshold=3 if delegate else None,
    )
    run = distributed_sssp(g, source, num_ranks=num_ranks, config=config)
    ref = dijkstra(g, source)
    assert np.array_equal(run.result.dist, ref.dist)
