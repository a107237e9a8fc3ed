"""Tests for machine specs and topology mapping."""

import numpy as np
import pytest

from repro.simmpi.machine import MachineSpec, laptop_machine, small_cluster, sunway_exascale
from repro.simmpi.topology import TIER_INTER, TIER_INTRA, TIER_LOCAL, Schedule, Topology


class TestMachineSpec:
    def test_presets_valid(self):
        for spec in (sunway_exascale(), small_cluster(), laptop_machine()):
            assert spec.total_cores == spec.max_nodes * spec.cores_per_node

    def test_sunway_headline_core_count(self):
        """The paper's headline: over 40 million cores."""
        assert sunway_exascale().total_cores > 40_000_000

    def test_describe_row(self):
        row = sunway_exascale().describe()
        assert row["nodes"] == 107_520
        assert row["cores/node"] == 390

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            MachineSpec(
                name="bad",
                edge_rate=0,
                bucket_rate=1,
                memcpy_rate=1,
                alpha_intra=1,
                alpha_inter=1,
                beta_intra=1,
                beta_inter=1,
                barrier_alpha=1,
                nodes_per_supernode=1,
                max_nodes=1,
                cores_per_node=1,
            )

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            MachineSpec(
                name="bad",
                edge_rate=1,
                bucket_rate=1,
                memcpy_rate=1,
                alpha_intra=1,
                alpha_inter=1,
                beta_intra=1,
                beta_inter=1,
                barrier_alpha=1,
                nodes_per_supernode=0,
                max_nodes=1,
                cores_per_node=1,
            )


class TestTopology:
    def test_supernode_grouping(self):
        topo = Topology(small_cluster(64), 40)  # 16 nodes per supernode
        assert topo.num_supernodes() == 3
        assert topo.supernode[0] == 0
        assert topo.supernode[16] == 1
        assert topo.supernode[39] == 2

    def test_tier_matrix(self):
        topo = Topology(small_cluster(64), 20)
        tiers = topo.tier_matrix()
        assert tiers[0, 0] == TIER_LOCAL
        assert tiers[0, 1] == TIER_INTRA  # same supernode
        assert tiers[0, 17] == TIER_INTER  # crosses supernode boundary
        assert np.array_equal(tiers, tiers.T)

    def test_alpha_beta_matrices(self):
        """A direct message pays its tier's alpha and beta; a local one nothing."""
        m = small_cluster(64)
        topo = Topology(m, 20)

        def one_message(src, dst, nbytes=1):
            matrix = np.zeros((20, 20), dtype=np.int64)
            matrix[src, dst] = nbytes
            return topo.price(topo.exchange(matrix))[0]

        assert one_message(0, 0) == 0.0
        assert one_message(0, 1) == m.alpha_intra + m.beta_intra
        assert one_message(0, 17) == m.alpha_inter + m.beta_inter
        assert one_message(0, 17, 1000) == m.alpha_inter + 1000 * m.beta_inter

    def test_barrier_cost_log_scaling(self):
        m = small_cluster(64)

        def barrier(ranks):
            return Topology(m, ranks).price(Schedule(syncs=1))[1]

        assert barrier(1) == 0.0
        assert barrier(64) == pytest.approx(6 * barrier(2))

    def test_capacity_enforced(self):
        with pytest.raises(ValueError):
            Topology(small_cluster(4), 5)

    def test_invalid_rank_count(self):
        with pytest.raises(ValueError):
            Topology(small_cluster(), 0)
