"""Tests for hierarchical (supernode leader) aggregation in the fabric."""

from functools import partial

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra
from repro.core.config import SSSPConfig
from repro import run
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.simmpi.fabric import Fabric, Message
from repro.simmpi.machine import small_cluster

distributed_sssp = partial(run, engine="dist1d")


def _msg(n):
    return Message(
        vertex=np.arange(n, dtype=np.int64),
        dist=np.ones(n, dtype=np.float64),
    )


class TestHierarchicalFabric:
    def test_delivery_identical_to_direct(self):
        """Routing changes cost accounting only, never payloads."""
        machine = small_cluster(64)  # 16 nodes per supernode
        outboxes = [{(r + 17) % 32: _msg(10 + r)} for r in range(32)]
        direct = Fabric(machine, 32, hierarchical=False).exchange(
            [dict(o) for o in outboxes]
        )
        hier = Fabric(machine, 32, hierarchical=True).exchange(
            [dict(o) for o in outboxes]
        )
        for a, b in zip(direct, hier):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a["vertex"], b["vertex"])

    def test_forwarded_bytes_counted(self):
        machine = small_cluster(64)
        f = Fabric(machine, 32, hierarchical=True)
        # Rank 1 (member of SN 0) -> rank 20 (member of SN 1): two forwards.
        f.exchange([{} if r != 1 else {20: _msg(100)} for r in range(32)])
        msg_bytes = _msg(100).nbytes
        assert f.trace.bytes_forwarded == 2 * msg_bytes

    def test_leader_traffic_not_forwarded(self):
        machine = small_cluster(64)
        f = Fabric(machine, 32, hierarchical=True)
        # Rank 0 is SN 0's leader; rank 16 is SN 1's leader: no forwarding.
        f.exchange([{16: _msg(100)}] + [{}] * 31)
        assert f.trace.bytes_forwarded == 0

    def test_intra_supernode_traffic_direct(self):
        machine = small_cluster(64)
        f = Fabric(machine, 32, hierarchical=True)
        f.exchange([{1: _msg(50)}] + [{}] * 31)
        assert f.trace.bytes_forwarded == 0
        # Cost equals the direct model for pure intra traffic.
        g = Fabric(machine, 32, hierarchical=False)
        g.exchange([{1: _msg(50)}] + [{}] * 31)
        assert f.clock.component("comm") == pytest.approx(g.clock.component("comm"))

    def test_single_supernode_falls_back_to_direct(self):
        machine = small_cluster(16)  # all 16 ranks in one supernode
        f = Fabric(machine, 8, hierarchical=True)
        g = Fabric(machine, 8, hierarchical=False)
        out = [{(r + 1) % 8: _msg(20)} for r in range(8)]
        f.exchange([dict(o) for o in out])
        g.exchange([dict(o) for o in out])
        assert f.clock.component("comm") == pytest.approx(g.clock.component("comm"))

    def test_fan_out_cost_bounded(self):
        """All-to-all across supernodes: hierarchical beats direct on latency.

        With 4 supernodes of 16, a rank talking to all 63 others pays 63
        alpha terms direct, but only ~15 + 3 hierarchical.
        """
        machine = small_cluster(64)
        out = [
            {dst: _msg(1) for dst in range(64) if dst != src} for src in range(64)
        ]
        f = Fabric(machine, 64, hierarchical=True)
        g = Fabric(machine, 64, hierarchical=False)
        f.exchange([dict(o) for o in out])
        g.exchange([dict(o) for o in out])
        assert f.clock.component("comm") < g.clock.component("comm")

    def test_degraded_links_priced_on_every_hop(self):
        """Member -> leader -> leader -> member, each hop at its link's beta."""
        machine = small_cluster(64)
        out = [{} if r != 1 else {20: _msg(100)} for r in range(32)]
        b = _msg(100).nbytes
        latency = 2 * machine.alpha_intra + machine.alpha_inter
        per_byte = 2 * machine.beta_intra + machine.beta_inter
        for faults, factor in ((None, 1.0), ("degraded=1.0,degraded_factor=8", 8.0)):
            f = Fabric(machine, 32, hierarchical=True, faults=faults)
            f.exchange([dict(o) for o in out])
            assert f.clock.component("comm") == pytest.approx(
                latency + factor * b * per_byte
            )


class TestHierarchicalEngine:
    def test_exact_distances(self):
        g = build_csr(generate_kronecker(10, seed=8))
        src = int(np.argmax(g.out_degree))
        ref = dijkstra(g, src)
        run = distributed_sssp(
            g,
            src,
            num_ranks=32,
            machine=small_cluster(64),
            config=SSSPConfig(hierarchical_aggregation=True),
        )
        assert np.array_equal(run.result.dist, ref.dist)
        assert run.meta["config"].hierarchical_aggregation

    def test_forwarding_happens_at_scale(self):
        g = build_csr(generate_kronecker(10, seed=8))
        src = int(np.argmax(g.out_degree))
        run = distributed_sssp(
            g,
            src,
            num_ranks=32,
            machine=small_cluster(64),
            config=SSSPConfig(hierarchical_aggregation=True),
        )
        assert run.comm["bytes_forwarded"] > 0

    def test_degraded_links_slow_hierarchical_runs(self):
        g = build_csr(generate_kronecker(10, seed=8))
        src = int(np.argmax(g.out_degree))
        healthy, degraded = (
            distributed_sssp(
                g, src, num_ranks=32, machine=small_cluster(32),
                config=SSSPConfig(hierarchical_aggregation=True), faults=faults,
            )
            for faults in (None, "degraded=1.0,degraded_factor=8")
        )
        assert degraded.modeled_time > healthy.modeled_time
        assert np.array_equal(degraded.result.dist, healthy.result.dist)
