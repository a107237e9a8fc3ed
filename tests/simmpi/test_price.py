"""``Topology.price`` against the per-collective cost code it replaced.

``_OracleFabric`` keeps the fabric's former ``_direct_step_cost`` and
``_hierarchical_step_cost`` verbatim.  Hypothesis draws rank counts,
supernode sizes, byte matrices (zeros and a non-zero diagonal included) and
degraded-link maps, and every comparison is ``==``: the schedule and its one
pricing function must reproduce the old seconds to the last bit, along with
the bytes hierarchical routing forwards.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi.fabric import Fabric, Message
from repro.simmpi.machine import small_cluster, sunway_exascale
from repro.simmpi.topology import Schedule, Topology


class _OracleFabric:
    """The attributes the old cost methods read, and the methods themselves."""

    def __init__(self, machine, num_ranks, link_beta_factor):
        self.machine = machine
        self.num_ranks = num_ranks
        self.topology = Topology(machine, num_ranks)
        tiers = self.topology.tier_matrix()
        self._alpha = np.array([0.0, machine.alpha_intra, machine.alpha_inter])[tiers]
        self._beta = np.array([0.0, machine.beta_intra, machine.beta_inter])[tiers]
        self.faults = (
            None
            if link_beta_factor is None
            else SimpleNamespace(link_beta_factor=link_beta_factor)
        )
        self.trace = SimpleNamespace(bytes_forwarded=0)

    def _direct_step_cost(
        self, bytes_matrix: np.ndarray, beta: np.ndarray | None = None
    ) -> float:
        """Each message costs alpha + bytes*beta on both sides; a rank's
        step cost is the max of its send and receive pipelines.  ``beta``
        overrides the healthy inverse-bandwidth matrix (degraded links)."""
        if beta is None:
            beta = self._beta
        has_msg = bytes_matrix > 0
        per_pair = np.where(has_msg, self._alpha + bytes_matrix * beta, 0.0)
        send_time = per_pair.sum(axis=1)
        recv_time = per_pair.sum(axis=0)
        return float(np.maximum(send_time, recv_time).max())

    def _hierarchical_step_cost(self, bytes_matrix: np.ndarray) -> float:
        """Three-stage leader routing for inter-supernode traffic.

        Stage A: members forward their inter-SN payload to the supernode
        leader (intra-SN hop).  Stage B: leaders exchange aggregated
        payloads (inter-SN hop).  Stage C: destination leaders scatter to
        members (intra-SN hop).  Intra-SN traffic still goes direct and
        overlaps stage A.  The stages serialize; the slowest rank bounds
        each stage.  Every hop moves its bytes at its own link's
        bandwidth, so a degraded link slows exactly the hops routed over
        it.
        """
        m = self.machine
        p = self.num_ranks
        sn = self.topology.supernode
        num_sn = self.topology.num_supernodes()
        # Bandwidth divisor of each (src, dst) link; 1.0 on a healthy one.
        slow = self.faults.link_beta_factor if self.faults is not None else None
        if slow is None:
            slow = np.ones((p, p))
        ranks = np.arange(p)
        inter_mask = sn[:, None] != sn[None, :]
        intra_bytes = np.where(~inter_mask, bytes_matrix, 0)
        inter_bytes = np.where(inter_mask, bytes_matrix, 0)
        # Leaders are the first rank of each supernode (supernodes hold
        # contiguous rank ranges, so ``sn`` is sorted).
        leaders = np.searchsorted(sn, np.arange(num_sn))
        leader_of = leaders[sn]
        is_leader = leader_of == ranks
        # Stage A: member -> leader gather of outbound inter-SN payload.
        out_inter = inter_bytes.sum(axis=1)
        up = out_inter * slow[ranks, leader_of]
        a_send = np.where(
            (out_inter > 0) & ~is_leader, m.alpha_intra + up * m.beta_intra, 0.0
        )
        a_recv = np.zeros(p)
        np.add.at(a_recv, leader_of, np.where(~is_leader, up, 0))
        a_recv = np.where(a_recv > 0, m.alpha_intra + a_recv * m.beta_intra, 0.0)
        stage_a = float(np.maximum(a_send, a_recv).max())
        # Forwarded bytes: everything a non-leader handed to its leader, and
        # everything a destination leader re-sends (stage C), counted as
        # extra intra-SN traffic.
        forwarded = int(np.where(~is_leader, out_inter, 0).sum())
        # Stage B: leader <-> leader aggregated exchange.
        sn_matrix = np.zeros((num_sn, num_sn), dtype=np.int64)
        for s1 in range(num_sn):
            rows = sn == s1
            for s2 in range(num_sn):
                if s1 != s2:
                    sn_matrix[s1, s2] = inter_bytes[np.ix_(rows, sn == s2)].sum()
        has = sn_matrix > 0
        per_pair = np.where(
            has,
            m.alpha_inter + sn_matrix * slow[np.ix_(leaders, leaders)] * m.beta_inter,
            0.0,
        )
        stage_b = float(np.maximum(per_pair.sum(axis=1), per_pair.sum(axis=0)).max())
        # Stage C: destination leader -> member scatter.
        in_inter = inter_bytes.sum(axis=0)
        down = in_inter * slow[leader_of, ranks]
        c_recv = np.where(
            (in_inter > 0) & ~is_leader, m.alpha_intra + down * m.beta_intra, 0.0
        )
        c_send = np.zeros(p)
        np.add.at(c_send, leader_of, np.where(~is_leader, down, 0))
        c_send = np.where(c_send > 0, m.alpha_intra + c_send * m.beta_intra, 0.0)
        stage_c = float(np.maximum(c_send, c_recv).max())
        forwarded += int(np.where(~is_leader, in_inter, 0).sum())
        self.trace.bytes_forwarded += forwarded
        # Direct intra-SN traffic overlaps stage A.
        has_intra = intra_bytes > 0
        intra_pair = np.where(
            has_intra, m.alpha_intra + intra_bytes * slow * m.beta_intra, 0.0
        )
        direct = float(
            np.maximum(intra_pair.sum(axis=1), intra_pair.sum(axis=0)).max()
        )
        return max(stage_a, direct) + stage_b + stage_c


@st.composite
def _superstep(draw):
    """A machine, a rank count, a byte matrix and a degraded-link map."""
    machine = replace(
        small_cluster(128), nodes_per_supernode=draw(st.sampled_from([1, 2, 3, 16]))
    )
    p = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    nbytes = rng.integers(1, 1 << 20, size=(p, p)) * (rng.random((p, p)) < density)
    np.fill_diagonal(nbytes, rng.integers(1, 1 << 20, size=p))
    factor = draw(st.sampled_from([None, 1.0, 2.5, 3.0, 8.0]))
    slow = None
    if factor is not None:
        slow = np.where(rng.random((p, p)) < draw(st.sampled_from([0.25, 1.0])), factor, 1.0)
    return machine, p, nbytes.astype(np.int64), slow


@settings(max_examples=300, deadline=None)
@given(_superstep())
def test_direct_price_is_the_old_direct_cost(case):
    machine, p, nbytes, slow = case
    oracle = _OracleFabric(machine, p, slow)
    beta = None if slow is None else oracle._beta * slow
    topo = Topology(machine, p)
    comm, sync = topo.price(topo.exchange(nbytes, slow=slow))
    assert comm == oracle._direct_step_cost(nbytes, beta=beta)
    assert sync == machine.barrier_alpha * int(np.ceil(np.log2(p)))


@settings(max_examples=300, deadline=None)
@given(_superstep())
def test_routed_price_is_the_old_hierarchical_cost(case):
    machine, p, nbytes, slow = case
    oracle = _OracleFabric(machine, p, slow)
    topo = Topology(machine, p)
    schedule = topo.exchange(nbytes, routed=True, slow=slow)
    if topo.num_supernodes() == 1:
        expected = oracle._direct_step_cost(
            nbytes, beta=None if slow is None else oracle._beta * slow
        )
    else:
        expected = oracle._hierarchical_step_cost(nbytes)
    assert topo.price(schedule)[0] == expected
    assert schedule.forwarded == oracle.trace.bytes_forwarded


def test_no_bytes_cost_nothing_but_the_barrier():
    topo = Topology(small_cluster(64), 32)
    empty = np.zeros((32, 32), dtype=np.int64)
    for routed in (False, True):
        schedule = topo.exchange(empty, routed=routed)
        assert schedule.rounds == ()
        assert topo.price(schedule) == (0.0, topo.price(Schedule(syncs=1))[1])


# -- the closed forms ---------------------------------------------------------


@pytest.mark.parametrize("machine", [small_cluster(64), sunway_exascale()])
@pytest.mark.parametrize("p", [1, 2, 5, 16, 17, 64])
def test_barrier_and_allreduce_are_latency_trees(machine, p):
    depth = int(np.ceil(np.log2(p)))
    topo = Topology(machine, p)
    assert topo.price(Schedule(syncs=1)) == (0.0, machine.barrier_alpha * depth)
    assert topo.price(Schedule(syncs=2)) == (0.0, 2.0 * (machine.barrier_alpha * depth))
    fabric = Fabric(machine, p)
    fabric.allreduce(np.zeros(p))
    assert fabric.clock.component("sync") == 2.0 * (machine.barrier_alpha * depth)


@pytest.mark.parametrize("p", [2, 5, 16, 17, 64])
def test_allgather_is_recursive_doubling_at_the_worst_link(p):
    m = small_cluster(64)
    depth = int(np.ceil(np.log2(p)))
    crosses = p > m.nodes_per_supernode
    worst_alpha = max(m.alpha_inter, m.alpha_intra) if crosses else m.alpha_intra
    worst_beta = max(m.beta_inter, m.beta_intra) if crosses else m.beta_intra
    sizes = [3 * r for r in range(p)]
    fabric = Fabric(m, p)
    fabric.allgather(
        [Message(v=np.zeros(n, dtype=np.uint8)) if n else None for n in sizes]
    )
    assert fabric.clock.component("comm") == (
        depth * worst_alpha + sum(sizes) * worst_beta
    )
    assert fabric.clock.component("sync") == m.barrier_alpha * depth


def test_allgather_ignores_degraded_links():
    m = small_cluster(64)
    gathered = [Message(v=np.zeros(10, dtype=np.uint8)) for _ in range(32)]
    healthy, degraded = Fabric(m, 32), Fabric(m, 32, faults="degraded=1.0,degraded_factor=8")
    healthy.allgather(gathered)
    degraded.allgather(gathered)
    assert degraded.clock.component("comm") == healthy.clock.component("comm")


@pytest.mark.parametrize("timeout", [None, 3e-6])
def test_ack_timeout_defaults_to_four_worst_latencies(timeout):
    m = small_cluster(64)
    expected = 4.0 * max(m.alpha_inter, m.alpha_intra) if timeout is None else timeout
    assert Topology(m, 4).ack_timeout(timeout) == expected


# -- the grep gate --------------------------------------------------------------

_PRICE_FIELDS = {"alpha_intra", "alpha_inter", "beta_intra", "beta_inter", "barrier_alpha"}
# Where the machine's latencies and inverse bandwidths may be read: their
# definition, the pricing code, and the analytic projection, which keeps its
# own conversion until it is rebuilt on ``Topology.price``.
_PRICE_READERS = {"simmpi/machine.py", "simmpi/topology.py", "analysis/projection.py"}


def test_only_the_pricing_code_reads_latencies_and_bandwidths():
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    readers = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in _PRICE_FIELDS:
                readers.add(path.relative_to(root).as_posix())
    assert readers <= _PRICE_READERS, sorted(readers - _PRICE_READERS)
    assert "simmpi/topology.py" in readers
