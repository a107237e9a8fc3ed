"""Rank placement, and the one conversion of traffic into seconds.

One SimMPI rank corresponds to one node of the machine.  Nodes are grouped
into supernodes (the Sunway network hierarchy): a message between nodes of
one group crosses the intra-supernode tier, any other the inter-supernode
tier.  Every fabric collective is a :class:`Schedule` of :class:`Hop` s,
and :meth:`Topology.price` alone turns one into simulated seconds.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.simmpi.machine import MachineSpec

__all__ = ["Hop", "Schedule", "Topology", "TIER_LOCAL", "TIER_INTRA", "TIER_INTER"]

TIER_LOCAL = 0  # same rank: no network traversal
TIER_INTRA = 1  # same supernode
TIER_INTER = 2  # different supernodes


class Hop(NamedTuple):
    """One transfer: ``nbytes[i, j]`` bytes from endpoint group ``i`` to ``j``.

    ``alpha`` / ``beta`` are per link: scalars, or matrices shaped like
    ``nbytes``.  ``slow`` is the degraded-link factor each link's bytes are
    multiplied by (``None``: healthy).  Every non-zero entry is one message
    on both of its ends, except on a ``root`` side (``"dst"`` gathers,
    ``"src"`` scatters), where an endpoint posts one message for the sum of
    its bytes.
    """

    nbytes: np.ndarray  # int64
    alpha: float | np.ndarray
    beta: float | np.ndarray
    slow: np.ndarray | None = None
    root: str | None = None


def _seconds(hop: Hop) -> float:
    """The slowest endpoint's time, the max of its send and receive sides."""
    load = hop.nbytes if hop.slow is None else hop.nbytes * hop.slow
    per_link = np.where(hop.nbytes > 0, hop.alpha + load * hop.beta, 0.0)
    sides = [per_link.sum(axis=1), per_link.sum(axis=0)]
    if hop.root is not None:
        side = 1 if hop.root == "dst" else 0
        ends = np.nonzero(hop.nbytes)
        # A root's bytes add up in endpoint order (not numpy's pairwise sum).
        total = np.bincount(ends[side], load[ends], minlength=len(sides[side]))
        sides[side] = np.where(total > 0, hop.alpha + total * hop.beta, 0.0)
    return float(np.maximum(*sides).max())


class Schedule(NamedTuple):
    """A collective's shape: ``rounds`` of hops, then ``syncs`` barrier trees.

    Rounds run one after another and the hops inside a round overlap.  A
    barrier tree is ⌈log₂ P⌉ levels of the machine's barrier latency; an
    allreduce is two (reduce, then broadcast).
    """

    rounds: tuple[tuple[Hop, ...], ...] = ()
    syncs: int = 0

    @property
    def forwarded(self) -> int:
        """Bytes relayed through a root: member <-> leader hops."""
        return sum(int(h.nbytes.sum()) for hops in self.rounds for h in hops if h.root)


class Topology:
    """Placement of ``num_ranks`` ranks onto a machine's node hierarchy.

    It builds the fabric's schedules and prices them (:meth:`price`): the
    only code that reads the machine's latencies and inverse bandwidths.
    """

    __slots__ = ("machine", "num_ranks", "supernode", "depth", "_alpha", "_beta")

    def __init__(self, machine: MachineSpec, num_ranks: int) -> None:
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        if num_ranks > machine.max_nodes:
            raise ValueError(
                f"{num_ranks} ranks exceed machine capacity of {machine.max_nodes} nodes"
            )
        self.machine = machine
        self.num_ranks = int(num_ranks)
        self.supernode = (
            np.arange(self.num_ranks, dtype=np.int64) // machine.nodes_per_supernode
        )
        self.depth = int(np.ceil(np.log2(self.num_ranks)))
        tiers = self.tier_matrix()
        self._alpha = np.array([0.0, machine.alpha_intra, machine.alpha_inter])[tiers]
        self._beta = np.array([0.0, machine.beta_intra, machine.beta_inter])[tiers]

    def tier_matrix(self) -> np.ndarray:
        """``(P, P)`` tier of the path between every rank pair."""
        same_sn = self.supernode[:, None] == self.supernode[None, :]
        tiers = np.where(same_sn, TIER_INTRA, TIER_INTER).astype(np.int8)
        np.fill_diagonal(tiers, TIER_LOCAL)
        return tiers

    def num_supernodes(self) -> int:
        return int(self.supernode[-1]) + 1

    # -- schedules -----------------------------------------------------------

    def exchange(
        self, nbytes: np.ndarray, routed: bool = False, slow: np.ndarray | None = None
    ) -> Schedule:
        """One alltoallv superstep of ``nbytes[src, dst]`` bytes, then a barrier.

        Direct: one hop over the rank links, the degraded factor ``slow``
        folded into each link's beta.  ``routed`` across supernodes: {A:
        members gather their inter-supernode bytes at their leader (the
        supernode's first rank) ∥ intra-supernode bytes go direct}, {B:
        leaders exchange supernode totals}, {C: leaders scatter to members}.
        """
        if not nbytes.any():
            return Schedule(syncs=1)
        if not routed or self.num_supernodes() == 1:
            beta = self._beta if slow is None else self._beta * slow
            return Schedule(((Hop(nbytes, self._alpha, beta),),), syncs=1)
        m = self.machine
        ranks = np.arange(self.num_ranks)
        leaders = np.searchsorted(self.supernode, np.arange(self.num_supernodes()))
        leader_of = leaders[self.supernode]
        member = leader_of != ranks
        inter = self.supernode[:, None] != self.supernode[None, :]
        inter_bytes = np.where(inter, nbytes, 0)
        gather = np.zeros_like(nbytes)
        gather[ranks, leader_of] = np.where(member, inter_bytes.sum(axis=1), 0)
        scatter = np.zeros_like(nbytes)
        scatter[leader_of, ranks] = np.where(member, inter_bytes.sum(axis=0), 0)
        between = np.add.reduceat(
            np.add.reduceat(inter_bytes, leaders, axis=0), leaders, axis=1
        )
        lead_slow = None if slow is None else slow[np.ix_(leaders, leaders)]
        intra = (m.alpha_intra, m.beta_intra, slow)
        return Schedule(
            (
                (Hop(gather, *intra, "dst"), Hop(np.where(inter, 0, nbytes), *intra)),
                (Hop(between, m.alpha_inter, m.beta_inter, lead_slow),),
                (Hop(scatter, *intra, "src"),),
            ),
            syncs=1,
        )

    def allgather(self, total_bytes: int) -> Schedule:
        """Recursive doubling, then a barrier: a latency tree at the worst
        link's alpha, and every byte once at the worst link's beta."""
        m = self.machine
        alpha = max(float(self._alpha.max(initial=0.0)), m.alpha_intra)
        beta = max(float(self._beta.max(initial=0.0)), m.beta_intra)
        hop = Hop(np.array([[total_bytes]], dtype=np.int64), self.depth * alpha, beta)
        return Schedule(((hop,),), syncs=1)

    # -- pricing ---------------------------------------------------------------

    def price(self, schedule: Schedule) -> tuple[float, float]:
        """``(comm_s, sync_s)`` of a schedule: the one conversion to seconds."""
        comm = 0.0
        for hops in schedule.rounds:
            comm += max(_seconds(hop) for hop in hops)
        return comm, schedule.syncs * (self.depth * self.machine.barrier_alpha)

    def ack_timeout(self, timeout: float | None) -> float:
        """A fault plan's ack timeout: ``timeout``, or 4 × the worst latency."""
        m = self.machine
        return timeout if timeout is not None else 4.0 * max(m.alpha_inter, m.alpha_intra)
