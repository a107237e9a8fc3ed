"""Communication trace: the measured (not modeled) side of a simulated run.

Bytes, message counts and synchronization rounds recorded here are exact
properties of the algorithm's execution; the evaluation figures that compare
optimizations (coalescing on/off, fusion on/off) read them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.simmpi.topology import TIER_INTER, TIER_INTRA

__all__ = ["CommTrace"]


@dataclass
class CommTrace:
    """Aggregated traffic statistics of one distributed run."""

    num_ranks: int
    bytes_intra: int = 0
    bytes_inter: int = 0
    # Extra intra-supernode hops taken by hierarchical aggregation
    # (member <-> leader forwarding); zero under direct routing.
    bytes_forwarded: int = 0
    messages: int = 0
    supersteps: int = 0
    barriers: int = 0
    allreduces: int = 0
    # Resilience accounting (all zero on a fault-free fabric): bytes resent
    # after a drop, messages dropped at least once, retry rounds taken, and
    # rank-stall events absorbed into simulated time.
    bytes_retransmitted: int = 0
    messages_dropped: int = 0
    retries: int = 0
    stalls: int = 0
    # Per-rank sent bytes, for load-balance analysis.
    bytes_sent_per_rank: np.ndarray = field(init=False)
    # Per-superstep bytes: the traffic wavefront over the run's lifetime.
    step_bytes: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.bytes_sent_per_rank = np.zeros(self.num_ranks, dtype=np.int64)

    @property
    def total_bytes(self) -> int:
        return int(self.bytes_intra + self.bytes_inter)

    def record_exchange(
        self,
        bytes_matrix: np.ndarray,
        tier_matrix: np.ndarray,
        message_count: int,
    ) -> None:
        """Account one superstep: ``bytes_matrix[src, dst]`` bytes moved
        between ranks (the diagonal, records a rank keeps, is zero)."""
        if bytes_matrix.shape != (self.num_ranks, self.num_ranks):
            raise ValueError("bytes matrix shape mismatch")
        self.bytes_intra += int(bytes_matrix[tier_matrix == TIER_INTRA].sum())
        self.bytes_inter += int(bytes_matrix[tier_matrix == TIER_INTER].sum())
        self.messages += int(message_count)
        self.supersteps += 1
        self.bytes_sent_per_rank += bytes_matrix.sum(axis=1).astype(np.int64)
        self.step_bytes.append(int(bytes_matrix.sum()))

    def record_retransmissions(
        self, retry_bytes: int, dropped: int, rounds: int
    ) -> None:
        """Account the retry traffic of one superstep."""
        self.bytes_retransmitted += int(retry_bytes)
        self.messages_dropped += int(dropped)
        self.retries += int(rounds)

    def comm_imbalance(self) -> float:
        """Max/mean of per-rank sent bytes (1.0 = perfectly balanced)."""
        mean = self.bytes_sent_per_rank.mean()
        if mean == 0:
            return 1.0
        return float(self.bytes_sent_per_rank.max() / mean)

    def summary(self) -> dict[str, float | int]:
        return {
            "ranks": self.num_ranks,
            "total_bytes": self.total_bytes,
            "bytes_intra": int(self.bytes_intra),
            "bytes_inter": int(self.bytes_inter),
            "bytes_forwarded": int(self.bytes_forwarded),
            "messages": int(self.messages),
            "supersteps": int(self.supersteps),
            "barriers": int(self.barriers),
            "allreduces": int(self.allreduces),
            "bytes_retransmitted": int(self.bytes_retransmitted),
            "messages_dropped": int(self.messages_dropped),
            "retries": int(self.retries),
            "stalls": int(self.stalls),
            "comm_imbalance": round(self.comm_imbalance(), 3),
        }
