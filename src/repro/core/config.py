"""Configuration of the distributed SSSP engine.

Every optimization the ablation experiment (F3) toggles is a field here, so
a variant is fully described by one :class:`SSSPConfig` value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.engine.validation import check_partition

__all__ = ["SSSPConfig"]


@dataclass(frozen=True)
class SSSPConfig:
    """Knobs of the distributed ∆-stepping engine.

    Attributes:
        delta: bucket width; ``None`` selects it adaptively from the graph
            (:func:`repro.core.adaptive.choose_delta`).
        partition: vertex-partition strategy, one of
            :data:`repro.partition.RUN_PARTITIONS` (``block``,
            ``edge_balanced``): each rank owns one contiguous id range.
        coalesce: the best-sent filter on top of the per-pass dedup-min
            fold every run does: suppress updates that cannot beat what
            the receiver was already sent.
        delegate_hubs: split hub adjacency lists across all ranks; a hub
            relaxation becomes a P-message broadcast instead of a
            degree-sized update storm from one rank.
        hub_degree_threshold: vertices with out-degree >= threshold are
            delegated; ``None`` derives it from the graph and rank count.
        fusion_cap: bucket fusion — drain the local bucket through up to
            this many local sub-iterations before each global exchange,
            cutting the number of global synchronizations per epoch; 1 is
            fusion off (one pass per exchange).
        compressed_indices: send vertex ids as uint32 on the wire when the
            graph is small enough (distances stay float64 — lossless).
        hierarchical_aggregation: route inter-supernode traffic through
            supernode leaders (gather/exchange/scatter) instead of direct
            rank-to-rank messages; bounds per-step message fan-out at the
            cost of forwarding inter-supernode bytes twice.
    """

    delta: float | None = None
    partition: str = "edge_balanced"
    coalesce: bool = True
    delegate_hubs: bool = True
    hub_degree_threshold: int | None = None
    fusion_cap: int = 64
    compressed_indices: bool = True
    hierarchical_aggregation: bool = False

    def __post_init__(self) -> None:
        check_partition(self.partition)
        if self.delta is not None and self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.fusion_cap < 1:
            raise ValueError("fusion_cap must be >= 1")
        if self.hub_degree_threshold is not None and self.hub_degree_threshold < 1:
            raise ValueError("hub_degree_threshold must be >= 1")

    @classmethod
    def optimized(cls) -> "SSSPConfig":
        """The full optimization stack (the paper's configuration)."""
        return cls()

    @classmethod
    def baseline(cls) -> "SSSPConfig":
        """Reference-style configuration: everything off, naive partition."""
        return cls(
            partition="block",
            coalesce=False,
            delegate_hubs=False,
            fusion_cap=1,
            compressed_indices=False,
        )

    def without(self, optimization: str) -> "SSSPConfig":
        """Return a copy with one named optimization disabled (ablation)."""
        toggles = {
            "coalesce": {"coalesce": False},
            "delegate_hubs": {"delegate_hubs": False},
            "fuse_buckets": {"fusion_cap": 1},
            "compressed_indices": {"compressed_indices": False},
            "edge_balanced": {"partition": "block"},
        }
        if optimization not in toggles:
            raise ValueError(f"unknown optimization {optimization!r}; options: {sorted(toggles)}")
        return replace(self, **toggles[optimization])

    def variant_name(self) -> str:
        """Short human-readable tag for report rows."""
        if self == SSSPConfig.baseline():
            return "baseline"
        off = [
            name
            for name, flag in (
                ("coalesce", self.coalesce),
                ("delegate", self.delegate_hubs),
                ("fusion", self.fusion_cap > 1),
                ("compress", self.compressed_indices),
            )
            if not flag
        ]
        if self.partition != "edge_balanced":
            off.append(f"part={self.partition}")
        return "optimized" if not off else "optimized -" + " -".join(off)
