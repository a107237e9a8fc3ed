"""Memory feasibility model: what scale fits on what machine.

The record's problem size is memory-bound before it is time-bound: the
scale-42 CSR alone is petabytes.  This model estimates the per-node
footprint of a distributed run — CSR share, per-vertex state, communication
buffers — and answers the planning questions a record attempt starts from:
does (scale, nodes) fit, and what is the largest feasible scale.

Footprint coefficients reflect a production implementation (compressed
48-bit indices, owned-range state), not this simulator's convenience
layouts; they are explicit parameters so the assumptions are auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simmpi.machine import MachineSpec, sunway_exascale

__all__ = ["MemoryEstimate", "estimate_memory", "max_feasible_scale"]

# Production-layout coefficients (bytes).
_BYTES_PER_EDGE = 12.0  # 6-byte compressed index + 4-byte weight + amortized indptr
_BYTES_PER_VERTEX = 20.0  # dist (8) + parent (6 compressed) + bucket/flag state
_BUFFER_FRACTION = 0.15  # communication buffers as a fraction of data size
# Kernel-1 peak: the raw generated edge list and the CSR under construction
# coexist (plus shuffle buffers); the peak, not the steady state, gates the
# feasible scale — which is why record runs sit a scale or two below what
# the resident CSR alone would allow.
_CONSTRUCTION_PEAK_FACTOR = 2.5


@dataclass(frozen=True)
class MemoryEstimate:
    """Per-node memory footprint of one (scale, nodes) configuration."""

    scale: int
    nodes: int
    edge_bytes_per_node: float
    vertex_bytes_per_node: float
    buffer_bytes_per_node: float
    construction_peak_per_node: float
    mem_per_node: float

    @property
    def total_per_node(self) -> float:
        """Steady-state (kernel-3) footprint."""
        return self.edge_bytes_per_node + self.vertex_bytes_per_node + self.buffer_bytes_per_node

    @property
    def fits(self) -> bool:
        """Whether the run fits, including the kernel-1 construction peak."""
        return self.construction_peak_per_node <= self.mem_per_node

    def row(self) -> dict[str, object]:
        return {
            "scale": self.scale,
            "nodes": self.nodes,
            "edges_GB/node": round(self.edge_bytes_per_node / 1e9, 2),
            "vertices_GB/node": round(self.vertex_bytes_per_node / 1e9, 2),
            "buffers_GB/node": round(self.buffer_bytes_per_node / 1e9, 2),
            "steady_GB/node": round(self.total_per_node / 1e9, 2),
            "k1_peak_GB/node": round(self.construction_peak_per_node / 1e9, 2),
            "mem_GB/node": round(self.mem_per_node / 1e9, 1),
            "fits": self.fits,
        }


def estimate_memory(
    scale: int,
    nodes: int,
    machine: MachineSpec | None = None,
    edgefactor: int = 16,
    bytes_per_edge: float = _BYTES_PER_EDGE,
    bytes_per_vertex: float = _BYTES_PER_VERTEX,
    buffer_fraction: float = _BUFFER_FRACTION,
) -> MemoryEstimate:
    """Estimate the per-node footprint of a distributed SSSP run."""
    if scale < 1 or nodes < 1:
        raise ValueError("scale and nodes must be >= 1")
    machine = machine or sunway_exascale()
    if nodes > machine.max_nodes:
        raise ValueError(f"{nodes} nodes exceed {machine.name}'s {machine.max_nodes}")
    n = 2.0**scale
    m_directed = 2.0 * edgefactor * n
    edge_bytes = m_directed / nodes * bytes_per_edge
    vertex_bytes = n / nodes * bytes_per_vertex
    buffers = (edge_bytes + vertex_bytes) * buffer_fraction
    peak = edge_bytes * _CONSTRUCTION_PEAK_FACTOR + vertex_bytes + buffers
    return MemoryEstimate(
        scale=scale,
        nodes=nodes,
        edge_bytes_per_node=edge_bytes,
        vertex_bytes_per_node=vertex_bytes,
        buffer_bytes_per_node=buffers,
        construction_peak_per_node=peak,
        mem_per_node=machine.mem_per_node,
    )


def max_feasible_scale(
    nodes: int,
    machine: MachineSpec | None = None,
    edgefactor: int = 16,
) -> int:
    """Largest scale whose footprint fits in ``nodes`` nodes' memory."""
    machine = machine or sunway_exascale()
    scale = 1
    while estimate_memory(scale + 1, nodes, machine, edgefactor).fits:
        scale += 1
        if scale >= 60:  # address-space sanity bound
            break
    return scale
