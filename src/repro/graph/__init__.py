"""Graph substrate: containers, generators, CSR construction and analysis.

The Graph500 benchmark defines its own workload — a scale-free Kronecker
graph with uniform edge weights — so the generator here
(:func:`repro.graph.kronecker.generate_kronecker`) follows the benchmark
recurrence exactly (quadrant probabilities A=0.57, B=0.19, C=0.19, D=0.05,
edgefactor 16, uniform [0,1) weights, random vertex relabeling).
"""

from repro.graph.components import connected_components
from repro.graph.csr import CSRGraph, build_csr
from repro.graph.degree import DegreeStats, degree_stats
from repro.graph.dist_build import DistBuildResult, distributed_construction
from repro.graph.io import load_graph, save_graph
from repro.graph.kronecker import KroneckerSpec, generate_kronecker, kronecker_edge_slice
from repro.graph.synth import grid_graph, path_graph, random_graph, star_graph
from repro.graph.types import EdgeList

__all__ = [
    "CSRGraph",
    "DegreeStats",
    "DistBuildResult",
    "EdgeList",
    "KroneckerSpec",
    "build_csr",
    "connected_components",
    "degree_stats",
    "distributed_construction",
    "generate_kronecker",
    "grid_graph",
    "kronecker_edge_slice",
    "load_graph",
    "path_graph",
    "random_graph",
    "save_graph",
    "star_graph",
]
