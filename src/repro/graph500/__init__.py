"""The Graph500 benchmark harness.

Implements the benchmark's three kernels and its reporting contract:

* kernel 1 — graph construction (:func:`repro.graph.build_csr`, timed);
* kernel 3 — SSSP from 64 sampled roots (the list this paper tops) and
  kernel 2 — BFS from the same sample, both through one root loop
  (:func:`run_roots`), each answer validated against the spec;
* output — harmonic-mean TEPS with quartiles, as the official output block.

The kernels run on the simulated machine, so the reported TEPS are
*simulated* TEPS against the configured :class:`~repro.simmpi.machine.MachineSpec`
— the honest substitute for the paper's physical runs (see DESIGN.md).
"""

from repro.graph500.harness import (
    BenchmarkResult,
    RootRun,
    run_graph500_bfs,
    run_graph500_sssp,
    run_roots,
)
from repro.graph500.roots import sample_roots
from repro.graph500.spec import GRAPH500_EDGEFACTOR, GRAPH500_NUM_ROOTS, problem_class
from repro.graph500.teps import teps_summary
from repro.graph500.validation import ValidationReport, validate_bfs, validate_sssp

__all__ = [
    "BenchmarkResult",
    "GRAPH500_EDGEFACTOR",
    "GRAPH500_NUM_ROOTS",
    "RootRun",
    "run_graph500_bfs",
    "ValidationReport",
    "problem_class",
    "run_graph500_sssp",
    "run_roots",
    "sample_roots",
    "teps_summary",
    "validate_bfs",
    "validate_sssp",
]
