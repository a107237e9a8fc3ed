"""repro — reproduction of "Scaling Graph 500 SSSP to 140 Trillion Edges
with over 40 Million Cores" (SC 2022).

The one entry point is the unified kernel facade :func:`repro.run`
(alias of :func:`repro.api.run`):

>>> from repro import build_csr, generate_kronecker, run
>>> graph = build_csr(generate_kronecker(12))
>>> out = run(graph, source=0, kernel="sssp", engine="dist1d", num_ranks=8)
>>> out.result.dist, out.modeled_time, out.report()
>>> out.result.validate(graph)      # uniform oracle check, any kernel

``kernel=`` picks the computation (``sssp``, ``bfs``, ``cc``, ``pagerank``,
``kcore``, batched ``bfs64`` / ``sssp_batch``), ``engine=`` the layout
(``dist1d`` every kernel, ``dist2d`` SSSP, ``shared`` all but the batched
two) — the answer is the same on each.  The
facade also accepts ``faults="drop=0.01,delay=2us,seed=7"`` to inject
deterministic fabric faults — answers stay bit-identical; only modeled
time and retransmission accounting change.

See README.md for the architecture overview and DESIGN.md for the
reproduction methodology (what is measured vs. modeled).
"""

from repro.api import ENGINES, KERNELS, run
from repro.core import SSSPConfig, SSSPResult, choose_delta
from repro.graph import build_csr, generate_kronecker
from repro.graph500 import run_graph500_sssp, validate_sssp
from repro.simmpi import (
    FaultPlan,
    FaultSpec,
    MachineSpec,
    parse_faults,
    small_cluster,
    sunway_exascale,
)

__version__ = "1.2.0"

__all__ = [
    "ENGINES",
    "FaultPlan",
    "FaultSpec",
    "KERNELS",
    "MachineSpec",
    "SSSPConfig",
    "SSSPResult",
    "__version__",
    "build_csr",
    "choose_delta",
    "generate_kronecker",
    "parse_faults",
    "run",
    "run_graph500_sssp",
    "small_cluster",
    "sunway_exascale",
    "validate_sssp",
]
