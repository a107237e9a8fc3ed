"""The paper's primary contribution: bucketed ∆-stepping SSSP, shared-memory
and distributed, with the extreme-scale optimization stack (hub delegation,
message coalescing, bucket fusion, adaptive ∆).  The engines are reached
through :func:`repro.run`.
"""

from repro.core.adaptive import choose_delta
from repro.core.config import SSSPConfig
from repro.core.result import SSSPResult, derive_parents

__all__ = ["SSSPConfig", "SSSPResult", "choose_delta", "derive_parents"]
