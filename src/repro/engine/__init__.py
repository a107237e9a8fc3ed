"""The generic superstep substrate every distributed engine runs on.

Three layers live here:

* :mod:`repro.engine.driver` — the low-level loop (vote → fabric
  allreduce → engine-defined step) shared by the 2-D checkerboard engine
  and the vertex-kernel substrate, plus the one
  :class:`~repro.engine.driver.RunSummary` every run returns, filled
  from the fabric in one place.
* :mod:`repro.engine.rank` — what every rank does besides its algorithm:
  the owner router, the outbox, the step-work readout and the final
  export's memory accounting.
* :mod:`repro.engine.protocol` — the high-level vertex-kernel substrate:
  implement the small :class:`~repro.engine.protocol.Kernel` protocol
  (``init_state`` / ``frontier_from`` / ``gen_messages`` /
  ``apply_messages`` / ``vote`` / ``done``) and
  :func:`~repro.engine.protocol.run_kernel` supplies the rest — owner
  routing over the fabric, executor backends, fault injection, the
  sanitizer, tracer spans and profile buckets.  Connected components,
  PageRank and k-core (:mod:`repro.engine.kernels`) are each ~100 lines
  on this interface.

:mod:`repro.engine.validation` centralizes the parameter checks every
engine shares, so error messages agree across engines by construction.
"""

from repro.engine.driver import (
    EngineContext,
    RunSummary,
    SuperstepEngine,
    run_superstep_engine,
)
from repro.engine.protocol import Kernel, RankContext, run_kernel
from repro.engine.results import CorenessResult, LabelsResult, LanesResult, RanksResult

__all__ = [
    "EngineContext",
    "RunSummary",
    "SuperstepEngine",
    "run_superstep_engine",
    "Kernel",
    "RankContext",
    "run_kernel",
    "LabelsResult",
    "RanksResult",
    "CorenessResult",
    "LanesResult",
]
