"""SimMPI — a deterministic, in-process simulated message-passing machine.

The paper's contribution runs on >40M cores; the calibration band for this
reproduction says that is infeasible in Python with real MPI.  SimMPI is the
substitution: ranks live in one process, messages are numpy buffers moved by
a :class:`~repro.simmpi.fabric.Fabric`, and a cost model charges *simulated
time* for computation and communication against a
:class:`~repro.simmpi.machine.MachineSpec` describing a Sunway-class system
(node throughput, hierarchical supernode network, per-tier latency and
bandwidth).

What is measured vs. modeled:

* **measured** — message bytes, message counts, synchronization rounds,
  per-rank work (edge relaxations, bucket operations), load balance: these
  come from the actual algorithm execution and would be identical on a real
  machine;
* **modeled** — the conversion of those measurements into seconds, via an
  alpha-beta model with topology tiers, in one place: ``Topology.price``.
"""

from repro.simmpi.clock import SimClock
from repro.simmpi.executor import (
    EXECUTOR_BACKENDS,
    RankExecutor,
    RankTeam,
    WorkerError,
    resolve_executor,
)
from repro.simmpi.fabric import Fabric, Message, Wire
from repro.simmpi.faults import (
    FaultPlan,
    FaultSpec,
    UndeliverableMessageError,
    parse_faults,
)
from repro.simmpi.machine import (
    MachineSpec,
    laptop_machine,
    small_cluster,
    sunway_exascale,
)
from repro.simmpi.sanitizer import FabricSanitizer, SanitizerViolation
from repro.simmpi.topology import Topology
from repro.simmpi.trace import CommTrace

__all__ = [
    "CommTrace",
    "EXECUTOR_BACKENDS",
    "Fabric",
    "FabricSanitizer",
    "FaultPlan",
    "FaultSpec",
    "MachineSpec",
    "Message",
    "RankExecutor",
    "RankTeam",
    "SanitizerViolation",
    "SimClock",
    "Topology",
    "UndeliverableMessageError",
    "Wire",
    "WorkerError",
    "laptop_machine",
    "parse_faults",
    "resolve_executor",
    "small_cluster",
    "sunway_exascale",
]
