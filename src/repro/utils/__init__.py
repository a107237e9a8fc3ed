"""Low-level utilities shared by every subsystem.

Deterministic counter-based PRNG (:mod:`repro.utils.prng`), the lane
words of the batched BFS kernel (:mod:`repro.utils.bitset`),
wall-clock/counter instrumentation (:mod:`repro.utils.timing`) and small
statistics helpers (:mod:`repro.utils.stats`).
"""

from repro.utils.prng import CounterRNG, splitmix64
from repro.utils.stats import harmonic_mean, summarize
from repro.utils.timing import Counters, Timer

__all__ = [
    "CounterRNG",
    "Counters",
    "Timer",
    "harmonic_mean",
    "splitmix64",
    "summarize",
]
