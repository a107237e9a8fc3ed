"""Power-of-two bucketed histograms.

Frontier sizes and task durations span many orders of magnitude;
exponential buckets (``le_1, le_2, le_4, ...``) keep a histogram
O(log max) regardless of run length.  :class:`~repro.obs.report.RunReport`
builds its per-superstep ``task_p50_us`` / ``task_p99_us`` columns with it.
"""

from __future__ import annotations

import math

__all__ = ["Histogram"]


class Histogram:
    """Power-of-two bucketed distribution with exact count/sum/min/max."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        # bucket exponent e counts observations with 2^(e-1) < v <= 2^e
        # (e=0 also covers v <= 1, including zero).
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        e = 0 if v <= 1.0 else math.ceil(math.log2(v))
        self.buckets[e] = self.buckets.get(e, 0) + 1

    def observe_many(self, values) -> None:
        """Observe every element of an iterable (e.g. a per-rank array)."""
        for v in values:
            self.observe(v)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile (``0.0 <= q <= 1.0``) from buckets.

        Walks the power-of-two buckets to the one holding the target
        observation and interpolates linearly within its range
        (``(2^(e-1), 2^e]``; the e=0 bucket spans ``[0, 1]``), then clamps
        to the exact observed min/max — so p0/p100 are exact and interior
        percentiles are within one bucket of truth.  ``None`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile q must be in [0, 1], got {q!r}")
        if self.count == 0:
            return None
        target = q * self.count
        seen = 0
        for e, n in sorted(self.buckets.items()):
            seen += n
            if seen >= target:
                hi = float(2**e)
                lo = 0.0 if e == 0 else float(2 ** (e - 1))
                # Position of the target within this bucket's count.
                frac = 1.0 - (seen - target) / n
                value = lo + frac * (hi - lo)
                return min(max(value, self.min), self.max)
        return self.max  # pragma: no cover - guarded by seen >= target

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {f"le_{2 ** e}": n for e, n in sorted(self.buckets.items())},
        }
