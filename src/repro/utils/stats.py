"""Statistics helpers used by the Graph500 reporting layer.

The Graph500 specification mandates reporting the *harmonic* mean of TEPS
over the sampled roots (TEPS is a rate; harmonic mean of rates corresponds
to total-work / total-time) together with its standard error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["harmonic_mean", "summarize", "Summary"]


def harmonic_mean(x: np.ndarray) -> float:
    """Harmonic mean of strictly positive values."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("harmonic_mean of empty array")
    if np.any(x <= 0):
        raise ValueError("harmonic_mean requires strictly positive values")
    return float(x.size / np.sum(1.0 / x))


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a sample, Graph500-report flavoured."""

    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    stddev: float
    hmean: float | None  # None when any value is non-positive
    hmean_stderr: float | None

    def row(self) -> dict[str, float]:
        return {
            "n": self.n,
            "min": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.maximum,
            "mean": self.mean,
            "stddev": self.stddev,
            "hmean": float("nan") if self.hmean is None else self.hmean,
        }


def summarize(x: np.ndarray) -> Summary:
    """Summarize a sample the way the Graph500 output block does.

    The harmonic-mean standard error follows the reference code: the
    standard error of the reciprocals, propagated through the reciprocal
    transform (delta method).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("summarize of empty array")
    hmean = None
    hstderr = None
    if np.all(x > 0):
        hmean = harmonic_mean(x)
        if x.size > 1:
            recip = 1.0 / x
            se_recip = np.std(recip, ddof=1) / np.sqrt(x.size)
            hstderr = float(hmean * hmean * se_recip)
        else:
            hstderr = 0.0
    q1, med, q3 = np.percentile(x, [25, 50, 75])
    return Summary(
        n=int(x.size),
        minimum=float(x.min()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        maximum=float(x.max()),
        mean=float(x.mean()),
        stddev=float(np.std(x, ddof=1)) if x.size > 1 else 0.0,
        hmean=hmean,
        hmean_stderr=hstderr,
    )
