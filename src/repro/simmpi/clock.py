"""The simulated clock.

Accumulates simulated seconds by named component (``compute``, ``comm``,
``sync``, ...).  Every distributed run produces a time breakdown — the data
behind the communication-breakdown figure (F5).
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["SimClock"]


class SimClock:
    """Named accumulators of simulated time."""

    __slots__ = ("_components",)

    def __init__(self) -> None:
        self._components: defaultdict[str, float] = defaultdict(float)

    def charge(self, component: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot charge negative time ({seconds}s to {component})")
        self._components[component] += seconds

    @property
    def total(self) -> float:
        return float(sum(self._components.values()))

    def component(self, name: str) -> float:
        return float(self._components.get(name, 0.0))

    def breakdown(self) -> dict[str, float]:
        return {k: float(v) for k, v in sorted(self._components.items())}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v:.3e}s" for k, v in self.breakdown().items())
        return f"SimClock({inner})"
