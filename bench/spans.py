"""In-memory span recorder: the benchmark's stopwatch and its trace.

Every call the driver makes into a layer of the program runs inside one
:meth:`Spans.span`, which records name, layer, start, end, parent span,
run id and root (plus any tags the caller adds).  The same records serve
as stage timings (every run) and as the span file (``--trace 1`` only),
so traced and untraced runs time their stages the same way.  Nothing is
written until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Spans:
    """Nested wall-clock spans of one benchmark run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, *, root: int | None = None, **tags):
        record = {
            "id": len(self.records),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "name": name,
            "layer": layer,
            "root": root,
            **tags,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        """Wall of every finished span called ``name``, in order."""
        return [
            r["end"] - r["start"]
            for r in self.records
            if r["name"] == name and r["end"] is not None
        ]


def self_times(records: list[dict]) -> dict[int, float]:
    """Span id -> self time.  Children of one span never overlap (one thread)."""
    out = {r["id"]: r["end"] - r["start"] for r in records}
    for r in records:
        if r["parent"] is not None:
            out[r["parent"]] -= r["end"] - r["start"]
    return out


def self_time_by_layer(records: list[dict]) -> dict[str, float]:
    """Per layer, span wall minus the part its child spans cover."""
    layers: dict[str, float] = {}
    own = self_times(records)
    for r in records:
        layers[r["layer"]] = layers.get(r["layer"], 0.0) + own[r["id"]]
    return layers
