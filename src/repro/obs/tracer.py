"""Structured run telemetry: nested spans and point events.

One :class:`Tracer` instance accompanies a run through every layer — the
Graph500 harness, the distributed engines, the simulated fabric — and
collects a single ordered stream of records:

* **spans** — nested intervals (``generation``, ``root``, ``epoch``,
  ``superstep``, ...) carrying both *wall* time (what Python spent) and
  *simulated* time (what the cost model charged) plus free-form tags;
* **events** — zero-duration points (``exchange``, ``allreduce``) emitted
  by the fabric, each parented to the span that was open when it fired;
* **meta** — run-level key/value context (scale, ranks, argv, ...).

Every record is a plain JSON-serializable dict, so sinks
(:mod:`repro.obs.sinks`) can stream them to JSONL or re-shape them into the
Chrome ``trace_event`` format, and
:class:`~repro.analysis.attribution.PhaseAttribution` can rebuild the span
tree post-hoc (span records are emitted at *exit*, so children precede
parents in the stream; ``id``/``parent`` link them).

The disabled path is near-zero-cost: :data:`NULL_TRACER` answers every call
with a no-op and hands out one shared inert span, so instrumented hot loops
pay one attribute check and one cheap call per superstep, nothing per edge.
"""

from __future__ import annotations

import time

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


def _jsonable(value):
    """Coerce numpy scalars (and other oddballs) to plain JSON types."""
    if type(value) in (str, int, float, bool) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar (some subclass float/int)
        return value.item()
    return str(value)


class Span:
    """One nested interval of a run; also its own context manager.

    Opened via :meth:`Tracer.span`; the record is emitted on exit, once the
    durations and any late :meth:`tag` values are known.
    """

    __slots__ = (
        "_tracer",
        "id",
        "parent",
        "name",
        "cat",
        "tags",
        "t_wall",
        "t_sim",
        "dur_wall",
        "dur_sim",
    )

    def __init__(self, tracer: "Tracer", name: str, cat: str, tags: dict) -> None:
        self._tracer = tracer
        self.id = tracer._next_id()
        self.parent: int | None = None
        self.name = name
        self.cat = cat
        self.tags = tags
        self.t_wall = 0.0
        self.t_sim: float | None = None
        self.dur_wall = 0.0
        self.dur_sim: float | None = None

    def tag(self, **tags) -> None:
        """Attach/overwrite tags after the span opened (e.g. work totals)."""
        self.tags.update(tags)

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.parent = tracer.current_span_id
        tracer._stack.append(self.id)
        self.t_sim = tracer.sim_time()
        self.t_wall = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        self.dur_wall = time.perf_counter() - self.t_wall
        end_sim = tracer.sim_time()
        if self.t_sim is not None and end_sim is not None:
            self.dur_sim = end_sim - self.t_sim
        popped = tracer._stack.pop()
        if popped != self.id:  # pragma: no cover - defensive
            raise RuntimeError(
                f"span stack corrupted: exited {self.id}, top was {popped}"
            )
        tracer._emit(
            {
                "type": "span",
                "id": self.id,
                "parent": self.parent,
                "name": self.name,
                "cat": self.cat,
                "t_wall": self.t_wall,
                "dur_wall": self.dur_wall,
                "t_sim": self.t_sim,
                "dur_sim": self.dur_sim,
                "tags": {k: _jsonable(v) for k, v in self.tags.items()},
            }
        )


class Tracer:
    """Collects one run's telemetry stream; fans records out to sinks.

    ``keep_events=True`` (the default) also accumulates records in
    :attr:`events` so in-process consumers (reports, tests) can read them
    without a round-trip through a file.
    """

    enabled = True

    def __init__(self, sinks: tuple | list = (), keep_events: bool = True) -> None:
        self.sinks = list(sinks)
        self.events: list[dict] = []
        self.meta: dict = {}
        self._keep = bool(keep_events)
        self._ids = 0
        self._stack: list[int] = []
        self._sim_clock = None  # object with a float .total (e.g. SimClock)
        self._seq = 0

    # -- wiring -----------------------------------------------------------

    def use_sim_clock(self, clock) -> None:
        """Adopt ``clock`` (anything with a float ``.total``) as the source
        of simulated timestamps; engines call this once per fabric."""
        self._sim_clock = clock

    def sim_time(self) -> float | None:
        """Current simulated seconds, or ``None`` outside any simulation."""
        clock = self._sim_clock
        return None if clock is None else float(clock.total)

    @property
    def current_span_id(self) -> int | None:
        return self._stack[-1] if self._stack else None

    @property
    def depth(self) -> int:
        return len(self._stack)

    def _next_id(self) -> int:
        self._ids += 1
        return self._ids

    # -- recording --------------------------------------------------------

    def span(self, name: str, cat: str = "engine", **tags) -> Span:
        """Open a nested span: ``with tracer.span("epoch", bucket=k) as sp:``"""
        return Span(self, name, cat, tags)

    def event(self, name: str, cat: str = "engine", **tags) -> None:
        """Record a zero-duration point event under the current span."""
        self._emit(
            {
                "type": "event",
                "id": self._next_id(),
                "parent": self.current_span_id,
                "name": name,
                "cat": cat,
                "t_wall": time.perf_counter(),
                "t_sim": self.sim_time(),
                "tags": {k: _jsonable(v) for k, v in tags.items()},
            }
        )

    def add_meta(self, **meta) -> None:
        """Attach run-level context (scale, ranks, argv, ...)."""
        clean = {k: _jsonable(v) for k, v in meta.items()}
        self.meta.update(clean)
        self._emit({"type": "meta", "meta": clean})

    def _emit(self, record: dict) -> None:
        record["seq"] = self._seq
        self._seq += 1
        if self._keep:
            self.events.append(record)
        for sink in self.sinks:
            sink.emit(record)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tracer(records={len(self.events)}, depth={self.depth})"


class _NullSpan:
    """Shared inert span: every disabled ``with tracer.span(...)`` reuses it."""

    __slots__ = ()

    def tag(self, **tags) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class NullTracer:
    """The disabled tracer: answers the full :class:`Tracer` surface with
    no-ops and allocates nothing per call."""

    enabled = False
    events: list[dict] = []  # intentionally shared and always empty
    meta: dict = {}
    sinks: list = []

    _NULL_SPAN = _NullSpan()

    def use_sim_clock(self, clock) -> None:
        pass

    def sim_time(self) -> None:
        return None

    @property
    def current_span_id(self) -> None:
        return None

    @property
    def depth(self) -> int:
        return 0

    def span(self, name: str, cat: str = "engine", **tags) -> _NullSpan:
        return self._NULL_SPAN

    def event(self, name: str, cat: str = "engine", **tags) -> None:
        pass

    def add_meta(self, **meta) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()
