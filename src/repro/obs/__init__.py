"""Run telemetry: structured spans, trace sinks, the profile contract.

The observability layer every engine reports into.  One :class:`Tracer`
travels through harness -> engine -> fabric collecting spans and events;
:mod:`~repro.obs.sinks` persist the stream (JSONL, Chrome ``trace_event``);
:class:`repro.analysis.attribution.PhaseAttribution` folds it back into the
per-superstep timeline and the wall-clock attribution.

Instrumentation contract: engines accept ``tracer=None`` and substitute
:data:`NULL_TRACER`, whose every operation is a no-op — tracing off costs
one attribute check per superstep, never per edge.
"""

from repro.obs.profile import (
    BUCKETS,
    PROFILE_SCHEMA,
    split_call_buckets,
    validate_profile_report,
)
from repro.obs.sinks import (
    JsonlSink,
    chrome_trace_events,
    read_jsonl,
    write_chrome_trace,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "BUCKETS",
    "JsonlSink",
    "NULL_TRACER",
    "NullTracer",
    "PROFILE_SCHEMA",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "read_jsonl",
    "split_call_buckets",
    "validate_profile_report",
    "write_chrome_trace",
]
