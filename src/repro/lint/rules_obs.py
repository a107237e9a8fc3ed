"""Observability rule pack.

PR 6 added the performance-attribution subsystem: every second of wall
clock is decomposed into compute / barrier_wait / dispatch / transport /
serialization buckets from tracer records.  That attribution is only
trustworthy if timing flows through the sanctioned paths — the tracer
(``repro.obs``) and the executor's bucket instrumentation
(``repro.simmpi.executor``).  A stray ``time.perf_counter()`` pair in
engine or fabric code produces numbers the profiler cannot see, double
counts, or contradicts the bucket totals.

The rule therefore flags direct monotonic-clock reads everywhere else.
Code that genuinely needs raw clock access (the legacy ``Timer`` shim,
the perf microbenchmark harness) opts out with a
``# repro-lint: disable-file=obs-manual-timing`` comment carrying its
justification.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import LintModule, Rule, is_backend_path, name_key

__all__ = ["RULES", "scan"]

MANUAL_TIMING = Rule(
    "obs-manual-timing",
    "obs",
    "direct monotonic-clock read (time.perf_counter / time.monotonic) "
    "outside repro.obs and repro.simmpi.executor — time through the "
    "tracer so the profiler's bucket attribution stays complete",
)
RULES = (MANUAL_TIMING,)

#: Monotonic/CPU clock reads that constitute hand-rolled timing.
_MANUAL_CLOCKS = {
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.thread_time", "time.thread_time_ns",
}


def scan(module: LintModule) -> Iterator[tuple[Rule, ast.AST, str]]:
    """Yield ``(rule, node, message)`` for every hand-rolled clock read."""
    # The tracer package itself and the executor layer's bucket
    # instrumentation (the backend files) are where raw clock reads
    # belong — all of them feed the profiler.
    if is_backend_path(module.path) or "repro/obs/" in module.path.replace("\\", "/"):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        key = name_key(node.func)
        if key in _MANUAL_CLOCKS:
            yield (
                MANUAL_TIMING,
                node,
                f"{key}() is hand-rolled timing: measurements taken "
                f"outside repro.obs / the executor are invisible to "
                f"the phase-attribution profiler; wrap the region in "
                f"tracer.span(...) (or justify with "
                f"# repro-lint: disable-file=obs-manual-timing)",
            )
