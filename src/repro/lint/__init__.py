"""repro-lint: a codebase-specific static analyzer for the repro package.

PR 3 split every engine into two index spaces (global vertex ids vs.
owned-local slots via :class:`~repro.partition.localmap.LocalIndexMap`)
and two sort disciplines (stable where byte order defines wire content,
unstable where a min-reduction erases order).  Those conventions are
correctness-critical and invisible to generic linters, so this package
enforces them mechanically with an AST-based rule engine:

* **index-space pack** — variables and arrays are tagged ``global`` or
  ``local`` via naming conventions and lightweight annotation comments
  (``# repro: index-space: ...``); the rules flag untranslated global ids
  indexing owned-local arrays, local ids fed to global-space APIs, and
  redundant ``to_local``/``to_global`` round trips;
* **determinism pack** — unseeded global RNG state, set iteration
  (order is implementation-defined), wall-clock reads in modeled-time
  code, and unstable sorts inside functions annotated as wire paths
  (``# repro: wire-path``);
* **dtype pack** — unguarded narrowing of vertex ids to 32-bit,
  per-iteration ``astype`` conversions of loop-invariant arrays, and
  hand-rolled byte math that hard-codes element widths;
* **obs pack** — hand-rolled timing (direct ``time.perf_counter`` /
  ``time.monotonic`` reads) outside ``repro.obs`` and the executor's
  bucket instrumentation, which the phase-attribution profiler cannot
  see;
* **shm pack** — the zero-copy transport's ownership contracts:
  ``np.frombuffer`` arena views escaping the producing call,
  ``team.call(...)`` results (which may hold wire handles) read after a
  later call recycled their out-arena, writes to ``# repro: shared-ro:`` arrays or module
  globals from parallel rank tasks, and ``Kernel`` hooks touching state
  outside their phase.

Findings can be suppressed per line or per file with
``# repro-lint: disable=<rule>[,<rule>...]`` comments.  The CLI entry
point is ``python -m repro lint [paths...]``.
"""

from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules, get_rules, rule_packs
from repro.lint.report import render_json, render_text
from repro.lint.runner import LintError, lint_paths, lint_source

# Importing the packs registers their rules.
from repro.lint import (  # noqa: F401  (registration)
    rules_determinism,
    rules_dtype,
    rules_index,
    rules_obs,
    rules_shm,
)

__all__ = [
    "Finding",
    "LintError",
    "Rule",
    "all_rules",
    "get_rules",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "rule_packs",
]
