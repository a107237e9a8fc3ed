"""Official-style Graph500 output block rendering.

The benchmark specifies the exact set of statistics a submission reports;
this module renders them from a :class:`~repro.graph500.harness.BenchmarkResult`
as the familiar ``key: value`` block, plus the fixed-width tables of the
experiment documents (:mod:`repro.analysis.experiments`).
"""

from __future__ import annotations

import numpy as np

from repro.graph500.harness import BenchmarkResult
from repro.graph500.spec import problem_class

__all__ = ["render_output_block", "render_table", "render_tables"]


def render_output_block(result: BenchmarkResult) -> str:
    """Render the spec's output statistics block as text."""
    teps = result.teps
    sims = np.array([r.simulated_seconds for r in result.roots])
    batched = [r for r in result.roots if r.lane is not None]
    lines = [
        f"SCALE: {result.scale}",
        f"edgefactor: {result.edgefactor}",
        f"NBFS: {len(result.roots)}",
        f"problem_class: {problem_class(result.scale)}",
        f"num_vertices: {result.num_vertices}",
        f"num_edges_generated: {result.num_edges_generated}",
        f"num_edges_constructed: {result.num_edges_csr}",
        f"machine: {result.machine_name} x {result.num_ranks} ranks",
        f"variant: {result.variant}",
        f"construction_time: {result.construction_wall_seconds:.6g} s (wall)",
        f"generation_time: {result.generation_wall_seconds:.6g} s (wall)",
        f"min_time: {sims.min():.6g} s (simulated)",
        f"mean_time: {sims.mean():.6g} s (simulated)",
        f"max_time: {sims.max():.6g} s (simulated)",
        f"min_TEPS: {teps.minimum:.6g}",
        f"firstquartile_TEPS: {teps.q1:.6g}",
        f"median_TEPS: {teps.median:.6g}",
        f"thirdquartile_TEPS: {teps.q3:.6g}",
        f"max_TEPS: {teps.maximum:.6g}",
        f"harmonic_mean_TEPS: {teps.hmean:.6g}",
        f"harmonic_stddev_TEPS: {teps.hmean_stderr:.6g}",
        f"validation: {'PASSED' if result.all_valid else 'FAILED'}",
    ]
    if batched:
        sweeps = len({r.batch for r in batched})
        lanes = max(r.counters.get("batch_lanes", 1) for r in batched)
        lines.insert(
            3,
            f"batched: {sweeps} multi-source sweeps x <= {lanes} lanes "
            "(amortized per-root timing)",
        )
    return "\n".join(lines)


def render_table(rows: list[dict[str, object]], title: str = "") -> str:
    """Render dict rows as a fixed-width ASCII table (experiment output)."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    cols = list(rows[0])
    rendered: list[list[str]] = []
    for row in rows:
        rendered.append([_fmt(row.get(c)) for c in cols])
    widths = [max(len(c), *(len(r[i]) for r in rendered)) for i, c in enumerate(cols)]
    sep = "  "
    header = sep.join(c.ljust(widths[i]) for i, c in enumerate(cols))
    rule = sep.join("-" * w for w in widths)
    body = [sep.join(r[i].ljust(widths[i]) for i in range(len(cols))) for r in rendered]
    out = [header, rule, *body]
    if title:
        out.insert(0, title)
    return "\n".join(out)


def render_tables(tables: dict[str, object]) -> str:
    """Render an experiment document's ``tables`` in order, blank-line separated.

    A list of row dicts is a table under its name; a dict is one row, printed
    as a ``key: value`` block; a string is a caption under the table before it.
    """
    text = ""
    for name, body in tables.items():
        if isinstance(body, str):
            text += "\n" + body
        elif isinstance(body, dict):
            text += "\n\n" + "\n".join(f"{key}: {value}" for key, value in body.items())
        else:
            text += "\n\n" + render_table(body, title=name)
    return text.lstrip("\n")


def _fmt(v: object) -> str:
    if v is None:
        return "-"  # not applicable
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1e5 or abs(v) < 1e-3:
            return f"{v:.4g}"
        return f"{v:.4f}".rstrip("0").rstrip(".")
    return str(v)
