"""Post-hoc views of a telemetry stream: the per-superstep timeline.

A :class:`RunReport` is built from tracer records (in-memory or re-read
from JSONL) and answers the questions the evaluation figures ask:

* **timeline** — one row per fabric exchange, in CommTrace superstep
  order, carrying wire bytes and message counts (exact, from the fabric)
  joined with the enclosing engine span's annotations (phase, epoch,
  bucket, edges relaxed, frontier size);
* **span summary** — wall/simulated time per span kind, the structured
  replacement for eyeballing nested Timer printouts;
* **totals** — bytes/messages/supersteps/allreduces, which must agree
  with ``CommTrace.summary()`` because both are fed by the same
  ``record_exchange`` call sites.

The invariant tests pin: ``sum(row["bytes"] for row in report.steps) ==
CommTrace.total_bytes`` for every instrumented engine.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RunReport", "STEP_SPANS", "span_ancestry"]

#: Span names that delimit one engine step (the engines' work units).
STEP_SPANS = frozenset({"superstep", "round", "level"})
# Tags copied from the nearest enclosing step span onto timeline rows.
_STEP_TAGS = (
    "phase",
    "epoch",
    "bucket",
    "edges",
    "frontier",
    "critical_path",
    "sum_of_ranks",
)


def span_ancestry(records: list[dict]):
    """``walk(parent_id)``: the span records enclosing ``parent_id``, nearest first.

    The one span walk every reader of a trace uses; the nearest step span
    of a record is the first ``walk`` result whose name is in
    :data:`STEP_SPANS`.
    """
    spans_by_id = {r["id"]: r for r in records if r.get("type") == "span"}

    def walk(parent_id):
        seen = set()
        while parent_id is not None and parent_id not in seen:
            seen.add(parent_id)
            span = spans_by_id.get(parent_id)
            if span is None:
                return
            yield span
            parent_id = span.get("parent")

    return walk


class RunReport:
    """Aggregated view of one run's telemetry records."""

    def __init__(self) -> None:
        self.meta: dict = {}
        self.steps: list[dict] = []
        self.span_summary: list[dict] = []
        self.total_bytes = 0
        self.total_messages = 0
        self.num_steps = 0
        self.allreduces = 0
        self.num_records = 0
        self.retransmitted_bytes = 0
        self.fault_events = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_events(cls, records: list[dict]) -> "RunReport":
        report = cls()
        report.num_records = len(records)
        ancestry = span_ancestry(records)

        # Per-step task durations: rank_task seconds grouped by their
        # nearest enclosing step span, as exact p50/p99 in microseconds.
        tasks_by_step: dict[int, list[float]] = {}
        for r in records:
            if r.get("type") != "event" or r.get("name") != "rank_task":
                continue
            for span in ancestry(r.get("parent")):
                if span["name"] in STEP_SPANS:
                    seconds = float(r.get("tags", {}).get("seconds", 0.0))
                    tasks_by_step.setdefault(span["id"], []).append(seconds * 1e6)
                    break
        task_pcts = {
            step: tuple(round(float(p), 3) for p in np.percentile(us, (50, 99)))
            for step, us in tasks_by_step.items()
        }

        summary: dict[tuple[str, str], dict] = {}
        for r in records:
            kind = r.get("type")
            if kind == "meta":
                report.meta.update(r.get("meta", {}))
            elif kind == "span":
                key = (r.get("cat", ""), r["name"])
                agg = summary.setdefault(
                    key, {"cat": key[0], "name": key[1], "count": 0,
                          "wall_s": 0.0, "sim_s": 0.0}
                )
                agg["count"] += 1
                agg["wall_s"] += r.get("dur_wall") or 0.0
                agg["sim_s"] += r.get("dur_sim") or 0.0
            elif kind == "event":
                name = r["name"]
                if name == "allreduce":
                    report.allreduces += 1
                elif name == "exchange":
                    report.steps.append(cls._step_row(r, ancestry, task_pcts))
                elif name == "fault":
                    report.fault_events += 1
        report.span_summary = sorted(
            summary.values(), key=lambda a: -a["wall_s"]
        )
        report.steps.sort(key=lambda row: (row["root"], row["step"]))
        report.total_bytes = sum(row["bytes"] for row in report.steps)
        report.total_messages = sum(row["messages"] for row in report.steps)
        report.retransmitted_bytes = sum(row["retry_bytes"] for row in report.steps)
        report.num_steps = len(report.steps)
        return report

    @staticmethod
    def _step_row(record: dict, ancestry, task_pcts: dict) -> dict:
        tags = record.get("tags", {})
        row = {
            "root": -1,
            "step": int(tags.get("step", -1)),
            "kind": tags.get("kind", "alltoallv"),
            "bytes": int(tags.get("bytes", 0)),
            "messages": int(tags.get("messages", 0)),
            "retry_bytes": int(tags.get("retry_bytes", 0)),
            "t_sim": record.get("t_sim"),
            "task_p50_us": None,
            "task_p99_us": None,
        }
        for t in _STEP_TAGS:
            row[t] = None
        for span in ancestry(record.get("parent")):
            stags = span.get("tags", {})
            if span["name"] in STEP_SPANS:
                for t in _STEP_TAGS:
                    if row[t] is None and t in stags:
                        row[t] = stags[t]
                if row["task_p50_us"] is None and span["id"] in task_pcts:
                    row["task_p50_us"], row["task_p99_us"] = task_pcts[span["id"]]
            elif span["name"] == "root" and row["root"] == -1:
                row["root"] = int(stags.get("index", stags.get("root", 0)))
        return row

    @classmethod
    def from_jsonl(cls, path) -> "RunReport":
        from repro.obs.sinks import read_jsonl

        return cls.from_events(read_jsonl(path))

    # -- views -------------------------------------------------------------

    def totals(self) -> dict:
        return {
            "total_bytes": self.total_bytes,
            "total_messages": self.total_messages,
            "supersteps": self.num_steps,
            "allreduces": self.allreduces,
            "retransmitted_bytes": self.retransmitted_bytes,
            "fault_events": self.fault_events,
            "roots": len({row["root"] for row in self.steps}) if self.steps else 0,
        }

    def steps_of_root(self, root: int) -> list[dict]:
        return [row for row in self.steps if row["root"] == root]

    def wavefront(self, root: int | None = None) -> list[int]:
        """Wire bytes per superstep — the F10 traffic-wavefront series."""
        rows = self.steps if root is None else self.steps_of_root(root)
        return [row["bytes"] for row in rows]

    def to_dict(self) -> dict:
        return {
            "meta": self.meta,
            "totals": self.totals(),
            "steps": self.steps,
            "span_summary": self.span_summary,
        }

    def render_text(self, max_rows: int = 80) -> str:
        """Human-readable timeline + span summary (``repro inspect``)."""
        from repro.graph500.report import render_table

        parts: list[str] = []
        t = self.totals()
        header = (
            f"records: {self.num_records}  supersteps: {t['supersteps']}  "
            f"bytes: {t['total_bytes']}  messages: {t['total_messages']}  "
            f"allreduces: {t['allreduces']}  roots: {t['roots']}"
        )
        if self.retransmitted_bytes or self.fault_events:
            header += (
                f"  retransmitted: {t['retransmitted_bytes']}  "
                f"fault events: {t['fault_events']}"
            )
        parts.append(header)
        if self.meta:
            parts.append(
                "meta: " + ", ".join(f"{k}={v}" for k, v in sorted(self.meta.items()))
            )
        if self.span_summary:
            rows = [
                {
                    "cat": a["cat"],
                    "span": a["name"],
                    "count": a["count"],
                    "wall_s": round(a["wall_s"], 6),
                    "sim_s": round(a["sim_s"], 9),
                }
                for a in self.span_summary
            ]
            parts.append(render_table(rows, title="\nspans"))
        if self.steps:
            peak = max(row["bytes"] for row in self.steps) or 1
            shown = self.steps[:max_rows]
            with_faults = self.retransmitted_bytes > 0
            with_tasks = any(
                row.get("task_p50_us") is not None for row in shown
            )
            rows = []
            for row in shown:
                out = {
                    "root": row["root"],
                    "step": row["step"],
                    "phase": row["phase"] or "-",
                    "bucket": row["bucket"] if row["bucket"] is not None else "-",
                    "bytes": row["bytes"],
                    "msgs": row["messages"],
                    "edges": row["edges"] if row["edges"] is not None else "-",
                    "frontier": row["frontier"] if row["frontier"] is not None else "-",
                }
                if with_tasks:
                    out["p50_us"] = (
                        row["task_p50_us"] if row.get("task_p50_us") is not None else "-"
                    )
                    out["p99_us"] = (
                        row["task_p99_us"] if row.get("task_p99_us") is not None else "-"
                    )
                if with_faults:
                    out["retry_B"] = row["retry_bytes"]
                out["bar"] = "#" * int(30 * row["bytes"] / peak)
                rows.append(out)
            title = "\nper-superstep timeline"
            if len(self.steps) > max_rows:
                title += f" (first {max_rows} of {len(self.steps)} steps)"
            parts.append(render_table(rows, title=title))
        return "\n".join(parts)
