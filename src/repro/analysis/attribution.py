"""Fold a telemetry stream into a wall-clock attribution table.

:class:`PhaseAttribution` answers the question BENCH_P2 raised: the
process backend ran at 0.33x — *where did the time go?*  It consumes the
records one instrumented run emits (``phase_call`` executor events,
``fabric_*`` collective spans, ``rank_task`` per-rank events, the
engine's ``solve`` span) and produces:

* a per-(superstep, rank, bucket) table — every team phase's wall split
  into compute / barrier_wait / dispatch / transport / serialization
  (see :mod:`repro.obs.profile` for the bucket contract);
* load-imbalance factors (max/mean per-rank compute, per step and
  overall);
* Amdahl-style speedup ceilings from the engines' already-collected
  ``critical_path`` / ``sum_of_ranks`` pair;
* a ranked bottleneck diagnosis, and a machine-readable document under
  the ``repro-profile-report/v1`` schema.

The attribution reconciles by construction: per-call buckets sum exactly
to each call's wall, every un-instrumented driver second inside the
``solve`` span is reported as ``driver_s`` and folded into the dispatch
bucket, so ``sum(buckets) == total_wall_s`` whenever a solve span is
present.
"""

from __future__ import annotations

from repro.obs.profile import BUCKET_HINTS, BUCKETS, PROFILE_SCHEMA

__all__ = ["PhaseAttribution"]

# Span names that delimit one engine step (same set RunReport uses).
_STEP_SPANS = frozenset({"superstep", "round", "level"})
# How driver-side fabric collective wall time maps onto buckets.
_FABRIC_BUCKET = {
    "fabric_exchange": "transport",
    "fabric_allgather": "transport",
    "fabric_allreduce": "barrier_wait",
}


def _zero_buckets() -> dict[str, float]:
    return {bucket: 0.0 for bucket in BUCKETS}


class PhaseAttribution:
    """Attribution of one traced run's wall clock to overhead buckets."""

    def __init__(self) -> None:
        self.meta: dict = {}
        self.total_wall_s = 0.0
        self.attributed_s = 0.0
        self.driver_s = 0.0
        self.buckets = _zero_buckets()
        self.steps: list[dict] = []
        self.phases: list[dict] = []
        self.per_rank_compute: list[float] = []
        self.per_rank_wait: list[float] = []
        self.ceilings: dict = {}
        self.spills = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_records(cls, records: list[dict], meta: dict | None = None) -> "PhaseAttribution":
        att = cls()
        spans_by_id = {r["id"]: r for r in records if r.get("type") == "span"}

        def step_ancestor(parent_id):
            """Nearest enclosing step span record, or ``None``."""
            seen = set()
            while parent_id is not None and parent_id not in seen:
                seen.add(parent_id)
                span = spans_by_id.get(parent_id)
                if span is None:
                    return None
                if span["name"] in _STEP_SPANS:
                    return span
                parent_id = span.get("parent")
            return None

        solve_tags: dict = {}
        critical_path = 0.0
        sum_of_ranks = 0.0
        # (step span id or None) -> accumulator row.
        step_rows: dict[int | None, dict] = {}
        rank_compute: dict[int, float] = {}
        rank_wait: dict[int, float] = {}

        def row_for(step_span) -> dict:
            key = None if step_span is None else step_span["id"]
            row = step_rows.get(key)
            if row is None:
                tags = {} if step_span is None else step_span.get("tags", {})
                row = {
                    "span": "control" if step_span is None else step_span["name"],
                    "phase": tags.get("phase", "control" if step_span is None else None),
                    "epoch": tags.get("epoch"),
                    "bucket": tags.get("bucket"),
                    "wall_s": 0.0,
                    "buckets": _zero_buckets(),
                    "per_rank_compute": {},
                    "per_rank_wait": {},
                }
                step_rows[key] = row
            return row

        for r in records:
            kind = r.get("type")
            if kind == "meta":
                att.meta.update(r.get("meta", {}))
            elif kind == "span":
                name = r["name"]
                tags = r.get("tags", {})
                if name == "solve":
                    att.total_wall_s += r.get("dur_wall") or 0.0
                    solve_tags.update(tags)
                elif name in _STEP_SPANS:
                    row = row_for(r)
                    row["wall_s"] += r.get("dur_wall") or 0.0
                    critical_path += float(tags.get("critical_path") or 0.0)
                    sum_of_ranks += float(tags.get("sum_of_ranks") or 0.0)
                elif name in _FABRIC_BUCKET:
                    wall = r.get("dur_wall") or 0.0
                    bucket = _FABRIC_BUCKET[name]
                    row = row_for(step_ancestor(r.get("parent")))
                    row["buckets"][bucket] += wall
                    att.buckets[bucket] += wall
                    att.attributed_s += wall
            elif kind == "event":
                name = r["name"]
                tags = r.get("tags", {})
                if name == "phase_call":
                    row = row_for(step_ancestor(r.get("parent")))
                    for bucket in BUCKETS:
                        seconds = float(tags.get(f"{bucket}_s") or 0.0)
                        row["buckets"][bucket] += seconds
                        att.buckets[bucket] += seconds
                    att.attributed_s += float(tags.get("wall_s") or 0.0)
                    att.spills += int(tags.get("spills") or 0)
                elif name == "rank_task":
                    rank = int(tags.get("rank", -1))
                    seconds = float(tags.get("seconds") or 0.0)
                    wait = float(tags.get("wait") or 0.0)
                    rank_compute[rank] = rank_compute.get(rank, 0.0) + seconds
                    rank_wait[rank] = rank_wait.get(rank, 0.0) + wait
                    row = row_for(step_ancestor(r.get("parent")))
                    row["per_rank_compute"][rank] = (
                        row["per_rank_compute"].get(rank, 0.0) + seconds
                    )
                    row["per_rank_wait"][rank] = (
                        row["per_rank_wait"].get(rank, 0.0) + wait
                    )

        if meta:
            att.meta.update(meta)
        for key in ("backend", "workers"):
            if key in solve_tags and key not in att.meta:
                att.meta[key] = solve_tags[key]
        num_ranks = int(
            att.meta.get("num_ranks")
            or (max(rank_compute) + 1 if rank_compute else 0)
        )
        att.meta.setdefault("num_ranks", num_ranks)

        # No solve span (e.g. a partial stream): the attributed total is
        # the best available denominator.
        if att.total_wall_s <= 0.0:
            att.total_wall_s = att.attributed_s
        att.driver_s = max(0.0, att.total_wall_s - att.attributed_s)
        att.buckets["dispatch"] += att.driver_s

        def dense(mapping: dict[int, float]) -> list[float]:
            return [round(mapping.get(rank, 0.0), 9) for rank in range(num_ranks)]

        att.per_rank_compute = dense(rank_compute)
        att.per_rank_wait = dense(rank_wait)

        phase_rows: dict[str, dict] = {}
        for row in step_rows.values():
            row["imbalance"] = _imbalance(list(row["per_rank_compute"].values()))
            row["per_rank_compute"] = dense(row["per_rank_compute"])
            row["per_rank_wait"] = dense(row["per_rank_wait"])
            if row["wall_s"] == 0.0 and row["span"] != "control":
                row["wall_s"] = sum(row["buckets"].values())
            att.steps.append(row)
            label = row["phase"] or row["span"]
            agg = phase_rows.setdefault(
                label, {"phase": label, "wall_s": 0.0, "buckets": _zero_buckets()}
            )
            agg["wall_s"] += row["wall_s"] if row["span"] != "control" else sum(
                row["buckets"].values()
            )
            for bucket in BUCKETS:
                agg["buckets"][bucket] += row["buckets"][bucket]
        att.steps.sort(key=lambda row: -row["wall_s"])
        att.phases = sorted(phase_rows.values(), key=lambda row: -row["wall_s"])

        workers = int(att.meta.get("workers") or 1)
        parallelism = sum_of_ranks / critical_path if critical_path > 0 else 1.0
        compute = att.buckets["compute"]
        total = att.total_wall_s
        # Amdahl: only the compute bucket parallelizes further; everything
        # else is serial overhead at this backend.
        denom = total - compute + compute / max(1, workers)
        att.ceilings = {
            "critical_path_s": critical_path,
            "sum_of_ranks_s": sum_of_ranks,
            "available_parallelism": parallelism,
            "workers": workers,
            "amdahl_speedup_ceiling": (total / denom) if denom > 0 else 1.0,
        }
        return att

    @classmethod
    def from_jsonl(cls, path, meta: dict | None = None) -> "PhaseAttribution":
        from repro.obs.sinks import read_jsonl

        return cls.from_records(read_jsonl(path), meta=meta)

    # -- views -------------------------------------------------------------

    @property
    def coverage(self) -> float:
        """Fraction of the solve wall directly measured (1.0 = everything)."""
        if self.total_wall_s <= 0.0:
            return 1.0
        return self.attributed_s / self.total_wall_s

    def bucket_shares(self) -> dict[str, float]:
        total = self.total_wall_s or 1.0
        return {bucket: self.buckets[bucket] / total for bucket in BUCKETS}

    def imbalance(self) -> float:
        """Max/mean accumulated per-rank compute (1.0 = perfectly balanced)."""
        return _imbalance(self.per_rank_compute)

    def diagnosis(self) -> list[dict]:
        """Every bucket ranked by cost, worst first, with a remediation hint."""
        shares = self.bucket_shares()
        ranked = sorted(BUCKETS, key=lambda bucket: -self.buckets[bucket])
        return [
            {
                "bucket": bucket,
                "seconds": round(self.buckets[bucket], 6),
                "share": round(shares[bucket], 4),
                "hint": BUCKET_HINTS[bucket],
            }
            for bucket in ranked
        ]

    def dominant_overhead(self) -> str:
        """The most expensive non-compute bucket — the thing to fix first."""
        overheads = [bucket for bucket in BUCKETS if bucket != "compute"]
        return max(overheads, key=lambda bucket: self.buckets[bucket])

    def to_dict(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA,
            "meta": self.meta,
            "total_wall_s": round(self.total_wall_s, 6),
            "attributed_s": round(self.attributed_s, 6),
            "coverage": round(self.coverage, 4),
            "driver_s": round(self.driver_s, 6),
            "buckets": {b: round(s, 6) for b, s in self.buckets.items()},
            "bucket_shares": {
                b: round(s, 4) for b, s in self.bucket_shares().items()
            },
            "spills": self.spills,
            "steps": [
                {**row, "wall_s": round(row["wall_s"], 6),
                 "buckets": {b: round(s, 6) for b, s in row["buckets"].items()}}
                for row in self.steps
            ],
            "phases": [
                {**row, "wall_s": round(row["wall_s"], 6),
                 "buckets": {b: round(s, 6) for b, s in row["buckets"].items()}}
                for row in self.phases
            ],
            "per_rank_compute": self.per_rank_compute,
            "per_rank_wait": self.per_rank_wait,
            "imbalance": round(self.imbalance(), 4),
            "ceilings": {k: round(v, 6) for k, v in self.ceilings.items()},
            "diagnosis": self.diagnosis(),
        }

    def render_text(self, max_steps: int = 8) -> str:
        from repro.graph500.report import render_table

        parts: list[str] = []
        meta = self.meta
        parts.append(
            "profile: engine={} backend={} workers={} ranks={}".format(
                meta.get("engine", "?"), meta.get("backend", "?"),
                meta.get("workers", "?"), meta.get("num_ranks", "?"),
            )
        )
        parts.append(
            f"wall: {self.total_wall_s:.4f}s  attributed: {self.attributed_s:.4f}s "
            f"({100.0 * self.coverage:.1f}% measured, driver residual "
            f"{self.driver_s:.4f}s -> dispatch)"
        )
        shares = self.bucket_shares()
        peak = max(self.buckets.values()) or 1.0
        rows = [
            {
                "bucket": bucket,
                "seconds": round(self.buckets[bucket], 4),
                "share": f"{100.0 * shares[bucket]:.1f}%",
                "bar": "#" * int(30 * self.buckets[bucket] / peak),
            }
            for bucket in sorted(BUCKETS, key=lambda b: -self.buckets[b])
        ]
        parts.append(render_table(rows, title="\nwall-clock attribution"))
        if self.phases:
            rows = [
                {
                    "phase": row["phase"],
                    "wall_s": round(row["wall_s"], 4),
                    **{b: round(row["buckets"][b], 4) for b in BUCKETS},
                }
                for row in self.phases
            ]
            parts.append(render_table(rows, title="\nby engine phase"))
        steps = [row for row in self.steps if row["span"] != "control"]
        if steps:
            rows = [
                {
                    "span": row["span"],
                    "phase": row["phase"] or "-",
                    "epoch": row["epoch"] if row["epoch"] is not None else "-",
                    "wall_s": round(row["wall_s"], 4),
                    "imbalance": round(row["imbalance"], 2),
                    **{b: round(row["buckets"][b], 4) for b in BUCKETS},
                }
                for row in steps[:max_steps]
            ]
            title = "\nslowest steps"
            if len(steps) > max_steps:
                title += f" (top {max_steps} of {len(steps)})"
            parts.append(render_table(rows, title=title))
        c = self.ceilings
        parts.append(
            "\nceilings: available parallelism {:.2f}x "
            "(sum_of_ranks {:.4f}s / critical_path {:.4f}s); "
            "Amdahl ceiling at {} workers: {:.2f}x; "
            "compute imbalance {:.2f}".format(
                c.get("available_parallelism", 1.0),
                c.get("sum_of_ranks_s", 0.0),
                c.get("critical_path_s", 0.0),
                c.get("workers", 1),
                c.get("amdahl_speedup_ceiling", 1.0),
                self.imbalance(),
            )
        )
        if self.spills:
            parts.append(f"pipe spills: {self.spills} (reply outgrew the arena)")
        parts.append("\ntop bottlenecks:")
        for i, entry in enumerate(self.diagnosis(), 1):
            parts.append(
                f"  {i}. {entry['bucket']}: {100.0 * entry['share']:.1f}% "
                f"({entry['seconds']:.4f}s) — {entry['hint']}"
            )
        dominant = self.dominant_overhead()
        parts.append(
            f"\ndiagnosis: dominant overhead is {dominant} "
            f"({100.0 * shares[dominant]:.1f}% of wall) — fix {dominant} first."
        )
        return "\n".join(parts)


def _imbalance(values: list[float]) -> float:
    finite = [v for v in values if v > 0.0]
    if not finite:
        return 1.0
    mean = sum(finite) / len(finite)
    return max(finite) / mean if mean > 0 else 1.0
