"""Telemetry sinks: JSONL streaming and Chrome ``trace_event`` export.

JSONL is the canonical on-disk form — one record per line, append-only,
streamable while the run is in flight, and read back by :func:`read_jsonl`
into the record list :class:`~repro.analysis.attribution.PhaseAttribution`
folds.

The Chrome exporter re-shapes the same records into the ``trace_event``
JSON object format (``{"traceEvents": [...]}``) understood by
``chrome://tracing`` and https://ui.perfetto.dev: spans become complete
(``ph: "X"``) events on a wall-clock track, point events become instants
(``ph: "i"``), and when simulated timestamps are present a second process
track renders the run in simulated time — the machine model's view of the
same execution.

Per-rank lanes: ``rank_task`` events that carry a ``start`` timestamp
(emitted by the executor when profiling) render as complete slices on a
stable per-rank ``tid`` (rank ``r`` -> tid ``r + 2``; the driver keeps
tid 1), each lane named via ``thread_name`` metadata — so a parallel
phase shows as overlapping bars per rank instead of a flat instant
stream on one row.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "JsonlSink",
    "read_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
]


class JsonlSink:
    """Streams records to ``path``, one JSON object per line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")

    def emit(self, record: dict) -> None:
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def read_jsonl(path: str | Path) -> list[dict]:
    """Load a JSONL trace back into the in-memory record list."""
    records: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


_WALL_PID = 1
_SIM_PID = 2
# Simulated seconds are microseconds-scale for toy runs; scale them up so
# Perfetto's microsecond axis still shows structure.
_SIM_SCALE = 1e6


def _is_rank_slice(record: dict) -> bool:
    """A ``rank_task`` event with absolute timestamps renders as a slice."""
    return (
        record["name"] == "rank_task"
        and "start" in record.get("tags", {})
        and "rank" in record.get("tags", {})
    )


def chrome_trace_events(records: list[dict]) -> list[dict]:
    """Re-shape tracer records into a Chrome ``traceEvents`` list."""
    spans = [r for r in records if r.get("type") == "span"]
    points = [r for r in records if r.get("type") == "event"]
    # The epoch must precede every rendered timestamp, including task
    # *starts* (which predate their event's emission time).
    t0 = min(
        [r["t_wall"] for r in spans + points]
        + [r["tags"]["start"] for r in points if _is_rank_slice(r)],
        default=0.0,
    )
    out: list[dict] = [
        {
            "ph": "M",
            "pid": _WALL_PID,
            "name": "process_name",
            "args": {"name": "wall time"},
        },
        {
            "ph": "M",
            "pid": _SIM_PID,
            "name": "process_name",
            "args": {"name": "simulated time"},
        },
        {
            "ph": "M",
            "pid": _WALL_PID,
            "tid": 1,
            "name": "thread_name",
            "args": {"name": "driver"},
        },
        {
            "ph": "M",
            "pid": _SIM_PID,
            "tid": 1,
            "name": "thread_name",
            "args": {"name": "driver"},
        },
    ]
    # One stable lane per rank, announced once via thread_name metadata.
    ranks = sorted(
        {int(r["tags"]["rank"]) for r in points if _is_rank_slice(r)}
    )
    for rank in ranks:
        out.append(
            {
                "ph": "M",
                "pid": _WALL_PID,
                "tid": rank + 2,
                "name": "thread_name",
                "args": {"name": f"rank {rank}"},
            }
        )
    for r in spans:
        args = dict(r.get("tags", {}))
        if r.get("dur_sim") is not None:
            args["sim_seconds"] = r["dur_sim"]
        out.append(
            {
                "ph": "X",
                "pid": _WALL_PID,
                "tid": 1,
                "name": r["name"],
                "cat": r.get("cat", ""),
                "ts": (r["t_wall"] - t0) * 1e6,
                "dur": r["dur_wall"] * 1e6,
                "args": args,
            }
        )
        if r.get("t_sim") is not None and r.get("dur_sim") is not None:
            out.append(
                {
                    "ph": "X",
                    "pid": _SIM_PID,
                    "tid": 1,
                    "name": r["name"],
                    "cat": r.get("cat", ""),
                    "ts": r["t_sim"] * _SIM_SCALE,
                    "dur": r["dur_sim"] * _SIM_SCALE,
                    "args": dict(r.get("tags", {})),
                }
            )
    for r in points:
        if _is_rank_slice(r):
            tags = r["tags"]
            out.append(
                {
                    "ph": "X",
                    "pid": _WALL_PID,
                    "tid": int(tags["rank"]) + 2,
                    "name": tags.get("method", "rank_task"),
                    "cat": r.get("cat", ""),
                    "ts": (tags["start"] - t0) * 1e6,
                    "dur": tags.get("seconds", 0.0) * 1e6,
                    "args": dict(tags),
                }
            )
            continue
        out.append(
            {
                "ph": "i",
                "s": "t",
                "pid": _WALL_PID,
                "tid": 1,
                "name": r["name"],
                "cat": r.get("cat", ""),
                "ts": (r["t_wall"] - t0) * 1e6,
                "args": dict(r.get("tags", {})),
            }
        )
    return out


def write_chrome_trace(records: list[dict], path: str | Path) -> None:
    """Write records as a ``chrome://tracing`` / Perfetto-loadable file."""
    payload = {
        "traceEvents": chrome_trace_events(records),
        "displayTimeUnit": "ms",
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
