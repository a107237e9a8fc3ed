"""Compare two benchmark (or profile) documents: per-engine wall deltas.

``repro bench diff old.json new.json`` replaces eyeballing two BENCH_*
dumps: it pairs engines between a baseline and a candidate document,
prints the wall-clock delta for each, and exits nonzero when any engine
regressed past the threshold — the gate CI's perf-smoke job runs on
every push.

Two document shapes are accepted and may be mixed only with themselves:

* BENCH documents (``repro bench --protocol P1|P4|K1|B1 --out``): an
  ``engines`` mapping whose keys are ``engine``, ``engine@backend`` or
  ``engine@backend@wN`` and whose values carry ``wall_seconds``;
* profile reports (``repro-profile-report/v1``): compared bucket by
  bucket, with ``total_wall_s`` as the regression gate.

Malformed documents raise :exc:`ValueError` with a message naming the
missing piece; the CLI maps that to exit code 2 so a broken baseline is
distinguishable from a real regression (exit 1).
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.obs.profile import BUCKETS, PROFILE_SCHEMA

__all__ = ["diff_documents", "load_document", "render_diff"]


def load_document(path) -> dict:
    """Read one JSON document; ``ValueError`` on anything unreadable."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return dict(doc)


def _wall_rows(doc: Mapping, label: str) -> dict[str, float]:
    """Comparable (name -> wall seconds) rows from either document shape."""
    if doc.get("schema") == PROFILE_SCHEMA:
        buckets = doc.get("buckets")
        total = doc.get("total_wall_s")
        if not isinstance(buckets, Mapping) or not isinstance(total, (int, float)):
            raise ValueError(
                f"{label}: profile report missing buckets/total_wall_s"
            )
        rows = {"total_wall": float(total)}
        for bucket in BUCKETS:
            if bucket in buckets:
                rows[f"bucket:{bucket}"] = float(buckets[bucket])
        return rows
    engines = doc.get("engines")
    if not isinstance(engines, Mapping) or not engines:
        raise ValueError(
            f"{label}: expected an 'engines' mapping (BENCH document) or a "
            f"{PROFILE_SCHEMA!r} profile report"
        )
    rows: dict[str, float] = {}
    for name, entry in engines.items():
        if not isinstance(entry, Mapping) or "wall_seconds" not in entry:
            raise ValueError(f"{label}: engines[{name!r}] has no wall_seconds")
        wall = entry["wall_seconds"]
        if not isinstance(wall, (int, float)) or isinstance(wall, bool) or wall <= 0:
            # A zero baseline could never gate, and no run takes zero time.
            raise ValueError(
                f"{label}: engines[{name!r}].wall_seconds must be a positive "
                f"number, got {wall!r}"
            )
        rows[str(name)] = float(wall)
    return rows


def diff_documents(
    old: Mapping, new: Mapping, max_regression: float = 0.25
) -> tuple[list[dict], list[str]]:
    """Pair the two documents' rows; return ``(rows, failures)``.

    Each row carries ``name/old_s/new_s/delta/status``; ``delta`` is the
    relative change (``new/old - 1``, positive = slower).  ``failures``
    lists human-readable reasons the comparison should gate: a row slower
    than ``max_regression``, or an engine present in the baseline but
    missing from the candidate.  Gating applies to engine walls and the
    profile ``total_wall`` row — individual buckets may legitimately
    trade against each other, so they inform but never fail.
    """
    if max_regression < 0:
        raise ValueError(f"max_regression must be >= 0, got {max_regression}")
    old_rows = _wall_rows(old, "baseline")
    new_rows = _wall_rows(new, "candidate")
    rows: list[dict] = []
    failures: list[str] = []
    for name in old_rows:
        old_s = old_rows[name]
        if name not in new_rows:
            rows.append(
                {"name": name, "old_s": old_s, "new_s": None,
                 "delta": None, "status": "missing"}
            )
            failures.append(f"{name}: present in baseline but not in candidate")
            continue
        new_s = new_rows[name]
        delta = (new_s / old_s - 1.0) if old_s > 0 else 0.0  # profile buckets may be 0
        gated = not name.startswith("bucket:")
        if gated and delta > max_regression:
            status = "regression"
            failures.append(
                f"{name}: {old_s:.6f}s -> {new_s:.6f}s "
                f"(+{100.0 * delta:.1f}%, threshold +{100.0 * max_regression:.1f}%)"
            )
        elif delta < 0:
            status = "improved"
        else:
            status = "ok"
        rows.append(
            {"name": name, "old_s": old_s, "new_s": new_s,
             "delta": delta, "status": status}
        )
    for name in new_rows:
        if name not in old_rows:
            rows.append(
                {"name": name, "old_s": None, "new_s": new_rows[name],
                 "delta": None, "status": "new"}
            )
    return rows, failures


def render_diff(
    rows: list[dict], failures: list[str], max_regression: float
) -> str:
    from repro.graph500.report import render_table

    def fmt(value: Any, pattern: str) -> str:
        return pattern.format(value) if value is not None else "-"

    table = [
        {
            "engine": row["name"],
            "old_s": fmt(row["old_s"], "{:.6f}"),
            "new_s": fmt(row["new_s"], "{:.6f}"),
            "delta": fmt(row["delta"], "{:+.1%}"),
            "status": row["status"],
        }
        for row in rows
    ]
    parts = [
        render_table(
            table,
            title=f"bench diff (regression threshold +{max_regression:.0%})",
        )
    ]
    if failures:
        parts.append("\nFAIL:")
        parts.extend(f"  {reason}" for reason in failures)
    else:
        parts.append("\nOK: no engine regressed past the threshold")
    return "\n".join(parts)
