"""Per-layer metrics of a traced run: what the workload itself shows.

Counts come from the counted units' ``run.comm`` / ``run.modeled_time`` /
``run.time_breakdown`` and repeat exactly for a seed; stage times come
from the driver's spans; the five ``simmpi.*_s`` buckets come from the
program's own instrumentation (``repro.obs.Tracer`` passed through the
public ``tracer=`` parameter, folded by
``repro.analysis.attribution.PhaseAttribution``), used as it is.
Primitive and coverage probes are in :mod:`probes`.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.graph500 import teps_summary

BUCKETS = ("compute", "barrier_wait", "dispatch", "transport", "serialization")


def fold_trace(events: list[dict]) -> dict:
    """Reduce one traced solve's records to its bucket seconds, or to the reason why not."""
    try:
        from repro.analysis.attribution import PhaseAttribution
        from repro.obs import validate_profile_report

        attribution = PhaseAttribution.from_records(events)
        validate_profile_report(attribution.to_dict())  # the profiler's own 5% gate
        return {
            "events": len(events),
            "wall_s": attribution.total_wall_s,
            "imbalance": attribution.imbalance(),
            "buckets": {bucket: attribution.buckets[bucket] for bucket in BUCKETS},
        }
    except Exception as exc:  # a renamed profiler must not fail the run
        return {"events": len(events), "reason": " ".join(f"{type(exc).__name__}: {exc}".split())}


def workload_layers(loop, spans, graph, e2e: dict, account: dict, import_s: float):
    """``(values, reasons)`` for every per-layer metric the workload's own run gives."""
    values: dict[str, float | None] = {}
    reasons: dict[str, str] = {}
    solved = [u for u in loop.units if "modeled_s" in u]
    counted = [u for u in solved if u["counted"]]

    def first(name):
        return spans.durations(name)[0]

    def total(key):
        return sum(u["comm"][key] for u in counted)

    build_csr_s = first("build_csr")
    values.update({
        "graph.generate_s": first("generate_kronecker"),
        "graph.build_csr_s": build_csr_s,
        "graph.build_medges_per_s": graph.num_edges / build_csr_s / 1e6,
        "graph.csr_edges": graph.num_edges,
        "graph.csr_mb": graph.nbytes / 2**20,
        "graph500.sample_roots_ms": first("sample_roots") * 1e3,
        "graph500.teps_reduce_ms": first("teps_summary") * 1e3,
        "graph500.validate_root_p50_ms": statistics.median(spans.durations("validate")) * 1e3,
        "graph500.validate_share": e2e["validate_s"] / e2e["pipeline_s"],
        "graph500.traversed_edges": sum(a["traversed"] for a in loop.answers if a["counted"]),
        "api.import_s": import_s,
        "bench.driver_self_s": account["driver_self_s"],
    })

    per_root_s = {(u["phase"], u["unit"]): u["stage_s"]["solve"] / u["lanes"] for u in solved}
    root_ms = [seconds * 1e3 for seconds in per_root_s.values()]
    low, q1, q3, high = np.percentile(root_ms, [0, 25, 75, 100])
    values.update({
        "graph500.root_ms.min": low, "graph500.root_ms.q1": q1,
        "graph500.root_ms.q3": q3, "graph500.root_ms.max": high,
        "graph500.wall_hmean_mteps": teps_summary(np.array([
            a["traversed"] / per_root_s[a["phase"], a["unit"]] / 1e6
            for a in loop.answers if a["ok"]
        ])).hmean,
    })

    modeled = sum(u["modeled_s"] for u in counted)
    solve_wall = sum(u["stage_s"]["solve"] for u in counted)
    values.update({
        "simmpi.supersteps": total("supersteps"),
        "simmpi.messages": total("messages"),
        "simmpi.total_mb": total("total_bytes") / 2**20,
        "simmpi.allreduces": total("allreduces"),
        "simmpi.comm_imbalance": statistics.fmean(u["comm"]["comm_imbalance"] for u in counted),
        "simmpi.modeled_s": modeled,
        "simmpi.modeled_comm_share": sum(u["time_breakdown"]["comm"] for u in counted) / modeled,
        "simmpi.us_per_superstep": solve_wall * 1e6 / total("supersteps"),
        "simmpi.bytes_per_message": total("total_bytes") / total("messages"),
        "simmpi.executor_s": first("executor_open") + first("executor_close"),
    })

    traced = [u for u in solved if "buckets" in u.get("trace", {})]
    untraced_reason = next(
        (u["trace"]["reason"] for u in solved if "reason" in u.get("trace", {})),
        "no traced solve",
    )
    trace_names = [f"simmpi.{b}_s" for b in BUCKETS] + [
        "simmpi.rank_imbalance", "obs.trace_overhead", "obs.trace_events",
        "obs.events_per_superstep",
    ]
    if traced:
        events = sum(u["trace"]["events"] for u in traced)
        for bucket in BUCKETS:
            values[f"simmpi.{bucket}_s"] = sum(u["trace"]["buckets"][bucket] for u in traced)
        values.update({
            "simmpi.rank_imbalance": statistics.fmean(u["trace"]["imbalance"] for u in traced),
            "obs.trace_overhead": statistics.median(u["stage_s"]["solve_traced"] for u in traced)
            / statistics.median(u["stage_s"]["solve"] for u in traced) - 1.0,
            "obs.trace_events": events,
            "obs.events_per_superstep": events / sum(u["comm"]["supersteps"] for u in traced),
            # Not declared: how much of the driver's own traced-solve wall the
            # program's solve spans (and so the five buckets) cover.
            "obs.bucket_coverage": sum(u["trace"]["wall_s"] for u in traced)
            / sum(u["stage_s"]["solve_traced"] for u in traced),
        })
    else:
        for name in trace_names:
            values[name] = None
            reasons[name] = untraced_reason
    return values, reasons
