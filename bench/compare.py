"""A/A and A/B comparison of two sets of runs (``run.py --out``).

For every (workload, end-to-end metric) present in both sets, the median
of set B against the median of set A, as a ratio, next to the share by
which B is worse and the bound BENCHMARK.json fixes for the metric.  Exits
1 when any pair breaches its bound, 2 when there is nothing to compare.
Counts of traced runs with the same workload and seed must agree exactly;
differences are listed but do not change the exit code.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _runs(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def _samples(runs: list[dict], names) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if run["trace"]:
            continue
        for name in names:
            value = run["values"].get(name)
            if value is not None:
                out.setdefault((run["workload"], name), []).append(value)
    return out


def worse_by(a: float, b: float, better: str) -> float:
    """Share of A's median by which B is worse (negative: B is better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main(path_a: Path, path_b: Path) -> int:
    with open(BENCHMARK, encoding="utf-8") as fh:
        benchmark = json.load(fh)
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    counts = {m["name"] for m in benchmark["per_layer"] if m["unit"] == "count"}
    runs_a, runs_b = _runs(path_a), _runs(path_b)
    a, b = _samples(runs_a, specs), _samples(runs_b, specs)
    pairs = [key for key in a if key in b]
    if not pairs:
        print("nothing to compare: the two sets share no (workload, metric)")
        return 2
    cpus = {run["host"]["host_cpus"] for run in runs_a + runs_b}
    print(f"A = {path_a} ({len(runs_a)} runs)  B = {path_b} ({len(runs_b)} runs)  "
          f"host_cpus {sorted(cpus)}")
    print(f"{'workload':<13} {'metric':<20} {'n':>5} {'median A':>12} {'median B':>12} "
          f"{'B/A':>7} {'worse by':>9} {'bound':>6}")
    breaches = 0
    for workload, name in pairs:
        spec = specs[name]
        med_a = statistics.median(a[workload, name])
        med_b = statistics.median(b[workload, name])
        worse = worse_by(med_a, med_b, spec["better"])
        breach = worse > spec["bound"]
        breaches += breach
        print(f"{workload:<13} {name:<20} {len(a[workload, name]):>2}/{len(b[workload, name]):<2} "
              f"{med_a:>12.5g} {med_b:>12.5g} {med_b / med_a:>7.3f} {worse:>+9.1%} "
              f"{spec['bound']:>6.2f}{'  BREACH' if breach else ''}")

    traced_a = {(r["workload"], r["seed"]): r for r in runs_a if r["trace"]}
    compared = differ = 0
    for run in runs_b:
        twin = traced_a.get((run["workload"], run["seed"])) if run["trace"] else None
        if twin is None:
            continue
        for name in sorted(counts):
            compared += 1
            if run["values"].get(name) != twin["values"].get(name):
                differ += 1
                print(f"count differs: {run['workload']} seed {run['seed']} {name}: "
                      f"{twin['values'].get(name)} -> {run['values'].get(name)}")
    print(f"counts of traced runs: {compared} compared, {differ} differ")
    print(f"{breaches} of {len(pairs)} pairs breach their bound")
    return 1 if breaches else 0
