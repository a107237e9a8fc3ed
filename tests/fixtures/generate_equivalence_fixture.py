"""Regenerate the engine-equivalence fixture.

The fixture pins the externally observable behaviour of every distributed
engine — distance bytes, counter totals, per-superstep wire bytes, modeled
time — so that internal re-architectures (owned-local state, kernel swaps)
can prove they changed *nothing* the algorithm or the cost model can see.

Run from the repository root:

    PYTHONPATH=src python tests/fixtures/generate_equivalence_fixture.py

Only regenerate when a change is *supposed* to alter observable behaviour;
the diff of the fixture is then the reviewable surface of that change.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from repro import api
from repro.core.config import SSSPConfig
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.simmpi.machine import small_cluster

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "engine_equivalence.json")

SCALE = 9
GRAPH_SEED = 3
FAULTS = "drop=0.02,delay=2us,seed=7"
# 32 ranks on a 16-node-per-supernode cluster: two supernodes, so these
# cases reach inter-supernode bytes, leader routing and degraded links.
WIDE = {"num_ranks": 32, "machine": small_cluster(64)}
HIER = SSSPConfig(hierarchical_aggregation=True)
WIDE_FAULTS = "drop=0.02,delay=2us,degraded=0.25,degraded_factor=3,seed=7"


def _hash_array(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def dist1d_cases() -> list[tuple[str, dict]]:
    cases: list[tuple[str, dict]] = []
    for part in ("block", "edge_balanced"):
        cases.append(
            (f"dist1d/part={part}", {"config": SSSPConfig(partition=part)})
        )
    for off in ("coalesce", "delegate_hubs", "fuse_buckets", "compressed_indices"):
        cases.append(
            (f"dist1d/no-{off}", {"config": SSSPConfig.optimized().without(off)})
        )
    cases.append(("dist1d/baseline", {"config": SSSPConfig.baseline()}))
    cases.append(
        ("dist1d/faults", {"config": SSSPConfig.optimized(), "faults": FAULTS})
    )
    cases.append(
        ("dist1d/ranks=7", {"config": SSSPConfig.optimized(), "num_ranks": 7})
    )
    cases.append(("dist1d/inter", dict(WIDE)))
    cases.append(("dist1d/hierarchical", {**WIDE, "config": HIER}))
    cases.append(
        (
            "dist1d/hierarchical+faults",
            {**WIDE, "config": HIER, "faults": WIDE_FAULTS},
        )
    )
    return cases


def dist2d_cases() -> list[tuple[str, dict]]:
    return [
        ("dist2d/default", {}),
        ("dist2d/no-coalesce", {"config": SSSPConfig(coalesce=False)}),
        (
            "dist2d/edge_balanced",
            {"config": SSSPConfig(partition="edge_balanced", compressed_indices=False)},
        ),
        ("dist2d/faults", {"faults": FAULTS}),
        ("dist2d/grid=2x3", {"num_ranks": 6, "grid": (2, 3)}),
        ("dist2d/inter", dict(WIDE)),
    ]


def bfs_cases() -> list[tuple[str, dict]]:
    return [
        ("bfs/auto", {"direction": "auto"}),
        ("bfs/top_down", {"direction": "top_down"}),
        ("bfs/block", {"direction": "auto", "partition": "block"}),
        ("bfs/faults", {"direction": "auto", "faults": FAULTS}),
        ("bfs/hierarchical", {**WIDE, "direction": "auto", "hierarchical": True}),
    ]


def record_case(graph, source: int, engine: str, kwargs: dict) -> dict:
    kwargs = dict(kwargs)
    num_ranks = kwargs.pop("num_ranks", 4)
    if engine == "bfs":
        # Historical case label: "bfs" names the BFS kernel on the 1-D
        # layout (spelled kernel="bfs" since the kernel registry).
        run = api.run(graph, source, kernel="bfs", num_ranks=num_ranks, **kwargs)
    else:
        run = api.run(graph, source, engine=engine, num_ranks=num_ranks, **kwargs)
    res = run.result
    entry = {
        "engine": engine,
        "num_ranks": num_ranks,
        "source": source,
        "modeled_time": run.modeled_time,
        "counters": res.counters.as_dict(),
        "comm": {k: v for k, v in run.comm.items()},
    }
    if hasattr(res, "dist"):
        entry["dist_sha256"] = _hash_array(res.dist)
    else:
        entry["level_sha256"] = _hash_array(res.level)
        entry["reached"] = int(res.num_reached)
    if engine == "dist1d":
        # The fixture pins the per-superstep wavefront for the 1-D cases.
        entry["step_bytes"] = [int(b) for b in run.step_bytes]
    return entry


def main() -> None:
    graph = build_csr(generate_kronecker(SCALE, seed=GRAPH_SEED))
    source = int(np.argmax(graph.out_degree))
    fixture = {
        "scale": SCALE,
        "graph_seed": GRAPH_SEED,
        "source": source,
        "faults": FAULTS,
        "cases": {},
    }
    for name, kwargs in dist1d_cases():
        fixture["cases"][name] = record_case(graph, source, "dist1d", kwargs)
    for name, kwargs in dist2d_cases():
        fixture["cases"][name] = record_case(graph, source, "dist2d", kwargs)
    for name, kwargs in bfs_cases():
        fixture["cases"][name] = record_case(graph, source, "bfs", kwargs)
    with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE_PATH} ({len(fixture['cases'])} cases)")


if __name__ == "__main__":
    main()
