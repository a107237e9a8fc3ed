"""The witness matrix: one case table, one recorder and one fixture.

:meth:`Recorder.record` runs a case of :data:`CASES` and returns its answer
(sha256 of ``dist`` / ``level`` / ``labels`` / ``ranks`` / ``coreness``, of
every ``lane(i)`` view when batched, and the ``validate(graph)`` verdict:
parents are validated, not hashed), its schedule (``modeled_time``,
``time_breakdown``, ``comm``, counters, ``step_bytes``, ``work_imbalance``)
and what only the backend and racecheck relations compare.  From the
repository root::

    PYTHONPATH=src python tests/witness.py --against REV   # exit 1 on a diff
    PYTHONPATH=src python tests/witness.py --record        # move a schedule

``--against`` records REV's ``src/``, checked out into a temporary ``git
worktree``, with this same table, and prints each differing ``(case,
field)``.  A case name's first segment is its cell: ``dist1d`` / ``dist2d``
are SSSP on those layouts, any other is a kernel on ``dist1d``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro import api
from repro.core.config import SSSPConfig
from repro.graph.csr import build_csr
from repro.graph.dist_build import distributed_construction
from repro.graph.kronecker import KroneckerSpec, generate_kronecker
from repro.graph500.roots import sample_roots
from repro.simmpi.machine import small_cluster

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "witness.json")
BATCHED = ("bfs64", "sssp_batch")
#: Label -> (kernel, engine) of every distributed cell.
CELLS = {"dist1d": ("sssp", "dist1d"), "dist2d": ("sssp", "dist2d"), "bfs": ("bfs", "dist1d")}
CELLS.update((k, (k, "dist1d")) for k in ("cc", "pagerank", "kcore", *BATCHED))
ANSWERS = ("dist", "level", "labels", "ranks", "coreness")
#: Record fields the fixture does not pin; the relations compare them.
UNPINNED = ("parent_sha256", "rank_state", "sanitizer", "audit")
PARALLEL = ("thread", "process")
FAULTS = "drop=0.02,delay=2us,seed=7"
MODE_FAULTS = "drop=0.04,delay=1us,seed=11"


@dataclass(frozen=True)
class Case:
    """One run on Kronecker ``graph = (scale, seed)`` from the ``"hub"``
    (top-degree vertex; top eight when batched) or ``"sampled"`` (Graph500
    sample of eight) ``roots``, or from the one vertex ``roots`` names;
    ``wide`` runs on ``small_cluster(64)``;
    ``relations`` re-run it on :data:`PARALLEL` with racecheck off/on."""

    name: str
    kernel: str = "sssp"
    engine: str = "dist1d"
    num_ranks: int = 4
    graph: tuple[int, int] = (9, 2022)
    roots: str | int = "hub"
    config: dict | None = field(default=None, compare=False)
    knobs: dict = field(default_factory=dict, compare=False)
    wide: bool = False
    relations: tuple[str, ...] = ()
    backend: str | None = None
    workers: int | None = None
    racecheck: bool = False

    def variant(self, backend: str | None, workers: int | None = 3, racecheck: bool = False):
        """This case on another executor, or with the race checker on."""
        name = f"{self.name}@{backend}" + (f"x{workers}" if workers else "")
        return dataclasses.replace(
            self, name=name + ("+racecheck" if racecheck else ""), backend=backend,
            workers=workers, racecheck=racecheck, relations=(),
        )

    @property
    def mode(self) -> str:
        """``plain``, ``faults``, ``sanitize`` or ``faults+sanitize``."""
        return "+".join(k for k in ("faults", "sanitize") if self.knobs.get(k)) or "plain"


def _cell(label: str, name: str, **kw) -> Case:
    return Case(f"{label}/{name}", *CELLS[label], **kw)


def _engine_cases() -> list[Case]:
    g, wide = {"graph": (9, 3)}, {"graph": (9, 3), "num_ranks": 32, "wide": True}
    hier = {"hierarchical_aggregation": True}
    wide_faults = "drop=0.02,delay=2us,degraded=0.25,degraded_factor=3,seed=7"
    baseline = dict(partition="block", coalesce=False, delegate_hubs=False, fusion_cap=1,
                    compressed_indices=False)
    off = {"coalesce": {"coalesce": False}, "delegate_hubs": {"delegate_hubs": False},
           "fuse_buckets": {"fusion_cap": 1},
           "compressed_indices": {"compressed_indices": False}}
    auto = {"direction": "auto"}
    return [
        *(_cell("dist1d", f"part={p}", config={"partition": p}, **g)
          for p in ("block", "edge_balanced")),
        *(_cell("dist1d", f"no-{k}", config=v, **g) for k, v in off.items()),
        _cell("dist1d", "baseline", config=baseline, **g),
        _cell("dist1d", "faults", config={}, knobs={"faults": FAULTS}, **g),
        _cell("dist1d", "ranks=7", config={}, num_ranks=7, graph=(9, 3)),
        _cell("dist1d", "inter", **wide),
        _cell("dist1d", "hierarchical", config=hier, **wide),
        _cell("dist1d", "hierarchical+faults", config=hier, knobs={"faults": wide_faults},
              **wide),
        _cell("dist2d", "default", **g),
        _cell("dist2d", "no-coalesce", config={"coalesce": False}, **g),
        _cell("dist2d", "edge_balanced", config={"compressed_indices": False}, **g),
        _cell("dist2d", "faults", knobs={"faults": FAULTS}, **g),
        _cell("dist2d", "grid=2x3", num_ranks=6, knobs={"grid": (2, 3)}, graph=(9, 3)),
        _cell("dist2d", "inter", **wide),
        _cell("bfs", "auto", knobs=auto, **g),
        _cell("bfs", "top_down", knobs={"direction": "top_down"}, **g),
        _cell("bfs", "block", knobs={**auto, "partition": "block"}, **g),
        _cell("bfs", "faults", knobs={**auto, "faults": FAULTS}, **g),
        _cell("bfs", "hierarchical", knobs={**auto, "hierarchical": True}, **wide),
        # Roots with a level right at one of Beamer's thresholds: moving
        # BEAMER_ALPHA to 14 / 16 or BEAMER_BETA to 17 / 19 flips a direction.
        *(_cell("bfs", f"switch/root={root}/P={p}", num_ranks=p, roots=root, knobs=auto, **g)
          for root, p in ((365, 4), (479, 8), (208, 4), (95, 8))),
        # The shape tests/test_api.py compares config=None with.
        _cell("dist2d", "source=0", graph=(9, 5), roots=0),
    ]


#: The single-root engines under their knobs: partition, each ablation
#: toggle, the baseline, faults, a 2x3 grid, two supernodes direct and
#: hierarchical.
ENGINE_CASES = _engine_cases()
#: Every cell at P = 1, 4, 7 and 16, and at more ranks than vertices.
GRID_CASES = [
    *(_cell(label, f"P={p}", num_ranks=p) for label in CELLS for p in (1, 4, 7, 16)),
    _cell("bfs", "bottom_up/P=1", num_ranks=1, knobs={"direction": "bottom_up"}),
    *(_cell(label, "ranks>n", num_ranks=16, graph=(3, 1)) for label in CELLS),
]
_MODES = {"": {}, "+faults": {"faults": MODE_FAULTS}, "+sanitize": {"sanitize": True},
          "+faults+sanitize": {"faults": MODE_FAULTS, "sanitize": True}}
#: Faults and the sanitizer off and on at P = 8: what the relations re-run.
MODE_CASES = [
    _cell(label, "P=8" + mode, num_ranks=8, knobs=knobs,
          relations=("backends",) + (() if mode == "+faults+sanitize" else ("racecheck",)))
    for label in ("dist1d", "dist2d", "bfs") for mode, knobs in _MODES.items()
] + [
    _cell(label, "sampled/P=8" + mode, num_ranks=8, roots="sampled", knobs=knobs,
          relations=("backends",) + (("racecheck",) if mode == "+faults" else ()))
    for label in BATCHED for mode, knobs in _MODES.items()
]
#: Distributed kernel 1, the one row that is not a ``repro.run``.
KERNEL1 = Case("kernel1/P=4", kernel="kernel1")
CASES = ENGINE_CASES + GRID_CASES + MODE_CASES + [KERNEL1]


def by_name(name: str) -> Case:
    (found,) = (c for c in CASES if c.name == name)
    return found


def sha(*arrays) -> str:
    """sha256 over the bytes of the arrays."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _answer(result) -> dict:
    out = {f"{f}_sha256": sha(getattr(result, f)) for f in ANSWERS if hasattr(result, f)}
    if hasattr(result, "num_reached"):
        out["reached"] = int(result.num_reached)
    return out


class Recorder:
    """Runs cases, each once, and keeps their graphs, runs and records."""

    def __init__(self) -> None:
        self._graphs, self._runs, self._records = {}, {}, {}

    def graph(self, scale: int, seed: int):
        if (scale, seed) not in self._graphs:
            self._graphs[scale, seed] = build_csr(generate_kronecker(scale, seed=seed))
        return self._graphs[scale, seed]

    def source(self, case: Case):
        graph = self.graph(*case.graph)
        if case.kernel in ("cc", "pagerank", "kcore"):
            return None
        if isinstance(case.roots, int):
            return case.roots
        if case.roots == "sampled":
            return [int(r) for r in sample_roots(graph, 8, seed=2022)]
        top = [int(v) for v in np.argsort(-graph.out_degree, kind="stable")[:8]]
        return top if case.kernel in BATCHED else top[0]

    def run(self, case: Case):
        """The case's ``RunSummary``."""
        if case.name not in self._runs:
            # Only the keywords a case sets, so that older revisions run it.
            kwargs = dict(case.knobs)
            if case.racecheck:
                kwargs["racecheck"] = True
            if case.config is not None:
                kwargs["config"] = SSSPConfig(**case.config)
            if case.wide:
                kwargs["machine"] = small_cluster(64)
            if case.backend is not None:
                kwargs.update(executor=case.backend, workers=case.workers)
            self._runs[case.name] = api.run(
                self.graph(*case.graph), self.source(case), kernel=case.kernel,
                engine=case.engine, num_ranks=case.num_ranks, **kwargs,
            )
        return self._runs[case.name]

    def record(self, case: Case) -> dict:
        """The case's answer, schedule, relation fields and audits, as JSON."""
        if case.name not in self._records:
            rec = self._kernel1(case) if case.kernel == "kernel1" else self._summary(case)
            self._records[case.name] = json.loads(json.dumps(rec, default=lambda v: v.tolist()))
        return self._records[case.name]

    def _summary(self, case: Case) -> dict:
        run = self.run(case)
        result = run.result
        if hasattr(result, "num_lanes"):
            lanes = [result.lane(i) for i in range(result.num_lanes)]
            answer = {"lanes": [_answer(lane) for lane in lanes]}
            parents = [sha(lane.parent) for lane in lanes]
        else:
            answer = _answer(result)
            parents = sha(result.parent) if hasattr(result, "parent") else None
        return {
            "kernel": run.kernel, "engine": run.engine, "num_ranks": run.num_ranks,
            "source": self.source(case), **answer,
            "valid": result.validate(self.graph(*case.graph)).ok,
            "modeled_time": run.modeled_time, "time_breakdown": run.time_breakdown,
            "comm": run.comm, "counters": result.counters.as_dict(),
            "step_bytes": run.step_bytes, "work_imbalance": run.work_imbalance,
            "parent_sha256": parents, "rank_state": run.meta.get("rank_state"),
            "sanitizer": result.meta.get("sanitizer"),
            "audit": {"executor": run.meta.get("executor"),
                      "racecheck": result.meta.get("racecheck")},
        }

    def _kernel1(self, case: Case) -> dict:
        spec = KroneckerSpec(scale=case.graph[0], seed=case.graph[1])
        built = distributed_construction(spec, case.num_ranks)
        g = built.graph
        return {
            "num_ranks": built.num_ranks, "simulated_seconds": built.simulated_seconds,
            "shuffle_bytes": built.shuffle_bytes, "edges_per_rank": built.edges_per_rank,
            "graph_sha256": sha(g.indptr, g.adj, g.weight),
        }

    def pinned(self, case: Case) -> dict:
        """The fields of the case's record the fixture holds."""
        return {k: v for k, v in self.record(case).items() if k not in UNPINNED}

    def record_all(self, cases: list[Case]) -> dict:
        """Pinned record of every case; a case that raises records its error."""
        out = {}
        for case in cases:
            try:
                out[case.name] = self.pinned(case)
            except Exception as exc:  # one broken case must not hide the others
                out[case.name] = {"error": f"{type(exc).__name__}: {exc}"}
        return out


def _diff(path: str, a, b, out: list) -> list:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                _diff(sub, a[key], b[key], out)
            else:
                out.append((sub, a.get(key, "<absent>"), b.get(key, "<absent>")))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b) and any(
        isinstance(x, dict) for x in a
    ):
        for i, (x, y) in enumerate(zip(a, b)):
            _diff(f"{path}[{i}]", x, y, out)
    elif a != b:
        out.append((path, a, b))
    return out


def compare(old: dict, new: dict) -> list[tuple]:
    """``(case, field, old value, new value)`` for every difference between
    two ``{case: record}`` maps; a case missing on one side, or recorded
    as an error there, is one row with field ``"case"`` or ``"error"``."""
    rows = []
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            rows.append((name, "case", old.get(name, "<absent>"), new.get(name, "<absent>")))
        elif "error" in old[name] or "error" in new[name]:
            rows.append((name, "error", old[name].get("error"), new[name].get("error")))
        else:
            rows += [(name, *d) for d in _diff("", old[name], new[name], [])]
    return rows


def format_rows(rows: list[tuple], old: str, new: str) -> str:
    return "\n".join(f"{case}  {fld}  {old}: {a!r}  {new}: {b!r}" for case, fld, a, b in rows)


def assert_same(recorder: Recorder, base: Case, variant: Case) -> None:
    """``variant`` equals ``base`` on every field but the run's audits."""
    a, b = recorder.record(base), recorder.record(variant)
    rows = _diff("", {**a, "audit": None}, {**b, "audit": None}, [])
    assert not rows, format_rows([(variant.name, *r) for r in rows], base.name, variant.name)


def check(recorder: Recorder, pinned: dict, case: Case) -> None:
    """The case's record equals the fixture's, field for field."""
    old = {case.name: pinned[case.name]} if case.name in pinned else {}
    rows = compare(old, {case.name: recorder.pinned(case)})
    assert not rows, format_rows(rows, "fixture", "now")


def _git(top: str, *args: str) -> str:
    done = subprocess.run(["git", "-C", top, *args], capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(done.stderr.strip())
    return done.stdout.strip()


def against(rev: str) -> int:
    """Record REV's ``src/`` and the working tree; print every difference."""
    top = _git(os.path.dirname(os.path.abspath(__file__)), "rev-parse", "--show-toplevel")
    with tempfile.TemporaryDirectory(prefix="witness-") as tmp:
        tree = os.path.join(os.path.realpath(tmp), "tree")
        _git(top, "worktree", "add", "--detach", "--quiet", tree, rev)
        side = None
        try:
            commit = _git(tree, "rev-parse", "--short", "HEAD")
            env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
                       PYTHONDONTWRITEBYTECODE="1")
            side = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--emit"],
                                    env=env, stdout=subprocess.PIPE)
            new = Recorder().record_all(CASES)
            out = side.communicate()[0]
            if side.returncode:
                raise SystemExit(f"recording {rev} failed (exit {side.returncode})")
        finally:
            if side is not None and side.poll() is None:
                side.kill()
                side.wait()
            subprocess.run(["git", "-C", top, "worktree", "remove", "--force", tree])
            subprocess.run(["git", "-C", top, "worktree", "prune"])
    old = json.loads(out)
    if not old.pop("__repro__").startswith(tree + os.sep):
        raise SystemExit(f"the {rev} side did not import repro from {rev}'s src/")
    rows = compare(old, new)
    print(f"witness: {len(CASES)} cases, {rev} ({commit}) against "
          f"{os.path.dirname(api.__file__)}: {len(rows)} differing (case, field)")
    if rows:
        print(format_rows(rows, rev, "now"))
    return 1 if rows else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--record", action="store_true", help="rewrite the fixture")
    action.add_argument("--against", metavar="REV", help="compare REV with the working tree")
    action.add_argument("--emit", action="store_true", help="print every record as JSON")
    args = parser.parse_args()
    if args.against:
        return against(args.against)
    records = Recorder().record_all(CASES)
    if args.emit:
        print(json.dumps({**records, "__repro__": os.path.abspath(api.__file__)}))
        return 0
    bad = {k: r for k, r in records.items() if "error" in r or r.get("valid") is False}
    if bad:
        raise SystemExit(f"not recording: {json.dumps(bad, indent=1)}")
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
