"""The superstep driver's contract.

``run_superstep_engine`` owns the loop: one vote gather before the first
allreduce, then allreduce → step, where each step hands back the votes it
read out of its last fused call.  Every step closes through
``EngineContext.close_step``, which tags the step span with the work the
step charged and the team's wall timing.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import run
from repro.engine.driver import run_superstep_engine
from repro.engine.rank import OwnerRouter, Rank
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph.synth import path_graph
from repro.obs import Tracer
from repro.partition import block1d
from repro.simmpi.fabric import Message

STEPS = 3


class _CountdownRank(Rank):
    """Counts down ``STEPS`` supersteps, scanning one edge per step."""

    def __init__(self, rank, router):
        super().__init__(rank, router)
        self.left = np.array([STEPS], dtype=np.int64)
        self.gathers = 0

    def remaining(self) -> float:
        self.gathers += 1
        return float(self.left[0])

    def tick(self) -> tuple:
        self.left[0] -= 1
        self.step_edges += 1
        return (float(self.take_step_work()), float(self.left[0]))

    def resident(self):
        return {"vertex": {"left": self.left}, "edges": {}, "other": {}}

    def answer(self):
        return {"left": int(self.left[0]), "gathers": self.gathers}


class _CountdownEngine:
    """A toy engine: every rank votes its countdown; a step ticks it."""

    layout = "dist1d"
    kernel_name = "countdown"
    hierarchical = False
    vote_op = "max"

    def __init__(self):
        self.vote_calls = 0
        self.steps = 0

    def build_ranks(self, graph, num_ranks):
        router = OwnerRouter(block1d(graph.num_vertices, num_ranks))
        return [_CountdownRank(r, router) for r in range(num_ranks)]

    def votes(self, ctx):
        self.vote_calls += 1
        return np.array(ctx.team.call("remaining"), dtype=np.float64)

    def done(self, reduced):
        return reduced == 0

    def step(self, ctx, reduced):
        self.steps += 1
        with ctx.tracer.span("superstep", cat="engine", step=self.steps) as sp:
            stats = np.array(ctx.team.call("tick", parallel=True), dtype=np.float64)
            ctx.charge(stats, "edges")
            ctx.close_step(sp)
        return stats[:, 1]

    def finalize(self, ctx, exports):
        return SimpleNamespace(meta={}, exports=exports), {}


def _bytes(n):
    return Message(payload=np.zeros(n, dtype=np.uint8))


def _spans(tracer, name):
    return [e for e in tracer.events if e["type"] == "span" and e["name"] == name]


@pytest.mark.parametrize("executor,workers", [(None, None), ("thread", 2)])
def test_votes_once_one_allreduce_per_step_tagged_spans(executor, workers):
    engine = _CountdownEngine()
    tracer = Tracer()
    out = run_superstep_engine(
        build_csr(path_graph(8)), engine, num_ranks=4, tracer=tracer,
        executor=executor, workers=workers,
    )
    exports = out.result.exports
    assert [e["left"] for e in exports] == [0] * 4
    # One vote gather per run; every later vote rides out of a step.
    assert engine.vote_calls == 1
    assert [e["gathers"] for e in exports] == [1] * 4
    # One allreduce per step, plus the one that ends the run.
    assert engine.steps == STEPS
    assert out.comm["allreduces"] == STEPS + 1
    # Every step span carries the work it charged and the team's timing.
    spans = _spans(tracer, "superstep")
    assert len(spans) == STEPS
    for span in spans:
        tags = span["tags"]
        assert (tags["edges"], tags["bytes"]) == (4, 0)
        assert 0.0 <= tags["critical_path"] <= tags["sum_of_ranks"] + 1e-9


def test_close_step_totals_every_phase_since_the_last_close():
    engine = _CountdownEngine()

    def three_phase_step(ctx, reduced):
        engine.steps += 1
        with ctx.tracer.span("superstep", cat="engine") as sp:
            for _ in range(2):
                # Rank 0 packs 5 bytes to rank 1 and 3 to itself; the
                # charge that follows reads both off the fabric.
                ctx.fabric.exchange([{1: _bytes(5), 0: _bytes(3)}, None])
                ctx.charge(np.full((ctx.num_ranks, 1), 3.0), "edges")
            stats = np.array(ctx.team.call("tick"), dtype=np.float64)
            ctx.charge(stats, "edges")
            assert ctx.close_step(sp) == {"edges": 2 * 2 * 3 + 2, "bytes": 2 * 8}
            assert ctx.step_work == {}
        return stats[:, 1]

    engine.step = three_phase_step
    tracer = Tracer()
    out = run_superstep_engine(
        build_csr(path_graph(8)), engine, num_ranks=2, tracer=tracer
    )
    assert engine.steps == STEPS
    assert [s["tags"]["edges"] for s in _spans(tracer, "superstep")] == [14] * STEPS
    assert out.time_breakdown["compute"] > 0.0


@pytest.mark.parametrize(
    "kernel,engine,gather,span",
    [
        ("sssp", "dist1d", "kernel_vote", "superstep"),
        ("sssp", "dist2d", "frontier_size", "round"),
        ("bfs", "dist1d", "kernel_vote", "superstep"),
        ("kcore", "dist1d", "kernel_vote", "superstep"),
        ("sssp_batch", "dist1d", "kernel_vote", "superstep"),
    ],
)
def test_every_engine_gathers_its_votes_once(kernel, engine, gather, span):
    graph = build_csr(generate_kronecker(8, seed=3))
    source = {"sssp": 0, "bfs": 0, "kcore": None, "sssp_batch": [0, 1]}[kernel]
    tracer = Tracer()
    run(graph, source, kernel=kernel, engine=engine, num_ranks=4, tracer=tracer)
    methods = [
        e["tags"]["method"] for e in tracer.events if e.get("name") == "phase_call"
    ]
    assert methods.count(gather) == 1
    spans = _spans(tracer, span)
    assert spans
    assert all({"critical_path", "sum_of_ranks"} <= set(s["tags"]) for s in spans)
