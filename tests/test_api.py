"""The unified ``repro.api.run`` facade: kernel registry × engine selector."""

from __future__ import annotations

import dataclasses
import re
import warnings

import numpy as np
import pytest

from repro import api, run
from repro.api import ENGINES, KERNELS, RunSummary
from repro.baselines import dijkstra
from repro.core import SSSPConfig
from repro.core.adaptive import choose_batch_delta, choose_delta
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.simmpi.machine import small_cluster
from tests import witness

REPORT_KEYS = ("engine", "kernel", "num_ranks", "modeled_time",
               "time_breakdown", "comm", "counters", "work_imbalance", "meta")

BATCHED_KERNELS = ("bfs64", "sssp_batch")


def _source_for(kernel):
    if kernel in ("sssp", "bfs"):
        return 0
    if kernel in BATCHED_KERNELS:
        return [0, 1]
    return None


@pytest.fixture(scope="module")
def graph():
    return build_csr(generate_kronecker(9, seed=5))


@pytest.fixture(scope="module")
def oracle(graph):
    return dijkstra(graph, 0)


class TestDispatch:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_satisfies_runsummary(self, graph, oracle, engine):
        out = api.run(graph, 0, engine=engine, num_ranks=4)
        assert out.modeled_time >= 0.0
        assert isinstance(out.comm, dict)
        assert np.array_equal(out.result.dist, oracle.dist)

    @pytest.mark.parametrize("kernel,engine", sorted(api._DISPATCH))
    def test_every_cell_returns_one_runsummary(self, graph, kernel, engine):
        out = api.run(
            graph, _source_for(kernel), kernel=kernel, engine=engine, num_ranks=4
        )
        assert type(out) is RunSummary
        assert (out.engine, out.kernel) == (engine, kernel)
        report = out.report()
        assert tuple(report) == REPORT_KEYS
        assert (report["engine"], report["kernel"]) == (engine, kernel)
        # The uniform hook: every kernel-typed result oracle-checks itself.
        assert out.result.validate(graph)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_shared_engine_runs_every_kernel(self, graph, kernel):
        source = _source_for(kernel)
        if kernel in BATCHED_KERNELS:
            # The batched sweeps live on the dist1d substrate only.
            with pytest.raises(ValueError, match="no 'shared' engine"):
                api.run(graph, source, kernel=kernel, engine="shared")
            return
        out = api.run(graph, source, kernel=kernel, engine="shared")
        assert out.kernel == kernel
        assert out.modeled_time == 0.0
        assert out.comm == {}

    def test_top_level_alias(self, graph):
        assert run is api.run

    def test_distributed_engines_charge_time(self, graph):
        for engine in ("dist1d", "dist2d"):
            assert api.run(graph, 0, engine=engine, num_ranks=4).modeled_time > 0.0
        assert api.run(graph, 0, engine="shared").modeled_time == 0.0

    @pytest.mark.parametrize("engine", ["frob", "bfs"])
    def test_unknown_engine(self, graph, engine):
        with pytest.raises(ValueError, match=f"unknown engine '{engine}'"):
            api.run(graph, 0, engine=engine)

    def test_dist2d_reports_its_work_imbalance(self):
        g = build_csr(generate_kronecker(10, seed=5))
        out = api.run(g, int(np.argmax(g.out_degree)), engine="dist2d", num_ranks=8)
        assert out.work_imbalance > 1.0
        assert out.report()["work_imbalance"] == out.work_imbalance

    def test_unknown_kernel(self, graph):
        with pytest.raises(ValueError, match="unknown kernel 'frob'"):
            api.run(graph, 0, kernel="frob")

    def test_source_required_for_traversal_kernels(self, graph):
        with pytest.raises(ValueError, match="requires a source"):
            api.run(graph, kernel="sssp")
        with pytest.raises(ValueError, match="requires a source"):
            api.run(graph, kernel="bfs")

    def test_source_forbidden_for_whole_graph_kernels(self, graph):
        for kernel in ("cc", "pagerank", "kcore"):
            with pytest.raises(ValueError, match="whole-graph"):
                api.run(graph, 0, kernel=kernel)

    def test_unsupported_kernel_engine_combo(self, graph):
        with pytest.raises(ValueError, match="no 'dist2d' engine"):
            api.run(graph, 0, kernel="bfs", engine="dist2d")
        with pytest.raises(ValueError, match="no 'dist2d' engine"):
            api.run(graph, kernel="cc", engine="dist2d")

    def test_engine_kwargs_routed(self, graph):
        out = api.run(graph, 0, engine="dist2d", num_ranks=4, grid=(2, 2))
        assert out.result.meta["grid"] == "2x2"
        out = api.run(graph, 0, kernel="bfs", num_ranks=4, direction="top_down")
        assert out.result.counters["bottom_up_steps"] == 0

    def test_kernel_kwargs_routed(self, graph):
        out = api.run(graph, kernel="pagerank", num_ranks=4,
                      damping=0.9, iterations=5)
        assert out.result.damping == 0.9
        assert out.result.iterations == 5
        assert out.result.validate(graph)

    def test_engine_kwargs_rejected(self, graph):
        with pytest.raises(TypeError, match="unexpected keyword"):
            api.run(graph, 0, engine="dist1d", grid=(2, 2))
        with pytest.raises(TypeError, match="unexpected keyword"):
            api.run(graph, 0, kernel="bfs", num_ranks=4, fuse_buckets=True)
        with pytest.raises(TypeError, match="unexpected keyword"):
            api.run(graph, kernel="cc", num_ranks=4, damping=0.9)

    def test_shared_rejects_machine_and_faults(self, graph):
        with pytest.raises(ValueError, match="machine"):
            api.run(graph, 0, engine="shared", machine=small_cluster(4))
        with pytest.raises(ValueError, match="no fabric"):
            api.run(graph, 0, engine="shared", faults="drop=0.1")
        with pytest.raises(ValueError, match="no fabric"):
            api.run(graph, kernel="cc", engine="shared", sanitize=True)

    def test_config_rejected_outside_sssp(self, graph):
        with pytest.raises(ValueError, match="no SSSPConfig"):
            api.run(graph, 0, kernel="bfs", num_ranks=4, config=SSSPConfig())
        with pytest.raises(ValueError, match="no SSSPConfig"):
            api.run(graph, kernel="pagerank", num_ranks=4, config=SSSPConfig())

    def test_shared_run_wrapper(self, graph):
        out = api.run(graph, 0, engine="shared")
        assert out.num_ranks == 1
        assert out.comm == {}
        assert out.report()["counters"]["epochs"] > 0


class TestKernelAnswers:
    """The distributed kernels agree exactly with their sequential oracles
    (which is also what ``engine="shared"`` runs)."""

    @pytest.mark.parametrize("kernel", ("cc", "pagerank", "kcore"))
    def test_dist1d_matches_shared(self, graph, kernel):
        dist = api.run(graph, kernel=kernel, num_ranks=4)
        shared = api.run(graph, kernel=kernel, engine="shared")
        if kernel == "cc":
            assert np.array_equal(dist.result.labels, shared.result.labels)
        elif kernel == "pagerank":
            assert np.array_equal(dist.result.ranks, shared.result.ranks)
        else:
            assert np.array_equal(dist.result.coreness, shared.result.coreness)

    def test_bfs_shared_levels_match_dist(self, graph):
        dist = api.run(graph, 0, kernel="bfs", num_ranks=4)
        shared = api.run(graph, 0, kernel="bfs", engine="shared")
        assert np.array_equal(dist.result.level, shared.result.level)


class TestConfigHonored:
    def test_dist1d_config(self, graph):
        base = api.run(graph, 0, engine="dist1d", num_ranks=4,
                       config=SSSPConfig.baseline())
        opt = api.run(graph, 0, engine="dist1d", num_ranks=4,
                      config=SSSPConfig.optimized())
        assert np.array_equal(base.result.dist, opt.result.dist)
        assert base.comm["total_bytes"] != opt.comm["total_bytes"]

    def test_dist2d_accepts_config(self, graph, oracle):
        # The 2-D engine honors the frontier-relevant subset of SSSPConfig.
        for config in (
            SSSPConfig(coalesce=False, compressed_indices=False, partition="block"),
            SSSPConfig(coalesce=True, compressed_indices=True, partition="edge_balanced"),
        ):
            out = api.run(graph, 0, engine="dist2d", num_ranks=4, config=config)
            assert np.array_equal(out.result.dist, oracle.dist)
            # meta records the concrete partition kind (block1d, ..._edge_balanced).
            expected = "block1d" if config.partition == "block" else "block1d_edge_balanced"
            assert out.result.meta["partition"] == expected

    def test_dist2d_coalesce_changes_traffic(self, graph):
        on = api.run(graph, 0, engine="dist2d", num_ranks=4,
                     config=SSSPConfig(coalesce=True))
        off = api.run(graph, 0, engine="dist2d", num_ranks=4,
                      config=SSSPConfig(coalesce=False))
        assert np.array_equal(on.result.dist, off.result.dist)
        assert off.comm["total_bytes"] > on.comm["total_bytes"]

    def test_dist2d_rejects_hashed_partition(self, graph):
        message = re.escape("partition must be one of ('block', 'edge_balanced')")
        for engine in ("dist2d", "dist1d"):
            with pytest.raises(ValueError, match=message):
                api.run(graph, 0, engine=engine, num_ranks=4,
                        config=SSSPConfig(partition="hashed"))
        with pytest.raises(ValueError, match=message):
            api.run(graph, 0, kernel="bfs", num_ranks=4, partition="hashed")

    def test_dist2d_default_unchanged_by_config_arg(self, recorder, oracle):
        # config=None must run SSSPConfig(partition="block",
        # compressed_indices=False): block partition, coalescing on, int64
        # wire ids.  The witness case dist2d/source=0 pins the schedule
        # itself; here the explicit config must record every field alike.
        case = witness.by_name("dist2d/source=0")
        assert np.array_equal(recorder.run(case).result.dist, oracle.dist)
        explicit = dataclasses.replace(
            case, name=f"{case.name}+config",
            config={"partition": "block", "compressed_indices": False},
        )
        witness.assert_same(recorder, case, explicit)


class TestNoDeprecatedPaths:
    def test_facade_does_not_warn(self, graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for engine in ENGINES:
                api.run(graph, 0, engine=engine, num_ranks=2)
            for kernel in ("bfs", "cc", "pagerank", "kcore"):
                source = 0 if kernel == "bfs" else None
                api.run(graph, source, kernel=kernel, num_ranks=2)


class TestDeltaValidation:
    def test_explicit_bad_delta(self, graph):
        from repro.core.delta_stepping import _delta_stepping

        with pytest.raises(ValueError, match="delta must be positive"):
            _delta_stepping(graph, 0, delta=0.0)
        with pytest.raises(ValueError, match="delta must be positive"):
            _delta_stepping(graph, 0, delta=float("nan"))

    def test_adaptive_bad_delta_caught(self, monkeypatch):
        # A degenerate weight distribution can push choose_delta to a
        # non-positive value; that must fail loudly, not spin or return 0,
        # wherever ∆ is resolved (repro.core.adaptive.resolve_delta).
        import importlib

        from repro.core.delta_stepping import _delta_stepping

        adaptive = importlib.import_module("repro.core.adaptive")
        g = build_csr(generate_kronecker(6, seed=1))
        for bad in (0.0, float("nan")):
            monkeypatch.setattr(adaptive, "choose_delta", lambda graph: bad)
            for solve in (
                lambda: _delta_stepping(g, 0),
                lambda: api.run(g, 0, engine="shared"),
                lambda: api.run(g, 0, engine="dist1d", num_ranks=2),
            ):
                with pytest.raises(ValueError, match="choose_delta"):
                    solve()

    def test_delta_scale_honored_by_every_engine(self, graph):
        # Every engine resolves the one adaptive ∆ of repro.core.adaptive.
        shared = api.run(graph, 0, engine="shared")
        dist = api.run(graph, 0, engine="dist1d", num_ranks=4)
        assert shared.result.meta["delta"] == dist.result.meta["delta"]
        assert dist.result.meta["delta"] == choose_delta(graph)
        batch = api.run(graph, [0, 1], kernel="sssp_batch", num_ranks=4)
        assert batch.result.meta["delta"] == choose_batch_delta(graph)

    def test_sssp_batch_rejects_infinite_delta(self, graph):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            api.run(graph, [0, 1], kernel="sssp_batch", num_ranks=4, delta=float("inf"))
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            api.run(
                graph, [0, 1], kernel="sssp_batch", num_ranks=4,
                config=SSSPConfig(delta=float("inf")),
            )
