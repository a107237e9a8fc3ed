"""Pre-routed rank edges: what a 1-D rank relaxes is numbered at build.

Every edge target a single-root ∆-stepping rank can relax — its local
rows and its hub slices — is stored as a *code*: its index in the rank's
sorted table of owned ids and remote targets (the *halo*), so the owned
range is one block of codes and code order is global order.  The decode
test checks the numbering and the light-first row layout against the
graph on every run partition, with and without delegation; the AST gate
checks that the routing hot path never asks who owns a vertex and never
sorts or searches a batch.
"""

import ast
import inspect

import numpy as np
import pytest

from repro.api import _sssp_dist1d
from repro.core import ghost_cache
from repro.core.config import SSSPConfig
from repro.core.delegation import DelegateTable
from repro.engine.kernels import sssp_batch
from repro.graph.csr import CSRGraph, build_csr
from repro.graph.kronecker import generate_kronecker


@pytest.fixture(scope="module")
def graph():
    return build_csr(generate_kronecker(10, seed=3))


def _light_first(rows: CSRGraph, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """``(adj, weight)`` of ``rows`` with each row's light edges first."""
    row = np.repeat(np.arange(rows.num_vertices), rows.out_degree)
    order = np.argsort(2 * row + (rows.weight >= delta), kind="stable")
    return rows.adj[order], rows.weight[order]


@pytest.mark.parametrize("num_ranks", [1, 7, 16])
@pytest.mark.parametrize("delegate_hubs", [True, False], ids=["delegation", "no-delegation"])
@pytest.mark.parametrize("partition", ["block", "edge_balanced"])
def test_every_code_decodes_to_its_global_target(graph, partition, delegate_hubs, num_ranks):
    config = SSSPConfig(partition=partition, delegate_hubs=delegate_hubs)
    engine = _sssp_dist1d(graph, int(np.argmax(graph.out_degree)), num_ranks, config)
    kernel = engine.kernel
    ranks = engine.build_ranks(graph, num_ranks)
    assert bool(kernel.hubs.size) == delegate_hubs
    for r, rank in enumerate(ranks):
        owned, state = np.arange(rank.lo, rank.hi), rank.state
        table = state["halo"]["halo_ids"].astype(np.int64)
        # The rank holds one copy of its edges, the coded light-first one.
        assert rank.ctx.local_graph is None
        want = graph.extract_rows(owned, keep=~np.isin(owned, kernel.hubs))
        indptr = [want.indptr]
        adj, weight = _light_first(want, kernel.delta)
        targets = [want.adj]
        if delegate_hubs:
            slices = DelegateTable.build(graph, kernel.hubs, r, num_ranks)
            indptr.append(want.num_edges + slices.indptr[1:])
            slice_rows = CSRGraph(slices.indptr, slices.adj, slices.weight, kernel.hubs.size)
            slice_adj, slice_weight = _light_first(slice_rows, kernel.delta)
            adj, weight = np.concatenate((adj, slice_adj)), np.concatenate((weight, slice_weight))
            targets.append(slices.adj)
        np.testing.assert_array_equal(state["indptr"], np.concatenate(indptr))
        np.testing.assert_array_equal(state["weight"], weight)
        np.testing.assert_array_equal(table[state["adj"]], adj)
        # The owned range is one block of codes; the rest is exactly the
        # sorted set of remote targets, none owned here.
        first = state["owned_code"]
        np.testing.assert_array_equal(table[first : first + owned.size], owned)
        halo = np.delete(table, np.arange(first, first + owned.size))
        np.testing.assert_array_equal(halo, np.setdiff1d(np.concatenate(targets), owned))
        assert not np.any(engine.partition.owner_of(halo) == r)
        if num_ranks == 1:
            assert halo.size == 0


def _calls(cls, method: str, module) -> set[str]:
    """Names of every function or method called in ``cls.method``."""
    tree = ast.parse(inspect.getsource(module))
    body = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls).body
    fn = next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == method)
    return {
        node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
    }


@pytest.mark.parametrize(
    "cls, method, module",
    [
        ("SSSPBatch", "_emit", sssp_batch),
        ("SSSPBatch", "_fold", sssp_batch),
        ("GhostMinCache", "lower", ghost_cache),
        ("GhostMinCache", "take_dirty", ghost_cache),
    ],
)
def test_routing_asks_no_owner_and_sorts_nothing(cls, method, module):
    forbidden = {"owners", "contains", "to_local", "searchsorted", "argsort"}
    assert not _calls(cls, method, module) & forbidden
