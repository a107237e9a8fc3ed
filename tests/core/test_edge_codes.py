"""Pre-routed rank edges: what a 1-D rank relaxes is numbered at build.

Every edge target a rank can relax — its local rows and its hub slices —
is stored as a *code*: an owned vertex by its owned-local index, any other
by ``hi - lo + s`` with ``halo[s]`` its global id.  The decode test
checks the numbering against the graph on every run partition, with and
without delegation; the AST gate checks that the routing hot path never
asks who owns a vertex and never sorts or searches a batch.
"""

import ast
import inspect

import numpy as np
import pytest

from repro.api import _sssp_dist1d
from repro.core import dist_sssp, ghost_cache
from repro.core.config import SSSPConfig
from repro.core.delegation import DelegateTable
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker


@pytest.fixture(scope="module")
def graph():
    return build_csr(generate_kronecker(10, seed=3))


@pytest.mark.parametrize("num_ranks", [1, 7, 16])
@pytest.mark.parametrize("delegate_hubs", [True, False], ids=["delegation", "no-delegation"])
@pytest.mark.parametrize("partition", ["block", "edge_balanced"])
def test_every_code_decodes_to_its_global_target(graph, partition, delegate_hubs, num_ranks):
    config = SSSPConfig(partition=partition, delegate_hubs=delegate_hubs)
    engine = _sssp_dist1d(graph, int(np.argmax(graph.out_degree)), num_ranks, config)
    ranks = engine.build_ranks(graph, num_ranks)
    for r, rank in enumerate(ranks):
        owned, halo = np.arange(rank.lo, rank.hi), rank.halo
        # Codes index the concatenation [owned | halo].
        table = np.concatenate((owned, halo.astype(np.int64)))
        keep = None if rank.is_hub_local is None else ~rank.is_hub_local
        want = graph.extract_rows(owned, keep=keep)
        got = rank.local_graph
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.weight, want.weight)
        np.testing.assert_array_equal(table[got.adj], want.adj)
        targets = [want.adj]
        if delegate_hubs:
            slices = DelegateTable.build(graph, engine.hubs, r, num_ranks)
            np.testing.assert_array_equal(rank.delegates.indptr, slices.indptr)
            np.testing.assert_array_equal(table[rank.delegates.adj], slices.adj)
            targets.append(slices.adj)
        else:
            assert rank.delegates is None
        # The halo is exactly the sorted set of remote targets, none owned here.
        remote = np.setdiff1d(np.concatenate(targets), owned)
        np.testing.assert_array_equal(halo, remote)
        assert not np.any(engine.partition.owner_of(halo.astype(np.int64)) == r)
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
        ("_Rank", "_route", dist_sssp),
        ("_Rank", "_apply", dist_sssp),
        ("GhostMinCache", "lower", ghost_cache),
        ("GhostMinCache", "take_dirty", ghost_cache),
    ],
)
def test_routing_asks_no_owner_and_sorts_nothing(cls, method, module):
    forbidden = {"owners", "contains", "to_local", "searchsorted", "argsort"}
    assert not _calls(cls, method, module) & forbidden
