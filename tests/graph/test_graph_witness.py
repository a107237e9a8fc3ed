"""Bit-exact witnesses of the benchmark's input graph.

The sha256 constants below were computed with the array-at-a-time generator
(one float per draw, compared against the initiator's cumulative
probabilities) and the ``np.lexsort`` CSR build, before either was rewritten
to run in cache-sized blocks and to sort one packed key.  Any change to
kernel 0 (generation), kernel 1 (construction) or root sampling that moves
one output bit fails here, naming the array.

Each digest covers the array's dtype string and its bytes, so a dtype change
is caught too.
"""

import hashlib

import numpy as np
import pytest

from repro.graph.csr import build_csr
from repro.graph.kronecker import KroneckerSpec, generate_kronecker, kronecker_edge_slice
from repro.graph500.roots import sample_roots
from repro.utils.prng import BLOCK_WORDS

# (scale, seed) -> array name -> sha256 of dtype string + bytes.
WITNESSES = {
    (8, 2022): {
        "src": "842fd5e1851832ac0905baf744fbbe567cc51580aab72c3ea24fb1c3f869199d",
        "dst": "58f6579e1cdc4ad821e1014bc1233d5c275f4b6bdca60b1b52430f2918e0923f",
        "weight": "5b19adfa08745f476ac68dd1e2063a09293e1d2380e4910d9a3b248fe86d161c",
        "indptr": "2f771d9fd68b45f2b3cd4f85c52bb23f22733294a49baef7ef99f0a412dc91fe",
        "adj": "30024dc820d88abe26b4cd3d10c080fed8e0506e94a1417cce8d206bd50489eb",
        "csr_weight": "a851aed979694c00cd65150768b831659f052b843dbff0698a2408dcac155cd6",
        "roots": "37c3313b1824382e2f97d7f1e80eee827fb66765fa83375c2f8a869c3533a154",
    },
    (12, 7): {
        "src": "071ad1e0ae622340cca76e4115f7a3f2f3e09cae9fb0a96ec71cdbd9ea935cb3",
        "dst": "f7b7c0daed286912239f745265b16f2d48b9519033ff2a370072d15755d7ab82",
        "weight": "ba139b2f183a2a4f975c217253229e72bb8bab859d0585d74f9d102e28cb49b4",
        "indptr": "4ff915fa4aeaeea68be9fe0180bdf0cf00b85f348d6c5504094a8bd994c37eac",
        "adj": "b4a74c9c5a06d1095b0901f9e66d56a50542e0b2477b776059d8704103754cce",
        "csr_weight": "41e7b663482285883716126d5ced086100fd6321b1b004921ef332182edf626a",
        "roots": "c803fa378c15cdfcfe56c245c5ced4ce366aa68a483a6113fa0fa5d5ca3e2dfc",
    },
    (14, 2022): {
        "src": "82cc214d3a240217282a9dc73f5ac514252e4e6a578235a7dfa7189d579c566c",
        "dst": "052743db5ef9b47b7bfeeed19f388c8588b124001d4297112eddcdb73f106e6a",
        "weight": "08a2126c9a3fc409de257b7b1102ed0a365a28aa0feb26c232836eda2c17b314",
        "indptr": "7247a4e233e672058cb57e15be2f2391bf3f6d001c40f1e2e54ab66aab80e4ac",
        "adj": "c62c26f039334bef19e22ab22ff71a4c010b2e87dff01b050053dd4809cb9a35",
        "csr_weight": "7018115b2f37d1dd10121474077d0fa51ad8a5a61e20e9b0c404d489d2a318a4",
        "roots": "03c28eabab0a8b44c9682e13bbaa15aac0696348677390ba39c57668a7698f9e",
    },
}


def digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(a.dtype.str.encode() + a.tobytes()).hexdigest()


@pytest.mark.parametrize("scale,seed", sorted(WITNESSES))
def test_generate_build_and_roots_match_witness(scale, seed):
    edges = generate_kronecker(scale, seed=seed)
    graph = build_csr(edges)
    got = {
        "src": edges.src, "dst": edges.dst, "weight": edges.weight,
        "indptr": graph.indptr, "adj": graph.adj, "csr_weight": graph.weight,
        "roots": sample_roots(graph, 64, seed),
    }
    assert {name: digest(a) for name, a in got.items()} == WITNESSES[scale, seed]


@pytest.mark.parametrize("cut", [BLOCK_WORDS - 1, BLOCK_WORDS, BLOCK_WORDS + 1])
def test_slices_cut_around_a_block_concatenate_to_the_witness(cut):
    """Slices that start and stop off the generator's block grid still
    reproduce the full edge list (scale 14 spans several blocks)."""
    spec = KroneckerSpec(scale=14, seed=2022)
    assert spec.num_edges > 4 * BLOCK_WORDS
    pieces = [
        kronecker_edge_slice(spec, lo, min(lo + cut, spec.num_edges))
        for lo in range(0, spec.num_edges, cut)
    ]
    joined = {
        name: np.concatenate([getattr(p, name) for p in pieces])
        for name in ("src", "dst", "weight")
    }
    witness = WITNESSES[14, 2022]
    assert {name: digest(a) for name, a in joined.items()} == {
        name: witness[name] for name in joined
    }
