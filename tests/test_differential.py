"""networkx as a third route for the bitmask kernels that the sweep,
``enumerate_class`` and the brute-force connectivity now share."""

import json
import random
from pathlib import Path

import pytest

from conftest import DEFAULT_SEED, random_connected_bipartite, random_graph
from zex import (
    FamilyParams,
    SearchSpec,
    build_family,
    brute_force_edge_connectivity,
    brute_force_vertex_connectivity,
    decode_graph6,
    edge_connectivity,
    enumerate_class,
    is_connected,
    minimum_vertex_cuts,
    predicted_extremal,
    vertex_connectivity,
    vertex_connectivity_value,
)
from zex.connectivity import _lex_min_vertex_cut
from zex.search import _vertex_cuts

nx = pytest.importorskip("networkx")

WITNESS_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "witness.json"


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_minimum_vertex_cuts_match_all_node_cuts():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(150):
        # connected bipartite graphs of order >= 3 are never complete
        g = random_connected_bipartite(rng, rng.randint(3, 9), rng.choice([0.3, 0.5, 0.8]))
        expected = {frozenset(cut) for cut in nx.all_node_cuts(to_nx(g))}
        got = minimum_vertex_cuts(g)
        assert len(got) == len(set(got)), g
        assert set(got) == expected, g


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_order5_class_members_have_the_class_connectivity(mode):
    measure = nx.node_connectivity if mode == "vertex" else nx.edge_connectivity
    for c in (1, 2, 3):
        members = list(enumerate_class(SearchSpec(5, mode, c, "M1")))
        assert bool(members) == (c <= 2), c
        for g in members:
            assert measure(to_nx(g)) == c, (g, c)


@pytest.mark.parametrize(
    "brute_force, measure",
    [
        (brute_force_vertex_connectivity, nx.node_connectivity),
        (brute_force_edge_connectivity, nx.edge_connectivity),
    ],
    ids=["vertex", "edge"],
)
def test_brute_force_connectivity_matches_networkx(brute_force, measure):
    rng = random.Random(DEFAULT_SEED)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.3, 0.6, 0.9]))
        assert brute_force(g) == measure(to_nx(g)), g


@pytest.mark.parametrize("kind", ["bipartite", "general"])
def test_flow_connectivity_matches_networkx_past_brute_force_reach(kind):
    # orders 9-22, where brute force no longer cross-checks the flow route
    rng = random.Random(DEFAULT_SEED)
    for _ in range(40):
        n, p = rng.randint(9, 22), rng.choice([0.3, 0.5, 0.8])
        g = random_connected_bipartite(rng, n, p) if kind == "bipartite" else random_graph(rng, n, p)
        h = to_nx(g)
        kappa, vcut = vertex_connectivity(g)
        assert kappa == vcut.size == len(vcut.members) == nx.node_connectivity(h), g
        assert not is_connected(g.induced(set(range(n)) - set(vcut.members))), g
        lam, ecut = edge_connectivity(g)
        assert lam == ecut.size == len(ecut.members) == nx.edge_connectivity(h), g
        assert not is_connected(g.with_edges_changed(removed=ecut.members)), g


def test_witnesses_match_the_committed_reference():
    # the benchmark's witness reference was cross-checked with networkx when it was made
    if not WITNESS_REFERENCE.exists():
        pytest.skip("perfbench/reference/witness.json is not in this checkout")
    with WITNESS_REFERENCE.open() as fh:
        entries = list(json.load(fh)["graphs"].values())
    assert len(entries) == 362
    for e in entries:
        g = decode_graph6(e["g6"].encode())
        kappa, vcut = vertex_connectivity(g)
        lam, ecut = edge_connectivity(g)
        assert (kappa, list(vcut.members)) == (e["kappa"], e["vertex_cut"]), e["g6"]
        assert (lam, [list(x) for x in ecut.members]) == (e["lambda"], e["edge_cut"]), e["g6"]


def _relabeled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabeled(perm)


def test_lex_min_vertex_cut_matches_the_first_brute_force_cut():
    # _vertex_cuts yields the disconnecting k-subsets in lexicographic order, with no flow
    rng = random.Random(DEFAULT_SEED)
    cases = []
    for _ in range(60):
        n, p = rng.randint(7, 12), rng.choice([0.3, 0.5, 0.7])
        cases.append(random_graph(rng, n, p))
        cases.append(random_connected_bipartite(rng, n, p))
    for n in range(8, 13):
        cases += [_relabeled(rng, predicted_extremal(n, c)) for c in range(1, n // 2 + 1)]
        cases += [
            _relabeled(rng, build_family(FamilyParams(n, k, r)))
            for k in range(1, n - 1)
            for r in range(k, n - 1, 2)
        ]
    for g in cases:
        kappa = vertex_connectivity_value(g)
        expected = next(_vertex_cuts(list(g.neighbor_masks), g.n, kappa), ())
        assert _lex_min_vertex_cut(g, kappa) == expected, g
