"""networkx as a third route for the bitmask kernels that the sweep,
``enumerate_class`` and the brute-force connectivity now share."""

import json
import random
from collections import Counter, deque
from itertools import combinations
from pathlib import Path

import pytest

from conftest import (
    DEFAULT_SEED,
    minimum_vertex_cuts,
    random_bipartite,
    random_connected_bipartite,
    random_graph,
)
from zex import (
    FamilyParams,
    Graph,
    SearchSpec,
    build_family,
    brute_force_edge_connectivity,
    brute_force_vertex_connectivity,
    connected_components,
    decode_graph6,
    edge_connectivity,
    enumerate_class,
    is_connected,
    predicted_extremal,
    vertex_connectivity,
    vertex_connectivity_value,
)
from zex.connectivity import (
    _augment,
    _edge_flow,
    _lex_min_vertex_cut,
    _split,
    _vertex_flow,
)
from zex.graphs import _vertex_cuts

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
        assert len(connected_components(g, excluded=frozenset(vcut.members))) >= 2, g
        lam, ecut = edge_connectivity(g)
        assert lam == ecut.size == len(ecut.members) == nx.edge_connectivity(h), g
        assert not is_connected(g.with_edges_changed(removed=ecut.members)), g


def test_witnesses_match_the_committed_reference(monkeypatch):
    # the benchmark's witness reference was cross-checked with networkx when it was made
    from zex import connectivity

    if not WITNESS_REFERENCE.exists():
        pytest.skip("perfbench/reference/witness.json is not in this checkout")
    with WITNESS_REFERENCE.open() as fh:
        entries = list(json.load(fh)["graphs"].values())
    assert len(entries) == 362
    calls = Counter()
    route = None

    def counting(name, fn):
        def counted(*args):
            calls[route, name] += 1
            return fn(*args)
        return counted

    for name in ("_augment", "_vertex_flow", "_edge_flow"):
        monkeypatch.setattr(connectivity, name, counting(name, getattr(connectivity, name)))
    for e in entries:
        g = decode_graph6(e["g6"].encode())
        route = "vertex"
        kappa, vcut = vertex_connectivity(g)
        route = "edge"
        lam, ecut = edge_connectivity(g)
        assert (kappa, list(vcut.members)) == (e["kappa"], e["vertex_cut"]), e["g6"]
        assert (lam, [list(x) for x in ecut.members]) == (e["lambda"], e["edge_cut"]), e["g6"]
    # the flows of the value scans (Even's pairs for kappa, sinks t != 0 for lambda) and
    # the augmenting searches left after the short-path seeds, repair top-ups and the
    # witness greedies' degree and common-neighbor certificates, pinned so that a scan,
    # flow or certificate change that runs more (or fewer) shows here
    assert calls == {
        ("vertex", "_vertex_flow"): 8138, ("vertex", "_augment"): 524,
        ("edge", "_edge_flow"): 12235, ("edge", "_augment"): 212,
    }


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
        expected = next(_vertex_cuts(list(g.neighbor_masks), kappa), ())
        assert _lex_min_vertex_cut(g, kappa) == expected, g


def _kernel_cases(rng):
    """(arcs, s, t): random digraphs with antiparallel arcs, vertex-split digraphs, and
    relabeled copies of a graph whose maximum flow needs a cancelled unit."""
    for _ in range(80):
        n = rng.randint(2, 12)
        p, both = rng.choice([0.2, 0.4, 0.7]), rng.random()
        arcs = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    # an undirected edge with probability ``both``, else one direction
                    if rng.random() < both:
                        arcs[u] |= 1 << v
                        arcs[v] |= 1 << u
                    elif rng.random() < 0.5:
                        arcs[u] |= 1 << v
                    else:
                        arcs[v] |= 1 << u
        s, t = rng.sample(range(n), 2)
        yield arcs, s, t
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 12), rng.choice([0.3, 0.5, 0.8]))
        alive = rng.getrandbits(g.n) | 0b11
        s, t = rng.sample(range(g.n), 2)
        split = _split(g.neighbor_masks)
        for v in range(g.n):
            if not alive >> v & 1:
                split[2 * v] = 0  # a dead vertex has no in -> out arc, as in the witness greedy
        yield split, 2 * s + 1, 2 * t
    # 0-1-2-3 is the only shortest 0-3 path, but the flow of 2 is 0-4-5-2-3 and
    # 0-1-6-7-3, so the second search must cancel the unit on 1 -> 2
    trap = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 2), (1, 6), (6, 7), (7, 3)]
    for _ in range(20):
        n = rng.randint(8, 11)
        perm = rng.sample(range(n), n)
        arcs = [0] * n
        for u, v in trap:
            arcs[perm[u]] |= 1 << perm[v]
        yield arcs, perm[0], perm[3]
        g = Graph(n, [(perm[u], perm[v]) for u, v in trap])
        yield list(g.neighbor_masks), perm[0], perm[3]
        yield _split(g.neighbor_masks), 2 * perm[0] + 1, 2 * perm[3]


def _residual_distance(arcs, fwd, s, t):
    """Breadth-first s-t distance in the residual digraph, on node lists; None if cut."""
    n = len(arcs)
    dist = {s: 0}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in range(n):
            forward = arcs[u] >> v & 1 and not fwd[u] >> v & 1
            if (forward or fwd[v] >> u & 1) and v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist.get(t)


def test_unit_flow_kernel_matches_networkx_maximum_flow():
    rng = random.Random(DEFAULT_SEED)
    cancelled = 0
    for arcs, s, t in _kernel_cases(rng):
        n = len(arcs)
        h = nx.DiGraph()
        h.add_nodes_from(range(n))
        h.add_edges_from(((u, v) for u in range(n) for v in range(n) if arcs[u] >> v & 1), capacity=1)
        expected = nx.maximum_flow_value(h, s, t)
        fwd, back = [0] * n, [0] * n
        flow = 0
        while True:
            dist = _residual_distance(arcs, fwd, s, t)
            before = list(fwd), list(back)
            if not _augment(arcs, fwd, back, s, t):
                break
            flow += 1
            assert flow <= expected, (arcs, s, t)
            # one shortest path: each of its arcs toggles one bit of fwd
            assert sum((a ^ b).bit_count() for a, b in zip(before[0], fwd)) == dist
            cancelled += sum((a & ~b).bit_count() for a, b in zip(before[0], fwd))
            for u in range(n):
                assert fwd[u] & ~arcs[u] == 0
                assert fwd[u] & back[u] == 0  # antiparallel arcs never both carry flow
                assert back[u] == sum(1 << w for w in range(n) if fwd[w] >> u & 1)
                excess = back[u].bit_count() - fwd[u].bit_count()
                assert excess == (flow if u == t else -flow if u == s else 0)
        assert flow == expected and dist is None
        assert (fwd, back) == before
    assert cancelled >= 60


@pytest.mark.parametrize("kind", ["bipartite", "general"])
def test_seeded_local_flows_match_networkx(kind):
    # the short-path seed is the one new way for a flow to go wrong: its paths must be
    # disjoint and live.  With triangles, common neighbors and length-3 paths compete
    # for the same vertices.
    from networkx.algorithms import connectivity as nxc

    rng = random.Random(DEFAULT_SEED)
    make = random_bipartite if kind == "bipartite" else random_graph
    for _ in range(40):
        n = rng.randint(2, 14)
        g = make(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        masks, h = list(g.neighbor_masks), to_nx(g)
        split = _split(masks)
        node_aux = nxc.build_auxiliary_node_connectivity(h)
        edge_aux = nxc.build_auxiliary_edge_connectivity(h)
        for s, t in combinations(range(n), 2):
            cap = rng.randint(1, n)
            lam = nxc.local_edge_connectivity(h, s, t, auxiliary=edge_aux)
            assert _edge_flow(masks, s, t, n) == _edge_flow(masks, t, s, n) == lam, (g, s, t)
            assert _edge_flow(masks, s, t, cap) == min(cap, lam), (g, s, t, cap)
            if not g.has_edge(s, t):
                kappa = nxc.local_node_connectivity(h, s, t, auxiliary=node_aux)
                both = _vertex_flow(split, s, t, n), _vertex_flow(split, t, s, n)
                assert both == (kappa, kappa), (g, s, t)
                assert _vertex_flow(split, s, t, cap) == min(cap, kappa), (g, s, t, cap)
        # dead vertices, as in the witness greedy: the in -> out arc is cleared, the rest kept
        dead = set(rng.sample(range(n), rng.randint(0, n - 2)))
        for v in dead:
            split[2 * v] = 0
        h.remove_nodes_from(dead)
        node_aux = nxc.build_auxiliary_node_connectivity(h)
        for s, t in combinations(sorted(h), 2):
            if not g.has_edge(s, t):
                kappa = nxc.local_node_connectivity(h, s, t, auxiliary=node_aux)
                both = _vertex_flow(split, s, t, n), _vertex_flow(split, t, s, n)
                assert both == (kappa, kappa), (g, dead, s, t)
