"""Connectivity: flow-based values, witnesses, and the degree-chain facts."""

import random
from collections import Counter
from itertools import chain, combinations

import pytest
from hypothesis import given, settings

from conftest import DEFAULT_SEED, graphs, random_graph
from zex import (
    FamilyParams,
    Graph,
    build_family,
    complete_bipartite,
    connected_components,
    edge_connectivity,
    edge_connectivity_value,
    is_connected,
    is_k_connected,
    min_degree,
    predicted_extremal,
    vertex_connectivity,
    vertex_connectivity_value,
)
from zex.search import (
    brute_force_edge_connectivity,
    brute_force_vertex_connectivity,
)

P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])


def complete_graph(n):
    return Graph(n, list(combinations(range(n), 2)))


def labeled_graphs(orders):
    for n in orders:
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


class TestVertexConnectivity:
    def test_k34(self):
        value, witness = vertex_connectivity(complete_bipartite(3, 4))
        assert value == 3
        # brute-force confirmation: no subset of size <= 2 disconnects
        assert brute_force_vertex_connectivity(complete_bipartite(3, 4)) == 3
        assert witness.members == (0, 1, 2)

    def test_disconnected(self):
        value, witness = vertex_connectivity(Graph(4, [(0, 1), (2, 3)]))
        assert value == 0
        assert witness.members == ()
        assert not witness.complete

    def test_family_7_1_3(self):
        value, _ = vertex_connectivity(build_family(FamilyParams(7, 1, 3)))
        assert value == 1

    def test_k1_convention(self):
        value, witness = vertex_connectivity(Graph(1))
        assert value == 0
        assert witness.complete and witness.members == () and witness.size == 0

    def test_complete_graphs(self):
        for n in range(2, 6):
            value, witness = vertex_connectivity(complete_graph(n))
            assert value == n - 1
            assert witness.complete and witness.members == ()


class TestEdgeConnectivity:
    def test_k22(self):
        value, witness = edge_connectivity(complete_bipartite(2, 2))
        assert value == 2
        assert brute_force_edge_connectivity(complete_bipartite(2, 2)) == 2
        assert witness.members == ((0, 2), (0, 3))

    def test_path_bridge(self):
        value, witness = edge_connectivity(P4)
        assert value == 1
        assert witness.members == ((0, 1),)

    def test_balanced_complete_bipartite_n6(self):
        g = complete_bipartite(3, 3)
        assert edge_connectivity_value(g) == 3
        assert brute_force_edge_connectivity(g) == 3

    def test_single_vertex(self):
        value, witness = edge_connectivity(Graph(1))
        assert value == 0 and witness.complete


@pytest.mark.parametrize(
    "route",
    [vertex_connectivity_value, edge_connectivity_value,
     brute_force_vertex_connectivity, brute_force_edge_connectivity],
)
def test_every_route_rejects_the_empty_graph(route):
    with pytest.raises(ValueError, match="at least one vertex"):
        route(Graph(0))


class TestMinDegreeAtMostOne:
    # kappa <= lambda <= delta, and each is >= 1 iff the graph is connected
    @pytest.mark.parametrize("g,value", [
        (Graph(1), 0),
        (Graph(2, [(0, 1)]), 1),
        (Graph(5, [(0, 1), (1, 2), (3, 4)]), 0),
        (Graph(3, [(0, 1)]), 0),
    ])
    def test_values(self, g, value):
        assert vertex_connectivity_value(g) == edge_connectivity_value(g) == value

    def test_trees_run_no_flow(self, monkeypatch):
        from zex import connectivity

        rng = random.Random(DEFAULT_SEED)
        tree = Graph(300, [(v, rng.randrange(v)) for v in range(1, 300)])
        path = Graph(300, [(v, v + 1) for v in range(299)])
        flows = []
        for name in ("_vertex_flow", "_edge_flow"):

            def recording(arcs, s, t, cutoff, flow=getattr(connectivity, name)):
                flows.append((s, t))
                return flow(arcs, s, t, cutoff)

            monkeypatch.setattr(connectivity, name, recording)
        for g in (tree, path):
            assert vertex_connectivity_value(g) == edge_connectivity_value(g) == 1
            assert is_k_connected(g, 1)
        assert flows == []


class TestIsKConnected:
    def test_k22(self):
        assert is_k_connected(complete_bipartite(2, 2), 2)
        assert not is_k_connected(complete_bipartite(2, 2), 3)

    def test_order_must_exceed_k(self):
        assert not is_k_connected(Graph(1), 1)

    def test_k_zero(self):
        assert is_k_connected(Graph(2), 0)
        with pytest.raises(ValueError):
            is_k_connected(Graph(2), -1)

    def test_flows_are_capped_at_k(self, monkeypatch):
        from zex import connectivity

        flow = connectivity._vertex_flow
        cutoffs = []

        def recording(split, s, t, cutoff):
            cutoffs.append(cutoff)
            return flow(split, s, t, cutoff)

        monkeypatch.setattr(connectivity, "_vertex_flow", recording)
        assert is_k_connected(complete_bipartite(10, 10), 2)
        assert cutoffs and max(cutoffs) <= 2


class TestDegreeChainFacts:
    @settings(max_examples=300, derandomize=True)
    @given(graphs(min_n=1, max_n=8))
    def test_kappa_chain(self, g):
        kappa = vertex_connectivity_value(g)
        kappa_p = edge_connectivity_value(g)
        assert kappa <= kappa_p <= min_degree(g) <= g.n - 1

    def test_completeness_equivalence_exhaustive(self):
        # kappa = n-1, kappa' = n-1 and completeness coincide (all graphs n <= 5)
        for g in labeled_graphs(range(2, 6)):
            complete = g.num_edges == g.n * (g.n - 1) // 2
            assert (vertex_connectivity_value(g) == g.n - 1) == complete
            assert (edge_connectivity_value(g) == g.n - 1) == complete


class TestWitnesses:
    def test_vertex_witness_disconnects(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(150):
            g = random_graph(rng, rng.randint(2, 8))
            value, witness = vertex_connectivity(g)
            if witness.members:
                assert witness.size == value == len(witness.members)
                assert len(connected_components(g, excluded=frozenset(witness.members))) >= 2

    def test_edge_witness_disconnects(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(150):
            g = random_graph(rng, rng.randint(2, 8))
            value, witness = edge_connectivity(g)
            if witness.members:
                assert witness.size == value == len(witness.members)
                assert not is_connected(g.with_edges_changed(removed=witness.members))

    def test_vertex_witness_is_lex_smallest(self):
        rng = random.Random(DEFAULT_SEED + 1)
        randoms = (random_graph(rng, rng.randint(3, 7)) for _ in range(60))
        for g in chain(labeled_graphs(range(2, 6)), randoms):
            value, witness = vertex_connectivity(g)
            if not witness.members:
                continue
            cuts = []
            for combo in combinations(range(g.n), value):
                if len(connected_components(g, excluded=frozenset(combo))) >= 2:
                    cuts.append(combo)
            assert witness.members == min(cuts)

    def test_edge_witness_is_lex_smallest(self):
        rng = random.Random(DEFAULT_SEED + 2)
        randoms = (random_graph(rng, rng.randint(3, 7)) for _ in range(60))
        for g in chain(labeled_graphs(range(2, 6)), randoms):
            value, witness = edge_connectivity(g)
            if not witness.members:
                continue
            cuts = []
            for combo in combinations(g.edges(), value):
                if not is_connected(g.with_edges_changed(removed=combo)):
                    cuts.append(combo)
            assert witness.members == min(cuts)

    def test_edge_greedy_runs_one_flow_per_candidate(self, monkeypatch):
        from zex import connectivity, predicted_extremal

        perm = list(range(12))
        random.Random(DEFAULT_SEED).shuffle(perm)
        g = predicted_extremal(12, 3, "edge").relabeled(perm)
        value = edge_connectivity_value(g)
        flow = connectivity._edge_flow
        pairs = []

        def recording(masks, s, t, cutoff):
            pairs.append((s, t))
            return flow(masks, s, t, cutoff)

        monkeypatch.setattr(connectivity, "_edge_flow", recording)
        cut = connectivity._lex_min_edge_cut(g, value)
        assert value == len(cut) == 3
        assert pairs and all(g.has_edge(s, t) for s, t in pairs)
        assert len(pairs) <= g.num_edges

    def test_vertex_greedy_runs_one_search_per_candidate_and_pair(self, monkeypatch):
        from zex import connectivity, predicted_extremal
        from zex.graphs import _bits

        perm = list(range(20))
        random.Random(DEFAULT_SEED).shuffle(perm)
        g = predicted_extremal(20, 5).relabeled(perm)
        kappa = vertex_connectivity_value(g)
        full = (1 << g.n) - 1
        even_pairs = sum(
            1 for s in range(kappa + 1) for _ in _bits(full & ~g.neighbor_masks[s] & -(2 << s))
        )
        augment = connectivity._augment
        searches = []

        def recording(arcs, fwd, back, s, t):
            # the cleared in -> out arcs are F plus the candidate, so they name the step
            searches.append(((s, t), tuple(arcs)))
            return augment(arcs, fwd, back, s, t)

        monkeypatch.setattr(connectivity, "_augment", recording)
        cut = connectivity._lex_min_vertex_cut(g, kappa)
        assert kappa == len(cut) == 5
        # at most kappa searches for a pair's first flow, then one per candidate
        assert searches and len(searches) <= even_pairs * kappa + g.n * even_pairs
        steps = {}
        for pair, step in searches:
            steps.setdefault(pair, Counter())[step] += 1
        for per_step in steps.values():
            first, *repairs = per_step.values()
            assert first <= kappa and all(count == 1 for count in repairs)

    def test_cut_vertex_witness_is_the_lex_min_minimum_cut(self):
        # kappa = 1 takes the cut-vertex route; K2 has no cut vertex, so its witness is empty.
        # minimum_vertex_cuts runs no flow (test_search.py pins that), so the reference
        # is a route independent of the flows
        from zex import connectivity, minimum_vertex_cuts

        checked = 0
        for g in labeled_graphs(range(2, 7)):
            if vertex_connectivity_value(g) != 1:
                continue
            expected = min((tuple(sorted(cut)) for cut in minimum_vertex_cuts(g)), default=())
            assert connectivity._lex_min_vertex_cut(g, 1) == expected, g
            checked += 1
        assert checked == 15858

    def test_cut_vertex_witness_on_a_long_path(self):
        g = Graph(2000, [(v, v + 1) for v in range(1999)])
        value, witness = vertex_connectivity(g)
        assert (value, witness.members) == (1, (1,))

    @pytest.mark.parametrize(
        "edges, expected",
        [
            ([(v, v + 1) for v in range(199)], (1, (1,))),
            # kappa = 2, so the greedy keeps pair flows
            ([(v, (v + 1) % 200) for v in range(200)], (2, (0, 2))),
        ],
        ids=["path", "cycle"],
    )
    def test_vertex_greedy_memory_on_a_long_path(self, edges, expected):
        import tracemalloc

        from zex import connectivity

        g = Graph(200, edges)
        value, witness = vertex_connectivity(g)
        assert (value, witness.members) == expected
        tracemalloc.start()
        try:
            connectivity._lex_min_vertex_cut(g, value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # kept flows are vertex paths, not per-pair flow bitmask lists
        assert peak < 2_000_000


class TestCutWitness:
    def test_value_semantics(self):
        from zex import CutWitness

        witness = CutWitness("vertex-cut", (1,), 1)
        assert repr(witness) == "CutWitness(kind='vertex-cut', members=(1,), size=1, complete=False)"
        assert witness.complete is False
        assert vertex_connectivity(P4) == (1, witness)
        assert witness != CutWitness("vertex-cut", (1,), 1, complete=True)
        assert {witness: "P4"}[CutWitness("vertex-cut", (1,), 1, False)] == "P4"
        # a NamedTuple: equal to the plain tuple of its fields
        assert witness == ("vertex-cut", (1,), 1, False)
        with pytest.raises(AttributeError):
            witness.size = 2


class TestShortPathSeed:
    # dense bipartite pairs are joined by enough disjoint paths of length 2 or 3 that
    # the seeded flows end without a search; the witnesses search at most once per cut member
    @pytest.mark.parametrize(
        "g",
        [
            complete_bipartite(10, 10),
            complete_bipartite(6, 9),
            predicted_extremal(30, 14),
            predicted_extremal(10, 2),
            predicted_extremal(20, 3),
            predicted_extremal(20, 9),
            predicted_extremal(40, 7),
            predicted_extremal(20, 5, "edge"),
        ],
        ids=[
            "K10,10",
            "K6,9",
            "predicted-30-14",
            "predicted-10-2",
            "predicted-20-3",
            "predicted-20-9",
            "predicted-40-7",
            "predicted-edge-20-5",
        ],
    )
    def test_dense_flows_end_without_a_search(self, g, monkeypatch):
        from zex import connectivity

        augment = connectivity._augment
        searches = []

        def recording(arcs, fwd, back, s, t):
            searches.append((s, t))
            return augment(arcs, fwd, back, s, t)

        monkeypatch.setattr(connectivity, "_augment", recording)
        assert vertex_connectivity_value(g) and edge_connectivity_value(g)
        assert searches == []
        for connectivity_with_witness in (vertex_connectivity, edge_connectivity):
            value, witness = connectivity_with_witness(g)
            assert len(witness.members) == value
            assert len(searches) <= value
            searches.clear()


    def test_repair_tops_up_kept_paths_with_short_paths(self, monkeypatch):
        # in K_{3,4}, vertices 0 and 1 share the neighbors 3-6; a kept path through 4
        # is topped up by common neighbors that avoid it, with no search
        from zex import connectivity

        def no_search(*args):
            raise AssertionError("the repair searched")

        monkeypatch.setattr(connectivity, "_augment", no_search)
        split = connectivity._split(complete_bipartite(3, 4).neighbor_masks)
        assert connectivity._augmented(split, 0, 1, [[4]], 3) == [[4], [3], [5]]
        assert connectivity._augmented(split, 0, 1, [], 3) == [[3], [4], [5]]


class TestEvenSourceBound:
    def test_sources_stop_at_kappa(self, monkeypatch):
        from zex import connectivity, predicted_extremal

        perm = list(range(20))
        random.Random(DEFAULT_SEED).shuffle(perm)
        g = predicted_extremal(20, 3).relabeled(perm)
        flow = connectivity._vertex_flow
        sources = []

        def recording(split, s, t, cutoff):
            sources.append(s)
            return flow(split, s, t, cutoff)

        monkeypatch.setattr(connectivity, "_vertex_flow", recording)
        kappa = vertex_connectivity_value(g)
        assert kappa == 3
        assert sources and max(sources) <= kappa


class TestFlowMatchesBruteForce:
    # the exhaustive n <= 6 sweep is acceptance criterion 6; sample larger orders here
    def test_random_graphs_n7_n8(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(120):
            g = random_graph(rng, rng.randint(7, 8), rng.choice([0.25, 0.5, 0.75]))
            assert vertex_connectivity_value(g) == brute_force_vertex_connectivity(g)
            assert edge_connectivity_value(g) == brute_force_edge_connectivity(g)

    @pytest.mark.slow
    def test_exhaustive_n7(self):
        # all 2^21 labeled graphs on 7 vertices; takes minutes
        pairs = list(combinations(range(7), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(7, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            assert vertex_connectivity_value(g) == brute_force_vertex_connectivity(g)
            assert edge_connectivity_value(g) == brute_force_edge_connectivity(g)
