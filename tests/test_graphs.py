"""Graph core: index values, bipartiteness, degree bookkeeping, I/O formats."""

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEFAULT_SEED, graphs, random_graph
from zex import (
    FamilyParams,
    Graph,
    GraphFormatError,
    bipartition_of,
    build_family,
    complete_bipartite,
    connected_components,
    decode_graph6,
    encode_graph6,
    format_edge_list,
    index_value,
    m1,
    m2,
    min_degree,
    parse_edge_list,
    read_graph_file,
)

P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])


class TestConstruction:
    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_immutability_surface(self):
        g = Graph(2, [(0, 1)])
        h = g.with_edges_changed(removed=[(0, 1)])
        assert g.num_edges == 1 and h.num_edges == 0

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Graph(-1)

    def test_never_equals_another_type(self):
        assert Graph(2) != (2, ())
        assert Graph.__eq__(Graph(2), "Graph(n=2, edges=[])") is NotImplemented

    def test_repr(self):
        assert repr(P4) == "Graph(n=4, edges=[(0, 1), (1, 2), (2, 3)])"
        assert repr(Graph(0)) == "Graph(n=0, edges=[])"


class TestRewriteContract:
    """The rewrites raise one fixed message per invalid input and agree with
    their definitions on edge lists."""

    @pytest.mark.parametrize("removed,shown", [
        ([(0, 2)], (0, 2)),
        ([(2, 0)], (0, 2)),
        ([(1, 1)], (1, 1)),
        ([(3, 9)], (3, 9)),
        ([(0, 1), (1, 0)], (0, 1)),
        # negative labels never wrap around to vertex 3, whose edge (2, 3) exists
        ([(-1, 2)], (-1, 2)),
        ([(2, -1)], (-1, 2)),
    ])
    def test_remove_absent_edge(self, removed, shown):
        with pytest.raises(ValueError) as exc:
            P4.with_edges_changed(removed=removed)
        assert str(exc.value) == f"cannot remove absent edge {shown}"

    @pytest.mark.parametrize("added,message", [
        ([(1, 0)], "cannot add existing edge (0, 1)"),
        ([(0, 2), (2, 0)], "cannot add existing edge (0, 2)"),
        ([(2, 2)], "loop at vertex 2"),
        ([(0, 4)], "edge (0, 4) out of range for n=4"),
        ([(4, 0)], "edge (0, 4) out of range for n=4"),
        ([(-1, 2)], "edge (-1, 2) out of range for n=4"),
        ([(2, -1)], "edge (-1, 2) out of range for n=4"),
    ])
    def test_add_invalid_edge(self, added, message):
        with pytest.raises(ValueError) as exc:
            P4.with_edges_changed(added=added)
        assert str(exc.value) == message

    @pytest.mark.parametrize("u,v,shown", [
        (-1, 2, (-1, 2)),  # would read masks[3], where edge (2, 3) exists
        (2, -1, (-1, 2)),
        (9, 0, (0, 9)),
        (0, 4, (0, 4)),
    ])
    def test_has_edge_rejects_out_of_range(self, u, v, shown):
        with pytest.raises(ValueError) as exc:
            P4.has_edge(u, v)
        assert str(exc.value) == f"edge {shown} out of range for n=4"

    def test_removal_comes_before_addition(self):
        assert P4.with_edges_changed(removed=[(0, 1)], added=[(1, 0)]) == P4

    @pytest.mark.parametrize("perm", [
        [0, 1, 2], [0, 1, 2, 3, 4], [0, 0, 1, 2], [1, 2, 3, 4], [-1, 0, 1, 2],
    ])
    def test_relabel_rejects_non_permutation(self, perm):
        with pytest.raises(ValueError) as exc:
            P4.relabeled(perm)
        assert str(exc.value) == "perm must be a permutation of 0..n-1"

    @pytest.mark.parametrize("keep,bad", [([0, 1, 7], 7), ([-1, 0, 1], -1)])
    def test_induced_rejects_out_of_range(self, keep, bad):
        # unchecked, 7 became an isolated vertex and -1 shifted the labels
        with pytest.raises(ValueError) as exc:
            Graph(3, [(0, 1), (1, 2)]).induced(keep)
        assert str(exc.value) == f"vertex {bad} out of range for n=3"

    @settings(max_examples=200, derandomize=True)
    @given(graphs(max_n=9), st.data())
    def test_edges_changed_matches_edge_sets(self, g, data):
        present = set(g.edges())
        absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in present]
        removed = data.draw(st.lists(st.sampled_from(sorted(present)), unique=True)) if present else []
        added = data.draw(st.lists(st.sampled_from(absent), unique=True)) if absent else []
        flip = data.draw(st.booleans())  # either endpoint order names the same edge
        h = g.with_edges_changed(
            removed=[(v, u) if flip else (u, v) for u, v in removed], added=added
        )
        assert h == Graph(g.n, sorted(present - set(removed) | set(added)))

    @settings(max_examples=200, derandomize=True)
    @given(graphs(max_n=9), st.data())
    def test_relabeled_matches_edge_list(self, g, data):
        perm = data.draw(st.permutations(range(g.n)))
        assert g.relabeled(perm) == Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])

    @settings(max_examples=200, derandomize=True)
    @given(graphs(max_n=9), st.data())
    def test_induced_matches_edge_list(self, g, data):
        keep = data.draw(st.sets(st.integers(0, g.n - 1)))
        index = {v: i for i, v in enumerate(sorted(keep))}
        edges = [(index[u], index[v]) for u, v in g.edges() if u in keep and v in keep]
        assert g.induced(keep) == Graph(len(keep), edges)


class TestConnectedComponents:
    def test_cut_vertex(self):
        assert connected_components(P4, frozenset({1})) == [[0], [2, 3]]

    def test_edgeless(self):
        assert connected_components(Graph(3)) == [[0], [1], [2]]

    def test_empty_graph(self):
        assert connected_components(Graph(0)) == []

    def test_labels_outside_the_graph_are_rejected(self):
        # once silently dropped, so a set with a stray label read as the set without it;
        # Graph.degree read -1 as the last vertex and raised IndexError at n
        for bad in (-1, 4, 7):
            for call in (lambda: connected_components(P4, frozenset({2, bad})), lambda: P4.degree(bad)):
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value) == f"vertex {bad} out of range for n=4"

    @settings(max_examples=200, derandomize=True)
    @given(graphs(max_n=9), st.data())
    def test_matches_networkx(self, g, data):
        excluded = frozenset(data.draw(st.sets(st.integers(0, g.n - 1))))
        G = nx.Graph()
        G.add_nodes_from(v for v in range(g.n) if v not in excluded)
        G.add_edges_from(e for e in g.edges() if not excluded & set(e))
        expected = sorted(sorted(c) for c in nx.connected_components(G))
        assert connected_components(g, excluded) == expected


class TestIndices:
    def test_m1_empty_graph(self):
        assert m1(Graph(5)) == 0

    def test_m1_k22(self):
        assert m1(complete_bipartite(2, 2)) == 16

    def test_m1_family_7_1_3(self):
        # frozen from the per-vertex degree-sum oracle
        assert m1(build_family(FamilyParams(7, 1, 3))) == 62

    def test_m2_star(self):
        assert m2(complete_bipartite(1, 3)) == 9

    def test_m2_k22(self):
        assert m2(complete_bipartite(2, 2)) == 16

    def test_m2_family_7_1_3(self):
        # frozen from the edge-wise product-sum oracle over the 10 edges
        assert m2(build_family(FamilyParams(7, 1, 3))) == 94

    def test_index_value_reads_by_name(self):
        g = complete_bipartite(2, 3)
        assert (index_value("M1", g), index_value("M2", g)) == (m1(g), m2(g)) == (30, 36)
        # any other name once read as M2
        for bad in ("m1", "M3", ""):
            with pytest.raises(ValueError) as exc:
                index_value(bad, g)
            assert str(exc.value) == f"index must be one of ('M1', 'M2'), got {bad!r}"

    def test_min_degree(self):
        assert min_degree(complete_bipartite(2, 2)) == 2
        assert min_degree(complete_bipartite(1, 3)) == 1
        assert min_degree(Graph(4)) == 0

    def test_min_degree_requires_vertex(self):
        with pytest.raises(ValueError):
            min_degree(Graph(0))


class TestIndexProperties:
    @settings(max_examples=200, derandomize=True)
    @given(graphs(max_n=9))
    def test_handshake(self, g):
        assert sum(g.degrees()) == 2 * g.num_edges

    @settings(max_examples=200, derandomize=True)
    @given(graphs(max_n=9))
    def test_m1_edge_fold_identity(self, g):
        deg = g.degrees()
        assert m1(g) == sum(deg[u] + deg[v] for u, v in g.edges())
        assert m1(g) == sum(d * d for d in deg)
        assert m2(g) == sum(deg[u] * deg[v] for u, v in g.edges())

    @settings(max_examples=200, derandomize=True)
    @given(graphs(min_n=2, max_n=9))
    def test_deletion_strictly_decreases_indices(self, g):
        for e in g.edges():
            smaller = g.with_edges_changed(removed=[e])
            assert m1(smaller) < m1(g)
            assert m2(smaller) < m2(g)

    def test_index_zero_iff_edgeless(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 8))
            assert (m1(g) == 0) == (g.num_edges == 0)
            assert (m2(g) == 0) == (g.num_edges == 0)


class TestBipartition:
    def test_path(self):
        b = bipartition_of(P4)
        assert b == (frozenset({0, 2}), frozenset({1, 3}))

    def test_triangle_has_none(self):
        assert bipartition_of(Graph(3, [(0, 1), (1, 2), (0, 2)])) is None

    def test_complete_bipartite_parts(self):
        b = bipartition_of(complete_bipartite(3, 4))
        assert {len(b.X), len(b.Y)} == {3, 4}

    def test_isolated_vertices_go_to_x(self):
        b = bipartition_of(Graph(3))
        assert b.X == frozenset({0, 1, 2}) and b.Y == frozenset()

    @settings(max_examples=300, derandomize=True)
    @given(graphs(max_n=9))
    def test_matches_two_colorability(self, g):
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges())
        b = bipartition_of(g)
        if nx.is_bipartite(G):
            assert b is not None
            for u, v in g.edges():
                assert (u in b.X) != (v in b.X)
            assert b.X | b.Y == frozenset(range(g.n))
            assert not (b.X & b.Y)
        else:
            assert b is None


class TestGraph6:
    def test_single_vertex(self):
        assert encode_graph6(Graph(1)) == b"@"

    def test_known_small_codes(self):
        assert decode_graph6(b"@") == Graph(1)
        assert decode_graph6(b"A_") == Graph(2, [(0, 1)])

    def test_matches_networkx_encoder(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 20))
            G = nx.Graph()
            G.add_nodes_from(range(g.n))
            G.add_edges_from(g.edges())
            expected = nx.to_graph6_bytes(G, header=False).strip()
            assert encode_graph6(g) == expected

    def test_roundtrip_random(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(500):
            g = random_graph(rng, rng.randint(1, 30))
            assert decode_graph6(encode_graph6(g)) == g

    def test_encode_of_decode_is_identity(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(200):
            s = encode_graph6(random_graph(rng, rng.randint(1, 25)))
            assert encode_graph6(decode_graph6(s)) == s

    def test_accepts_format_header(self):
        assert decode_graph6(b">>graph6<<A_") == Graph(2, [(0, 1)])

    def test_accepts_str(self):
        assert decode_graph6(encode_graph6(P4).decode("ascii")) == P4
        assert decode_graph6(">>graph6<<A_\n") == Graph(2, [(0, 1)])

    def test_rejects_invalid_size_byte(self):
        with pytest.raises(GraphFormatError, match="invalid graph6 size byte 32") as exc:
            decode_graph6(b" _")
        assert exc.value.offset == 0

    def test_rejects_short_body(self):
        with pytest.raises(GraphFormatError, match="too short"):
            decode_graph6(b"D")  # n=5 needs 2 body characters

    def test_rejects_long_body(self):
        with pytest.raises(GraphFormatError, match="too long"):
            decode_graph6(b"A__")

    def test_rejects_bad_character_with_offset(self):
        with pytest.raises(GraphFormatError, match="offset 1") as exc:
            decode_graph6(bytes([65, 20]))
        assert exc.value.offset == 1

    def test_rejects_nonzero_padding(self):
        for prefix in (b"", b">>graph6<<"):
            # n=2 has one adjacency bit; the other five must be zero padding
            with pytest.raises(GraphFormatError, match="padding") as exc:
                decode_graph6(prefix + bytes([65, 63 + 1]))
            assert exc.value.offset == len(prefix) + 1
            # n=5 has ten bits in two characters; the padding lies in the last one
            with pytest.raises(GraphFormatError, match="padding") as exc:
                decode_graph6(prefix + b"D?@")
            assert exc.value.offset == len(prefix) + 2

    def test_bad_character_is_reported_before_bad_padding(self):
        with pytest.raises(GraphFormatError, match="invalid graph6 character 20") as exc:
            decode_graph6(bytes([68, 20, 63 + 1]))
        assert exc.value.offset == 1

    @pytest.mark.parametrize("n", [0, 1, 62])
    def test_roundtrip_empty_and_complete(self, n):
        # n = 62 is the largest single-byte header: a 316-character body holds 1,891 bits
        for g in (Graph(n), Graph(n, combinations(range(n), 2))):
            code = encode_graph6(g)
            assert len(code) == 1 + (n * (n - 1) // 2 + 5) // 6
            assert decode_graph6(code) == g
            assert encode_graph6(decode_graph6(code)) == code

    def test_rejects_multibyte_header(self):
        with pytest.raises(GraphFormatError, match="not supported"):
            decode_graph6(bytes([126, 63, 63, 63]))

    def test_rejects_empty(self):
        with pytest.raises(GraphFormatError, match="empty"):
            decode_graph6(b"")

    def test_encode_rejects_large_order(self):
        with pytest.raises(ValueError, match="62"):
            encode_graph6(Graph(63))


class TestEdgeList:
    def test_roundtrip(self):
        text = format_edge_list(P4)
        assert parse_edge_list(text) == P4

    def test_header_line(self):
        assert format_edge_list(P4).splitlines()[0] == "4 3"

    def test_rejects_bad_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            parse_edge_list("4\n0 1\n")

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(GraphFormatError, match="expected 2 edge lines"):
            parse_edge_list("3 2\n0 1\n")

    def test_rejects_unordered_pair(self):
        with pytest.raises(GraphFormatError, match="0 <= u < v < n"):
            parse_edge_list("3 1\n1 0\n")

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError, match="0 <= u < v < n"):
            parse_edge_list("3 1\n0 3\n")

    def test_rejects_duplicate(self):
        with pytest.raises(GraphFormatError, match="duplicate") as exc:
            parse_edge_list("3 2\n0 1\n0 1\n")
        assert exc.value.offset == 3

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("", "empty edge-list input", 1),
            ("\n  \n", "empty edge-list input", 1),
            ("4 x\n", "header must contain two integers", 1),
            ("3 -1\n", "header counts must be nonnegative", 1),
            ("3 1\n0 1 2\n", "edge line must be 'u v'", 2),
            ("3 2\n0 1\n1 two\n", "edge line must contain two integers", 3),
        ],
    )
    def test_rejects_malformed_lines(self, text, message, line):
        with pytest.raises(GraphFormatError, match=message) as exc:
            parse_edge_list(text)
        assert exc.value.offset == line


class TestReadGraphFile:
    def test_sniffs_edge_list(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(format_edge_list(P4))
        assert read_graph_file(str(path)) == P4

    def test_sniffs_graph6(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_bytes(encode_graph6(P4) + b"\n")
        assert read_graph_file(str(path)) == P4

    def test_sniffs_edge_list_after_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("\n  \n" + format_edge_list(P4))
        assert read_graph_file(str(path)) == P4

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "g.xml"
        path.write_text(format_edge_list(P4))
        with pytest.raises(ValueError, match="unknown graph format 'xml'"):
            read_graph_file(str(path), "xml")
