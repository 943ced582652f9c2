"""Constructions: family builder, closed forms, predicted maximizers."""

import pickle
from types import SimpleNamespace

import pytest

from zex import (
    FamilyParams,
    Graph,
    build_family,
    canonical_form,
    case1_rewire,
    case2_rewire,
    complete_bipartite,
    bipartition_of,
    edge_connectivity_value,
    family_m1,
    family_m2,
    m1,
    m2,
    min_degree,
    predicted_extremal,
    vertex_connectivity_value,
)
from zex.families import _blowup, _blowup_indices


def all_params(n_lo, n_hi, extra=lambda p: True):
    for n in range(n_lo, n_hi + 1):
        for k in range(1, n - 1):
            for r in range(k, n - 1):
                p = FamilyParams(n, k, r)
                if extra(p):
                    yield p


class TestCompleteBipartite:
    def test_star(self):
        g = complete_bipartite(1, 3)
        assert sorted(g.degrees(), reverse=True) == [3, 1, 1, 1]

    def test_empty_side_gives_isolated_vertices(self):
        g = complete_bipartite(3, 0)
        assert g.n == 3 and g.num_edges == 0

    def test_two_two_is_four_cycle(self):
        g = complete_bipartite(2, 2)
        assert g.num_edges == 4 and set(g.degrees()) == {2}
        assert vertex_connectivity_value(g) == 2

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            complete_bipartite(0, 0)


class TestFamilyParams:
    def test_rejects_k_zero(self):
        with pytest.raises(ValueError, match="k"):
            FamilyParams(6, 0, 2)

    def test_rejects_r_below_k(self):
        with pytest.raises(ValueError, match="at least k"):
            FamilyParams(5, 3, 2)

    def test_rejects_r_above_n_minus_2(self):
        with pytest.raises(ValueError, match="n-2"):
            FamilyParams(6, 1, 5)

    # every check in its order, with its message word for word
    @pytest.mark.parametrize("args, message", [
        ((6, 0, 2), "k must be at least 1"),
        ((5, 3, 2), "r=2 must be at least k=3"),
        ((6, 1, 5), "r=5 must be at most n-2=4"),
        ((3, 0, -1), "k must be at least 1"),
    ])
    def test_messages_by_position_by_keyword_and_after_pickling(self, args, message):
        # an instance made without __new__ still meets the checks when it is unpickled
        forged = tuple.__new__(FamilyParams, args)
        for build in (
            lambda: FamilyParams(*args),
            lambda: FamilyParams(**dict(zip(FamilyParams._fields, args))),
            lambda: pickle.loads(pickle.dumps(forged)),
        ):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    def test_is_an_immutable_named_tuple(self):
        p = FamilyParams(n=7, k=1, r=3)
        assert repr(p) == "FamilyParams(n=7, k=1, r=3)"
        assert p == FamilyParams(7, 1, 3) == (7, 1, 3)
        assert (p.a_count, p.b_count) == (3, 2)
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p and type(copy) is FamilyParams
        with pytest.raises(AttributeError):
            p.k = 2
        with pytest.raises(AttributeError):
            p.extra = 1


class TestBuildFamily:
    def test_family_7_1_3_profile(self):
        # degree multiset {1, 4, 3,3,3, 3,3}; 10 edges, degree sum 20
        g = build_family(FamilyParams(7, 1, 3))
        assert g.n == 7
        assert sorted(g.degrees()) == [1, 3, 3, 3, 3, 3, 4]
        assert g.num_edges == 10
        assert sum(g.degrees()) == 2 * g.num_edges

    def test_degree_profile_by_role(self):
        p = FamilyParams(10, 2, 5)
        g = build_family(p)
        lay = ref_layout(p)
        n, k, r = p.n, p.k, p.r
        assert g.degree(lay.v) == k
        assert all(g.degree(c) == n - r for c in lay.c_vertices)
        assert all(g.degree(a) == r for a in lay.a_all)
        assert all(g.degree(b) == n - r - 1 for b in lay.b_vertices)

    def test_r_equals_k_degenerates_to_complete_bipartite(self):
        g = build_family(FamilyParams(6, 2, 2))
        assert canonical_form(g) == canonical_form(complete_bipartite(2, 4))

    def test_connectivity_of_family_6_1_2(self):
        assert vertex_connectivity_value(build_family(FamilyParams(6, 1, 2))) == 1

    def test_always_bipartite(self):
        for p in all_params(6, 10):
            assert bipartition_of(build_family(p)) is not None

    def test_connectivity_equals_k_when_core_large_enough(self):
        for p in all_params(6, 12, extra=lambda p: p.a_count >= p.k):
            assert vertex_connectivity_value(build_family(p)) == p.k, p


class TestClosedForms:
    def test_values_7_1_3(self):
        p = FamilyParams(7, 1, 3)
        assert family_m1(p) == 62
        assert family_m2(p) == 94

    def test_values_6_1_2(self):
        p = FamilyParams(6, 1, 2)
        assert family_m1(p) == 38
        assert family_m2(p) == 46

    def test_matches_direct_evaluation_small(self):
        # the full 6..30 sweep is acceptance criterion 3
        for p in all_params(6, 14):
            g = build_family(p)
            assert family_m1(p) == m1(g)
            assert family_m2(p) == m2(g)

    def test_r_equals_k_specializes_to_complete_bipartite_formulas(self):
        for n in range(4, 20):
            for k in range(1, n - 1):
                p = FamilyParams(n, k, k)
                assert family_m1(p) == k * (n - k) ** 2 + (n - k) * k * k
                assert family_m2(p) == k * k * (n - k) ** 2


class TestCandidateComparisons:
    """The two family members that survive at each order differ by known amounts."""

    def test_odd_orders(self):
        for n in range(7, 31, 2):
            for k in range(1, (n - 3) // 2 + 1):
                big = FamilyParams(n, k, (n - 1) // 2)
                small = FamilyParams(n, k, (n - 3) // 2)
                assert family_m1(big) - family_m1(small) == n - 1 - 2 * k
                assert family_m2(big) - family_m2(small) == (
                    n * n - 2 * n - 1 + 2 * k - 2 * k * k
                ) // 2

    def test_even_orders(self):
        for n in range(6, 31, 2):
            for k in range(1, n // 2):
                winner = FamilyParams(n, k, (n - 2) // 2)
                loser = FamilyParams(n, k, n // 2)
                assert family_m1(winner) - family_m1(loser) == 2 * k
                assert family_m2(winner) - family_m2(loser) == k * k


class TestPredictedExtremal:
    def test_odd_order(self):
        assert predicted_extremal(7, 1, "vertex") == build_family(FamilyParams(7, 1, 3))

    def test_even_order_half_connectivity(self):
        assert predicted_extremal(6, 3, "vertex") == complete_bipartite(3, 3)

    def test_even_order_edge_mode(self):
        assert predicted_extremal(8, 2, "edge") == build_family(FamilyParams(8, 2, 3))

    def test_rejects_small_orders(self):
        with pytest.raises(ValueError, match="n >= 6"):
            predicted_extremal(5, 1, "vertex")

    def test_rejects_out_of_range_connectivity(self):
        with pytest.raises(ValueError):
            predicted_extremal(7, 4, "vertex")
        with pytest.raises(ValueError):
            predicted_extremal(6, 4, "edge")
        with pytest.raises(ValueError):
            predicted_extremal(8, 0, "vertex")

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            predicted_extremal(8, 2, "both")

    def test_lies_in_claimed_class(self):
        for n in range(6, 11):
            for c in range(1, n // 2 + 1):
                for mode in ("vertex", "edge"):
                    g = predicted_extremal(n, c, mode)
                    assert g.n == n
                    assert bipartition_of(g) is not None
                    if mode == "vertex":
                        assert vertex_connectivity_value(g) == c
                    else:
                        assert edge_connectivity_value(g) == c


# Reference encodings, written apart from the class tables that the library builds and
# evaluates: the family's labels by arithmetic, its edges as one list per role, the
# rewirings as edge diffs on it, and the hand-derived closed forms.


def ref_layout(p):
    # the labels of the classes v, C, A (its last label a_last apart) and B
    k, a = p.k, p.a_count
    a_vertices = tuple(range(k + 1, k + a))
    return SimpleNamespace(
        v=0,
        c_vertices=tuple(range(1, k + 1)),
        a_vertices=a_vertices,
        a_last=k + a,
        a_all=a_vertices + (k + a,),
        b_vertices=tuple(range(k + a + 1, p.n)),
    )


def ref_family(p):
    lay = ref_layout(p)
    edges = [(lay.v, c) for c in lay.c_vertices]
    edges += [(c, a) for c in lay.c_vertices for a in lay.a_all]
    edges += [(a, b) for a in lay.a_all for b in lay.b_vertices]
    return Graph(p.n, edges)


def ref_case1(p):
    # the last core-A vertex leaves C and B for the rest of core A
    lay = ref_layout(p)
    removed = [(lay.a_last, c) for c in lay.c_vertices]
    removed += [(lay.a_last, b) for b in lay.b_vertices]
    added = [(lay.a_last, a) for a in lay.a_vertices]
    return ref_family(p).with_edges_changed(removed=removed, added=added)


def ref_case2(p):
    # the distinguished vertex leaves C for the first k core-A vertices
    lay = ref_layout(p)
    removed = [(lay.v, c) for c in lay.c_vertices]
    added = [(lay.v, a) for a in lay.a_all[: p.k]]
    return ref_family(p).with_edges_changed(removed=removed, added=added)


def ref_complete_bipartite(p, q):
    return Graph(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def ref_m1(p):
    n, k, r = p.n, p.k, p.r
    return k * k + k * (n - r) ** 2 + (n - r - 1) * r * r + (r - k) * (n - r - 1) ** 2


def ref_m2(p):
    # summed over the three edge groups v-C, C-A and A-B
    n, k, r = p.n, p.k, p.r
    return k * k * (n - r) + k * r * (n - r) * (n - r - 1) + r * (r - k) * (n - r - 1) ** 2


def ref_predicted(n, c):
    if n % 2 == 1:
        return ref_family(FamilyParams(n, c, (n - 1) // 2))
    if c == n // 2:
        return ref_complete_bipartite(n // 2, n // 2)
    return ref_family(FamilyParams(n, c, (n - 2) // 2))


class TestClassTablesMatchReferences:
    def test_complete_bipartite(self):
        for p in range(12):
            for q in range(12):
                if p + q:
                    assert complete_bipartite(p, q) == ref_complete_bipartite(p, q), (p, q)

    def test_family_layout_masks_and_closed_forms(self):
        for p in all_params(6, 30):
            assert build_family(p).neighbor_masks == ref_family(p).neighbor_masks, p
            assert (family_m1(p), family_m2(p)) == (ref_m1(p), ref_m2(p)), p

    def test_rewirings_where_they_apply(self):
        applied = [0, 0]
        for p in all_params(6, 30):
            if 2 * p.r <= p.n - 4:
                assert case1_rewire(p).neighbor_masks == ref_case1(p).neighbor_masks, p
                applied[0] += 1
            if 2 * p.r > p.n and p.a_count >= p.k:
                assert case2_rewire(p).neighbor_masks == ref_case2(p).neighbor_masks, p
                applied[1] += 1
        assert applied == [819, 909]

    def test_predicted_extremal(self):
        for n in range(6, 63):
            for c in range(1, n // 2 + 1):
                expected = ref_predicted(n, c).neighbor_masks
                for mode in ("vertex", "edge"):
                    assert predicted_extremal(n, c, mode).neighbor_masks == expected, (n, c, mode)


def _compositions(total, parts):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


# The saturation lemma's graph H(s_X, s_Y, l_X, l_Y, r_X, r_Y), classes in that order: the
# cut S = S_X + S_Y leaves the sides L and R, and each side is made complete bipartite
# within itself and to S
SATURATED_JOINS = ((0, 1), (0, 3), (0, 5), (2, 1), (2, 3), (4, 1), (4, 5))


def test_saturated_graph_connectivity_is_cut_size_or_min_degree():
    # each class is a set of false twins, so a minimum cut takes classes whole:
    # kappa(H) = min(s_X + s_Y, delta(H))
    checked = 0
    for n in range(2, 15):
        for counts in _compositions(n, 6):
            s_x, s_y, l_x, l_y, r_x, r_y = counts
            # both sides nonempty, folded so that L <= R
            if s_x + s_y < 1 or l_x + l_y < 1 or (l_x, l_y) > (r_x, r_y):
                continue
            g = _blowup(counts, SATURATED_JOINS)
            assert vertex_connectivity_value(g) == min(s_x + s_y, min_degree(g)), counts
            assert _blowup_indices(counts, SATURATED_JOINS) == (m1(g), m2(g)), counts
            checked += 1
    assert checked == 15372
