"""Rewrites: edge addition, neighbor shifts, family rewirings."""

import random

import pytest

from conftest import DEFAULT_SEED, random_graph
from zex import (
    FamilyParams,
    Graph,
    ShiftSpec,
    add_edge,
    bipartition_of,
    build_family,
    case1_rewire,
    case2_rewire,
    m1,
    m2,
    shift_neighbors,
    vertex_connectivity_value,
)

P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])

# u=0 with leaves 1,2 and chord to the hub; v=3 attached to hub 4 and leaf 5
DOUBLE_STAR = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])


class TestAddEdge:
    def test_path_to_cycle_m1(self):
        c4 = add_edge(P4, 0, 3)
        assert m1(P4) == 10 and m1(c4) == 16

    def test_path_to_cycle_m2(self):
        # frozen from the edge-wise product oracle: P4 products 1*2+2*2+2*1
        c4 = add_edge(P4, 0, 3)
        assert m2(P4) == 8 and m2(c4) == 16

    def test_edgeless_pair(self):
        g = Graph(2)
        assert m1(add_edge(g, 0, 1)) == 2 and m1(g) == 0

    def test_rejects_existing_edge(self):
        with pytest.raises(ValueError, match="already present"):
            add_edge(P4, 0, 1)

    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            add_edge(P4, 2, 2)

    @pytest.mark.parametrize("u,v,shown", [(-1, 2, (-1, 2)), (2, -1, (-1, 2)), (9, 0, (0, 9))])
    def test_rejects_out_of_range(self, u, v, shown):
        with pytest.raises(ValueError) as exc:
            add_edge(P4, u, v)
        assert str(exc.value) == f"edge {shown} out of range for n=4"

    def test_strict_increase_everywhere(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(300):
            g = random_graph(rng, rng.randint(2, 10))
            non_edges = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if not g.has_edge(u, v)
            ]
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            bigger = add_edge(g, u, v)
            assert m1(bigger) > m1(g) and m2(bigger) > m2(g)


class TestShiftNeighbors:
    def test_double_star_example(self):
        # frozen from direct evaluation of both 6-vertex graphs
        assert (m1(DOUBLE_STAR), m2(DOUBLE_STAR)) == (20, 18)
        shifted = shift_neighbors(DOUBLE_STAR, ShiftSpec(u=0, v=4, moved=frozenset({5})))
        assert (m1(shifted), m2(shifted)) == (24, 22)

    def test_can_isolate_v(self):
        g = Graph(4, [(0, 1), (2, 3)])
        out = shift_neighbors(g, ShiftSpec(u=0, v=2, moved=frozenset({3})))
        assert out.degree(2) == 0

    def test_rejects_adjacent_u_v(self):
        with pytest.raises(ValueError, match="not adjacent"):
            shift_neighbors(P4, ShiftSpec(u=0, v=1, moved=frozenset({2})))

    def test_rejects_equal_u_v(self):
        with pytest.raises(ValueError, match="u != v"):
            shift_neighbors(P4, ShiftSpec(u=1, v=1, moved=frozenset({2})))

    def test_rejects_empty_moved(self):
        with pytest.raises(ValueError, match="nonempty"):
            shift_neighbors(P4, ShiftSpec(u=0, v=2, moved=frozenset()))

    def test_rejects_moved_outside_neighborhood(self):
        with pytest.raises(ValueError, match="not neighbors of v"):
            shift_neighbors(P4, ShiftSpec(u=0, v=2, moved=frozenset({0})))

    def test_rejects_u_in_moved(self):
        # moved must lie in N(v), and u is not adjacent to v
        with pytest.raises(ValueError, match="not neighbors of v"):
            shift_neighbors(P4, ShiftSpec(u=0, v=2, moved=frozenset({0, 3})))

    def test_rejects_moved_already_at_u(self):
        g = Graph(4, [(0, 1), (2, 1), (2, 3)])
        with pytest.raises(ValueError, match="already neighbors of u"):
            shift_neighbors(g, ShiftSpec(u=0, v=2, moved=frozenset({1})))

    @pytest.mark.parametrize("u,v,moved,shown", [
        (-1, 2, {3}, (-1, 2)),
        (0, 9, {1}, (0, 9)),
        (0, 2, {-1}, (-1, 2)),
        (0, 2, {3, 4}, (2, 4)),
    ])
    def test_rejects_out_of_range(self, u, v, moved, shown):
        with pytest.raises(ValueError) as exc:
            shift_neighbors(P4, ShiftSpec(u=u, v=v, moved=frozenset(moved)))
        assert str(exc.value) == f"edge {shown} out of range for n=4"

    def test_m1_increases_for_any_valid_subset(self):
        rng = random.Random(DEFAULT_SEED)
        done = 0
        while done < 500:
            g = random_graph(rng, rng.randint(3, 10))
            spec = _random_shift_spec(rng, g, full_set=False)
            if spec is None:
                continue
            assert m1(shift_neighbors(g, spec)) > m1(g)
            done += 1

    def test_m2_can_decrease_for_proper_subsets(self):
        # moving only the low-degree neighbor of v while its high-degree
        # neighbor stays put lowers the second index; this is why the
        # monotonicity suite moves the whole difference set N(v) \ N(u)
        g = Graph(
            9,
            [(0, 1), (0, 2), (3, 4), (3, 5), (1, 4), (4, 6), (4, 7), (4, 8)],
        )
        spec = ShiftSpec(u=0, v=3, moved=frozenset({5}))
        assert g.degree(0) >= g.degree(3)
        shifted = shift_neighbors(g, spec)
        assert m2(shifted) == m2(g) - 1
        assert m1(shifted) > m1(g)

    def test_both_increase_when_whole_difference_set_moves(self):
        rng = random.Random(DEFAULT_SEED)
        done = 0
        while done < 500:
            g = random_graph(rng, rng.randint(3, 10))
            spec = _random_shift_spec(rng, g, full_set=True)
            if spec is None:
                continue
            shifted = shift_neighbors(g, spec)
            assert m1(shifted) > m1(g) and m2(shifted) > m2(g)
            done += 1


def _random_shift_spec(rng, g, full_set):
    """A valid spec with d(u) >= d(v), or None when the drawn pair has none."""
    u, v = rng.sample(range(g.n), 2)
    if g.degree(u) < g.degree(v):
        u, v = v, u
    if g.has_edge(u, v):
        return None
    candidates = [w for w in range(g.n) if g.has_edge(v, w) and not g.has_edge(u, w)]
    if not candidates:
        return None
    if full_set:
        moved = candidates
    else:
        moved = rng.sample(candidates, rng.randint(1, len(candidates)))
    return ShiftSpec(u=u, v=v, moved=frozenset(moved))


def case1_params(n_hi):
    for n in range(6, n_hi + 1):
        for r in range(1, (n - 4) // 2 + 1):
            for k in range(1, r + 1):
                yield FamilyParams(n, k, r)


def case2_params(n_hi):
    for n in range(6, n_hi + 1):
        for r in range(n // 2 + 1, n - 1):
            for k in range(1, min(r, n - r - 1) + 1):
                yield FamilyParams(n, k, r)


class TestCase1Rewire:
    def test_exact_values_10_1_3(self):
        # frozen from direct evaluation of both graphs
        p = FamilyParams(10, 1, 3)
        g, rewired = build_family(p), case1_rewire(p)
        assert (m1(g), m1(rewired)) == (176, 192)
        assert (m2(g), m2(rewired)) == (349, 426)

    def test_strictly_increases(self):
        for p in case1_params(14):
            g, rewired = build_family(p), case1_rewire(p)
            assert m1(rewired) > m1(g), p
            assert m2(rewired) > m2(g), p

    def test_rejects_r_at_half(self):
        with pytest.raises(ValueError, match="2r <= n - 4"):
            case1_rewire(FamilyParams(10, 1, 4))

    def test_rejects_small_order(self):
        with pytest.raises(ValueError, match="n >= 6"):
            case1_rewire(FamilyParams(5, 1, 1))

    def test_output_stays_in_class(self):
        for p in case1_params(12):
            out = case1_rewire(p)
            assert bipartition_of(out) is not None, p
            assert vertex_connectivity_value(out) == p.k, p


class TestCase2Rewire:
    def test_delta_formulas_8_1_5(self):
        p = FamilyParams(8, 1, 5)
        g, rewired = build_family(p), case2_rewire(p)
        assert m1(rewired) - m1(g) == 6  # k(2 + 4r - 2n)
        assert m2(rewired) - m2(g) == 3  # (2r - n + 1) k^2

    def test_delta_formulas_everywhere(self):
        for p in case2_params(14):
            g, rewired = build_family(p), case2_rewire(p)
            n, k, r = p.n, p.k, p.r
            assert m1(rewired) - m1(g) == k * (2 + 4 * r - 2 * n), p
            assert m2(rewired) - m2(g) == (2 * r - n + 1) * k * k, p

    def test_rejects_r_at_half(self):
        with pytest.raises(ValueError, match="2r > n"):
            case2_rewire(FamilyParams(8, 1, 4))

    def test_rejects_small_order(self):
        with pytest.raises(ValueError, match="n >= 6"):
            case2_rewire(FamilyParams(5, 1, 3))

    def test_rejects_too_few_core_vertices(self):
        with pytest.raises(ValueError, match="n - r - 1 >= k"):
            case2_rewire(FamilyParams(10, 4, 6))

    def test_output_stays_in_class(self):
        for p in case2_params(12):
            out = case2_rewire(p)
            assert bipartition_of(out) is not None, p
            assert vertex_connectivity_value(out) == p.k, p
