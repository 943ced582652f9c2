"""Acceptance gate: the eight verification criteria, one test each.

Every test prints a single CRITERION line (visible with ``pytest -s`` or
``-rA``) and asserts exact integer equalities; there are no tolerances
anywhere.  Stated runtime budgets are printed alongside.
"""

import random
import time
from itertools import combinations

from conftest import DEFAULT_SEED, minimum_vertex_cuts, random_connected_bipartite, random_graph
from zex import (
    FamilyParams,
    Graph,
    SearchSpec,
    ShiftSpec,
    add_edge,
    bipartition_of,
    build_family,
    case1_rewire,
    case2_rewire,
    connected_components,
    decode_graph6,
    edge_connectivity_value,
    encode_graph6,
    family_m1,
    family_m2,
    m1,
    m2,
    search_max,
    shift_neighbors,
    vertex_connectivity_value,
)
from zex.search import (
    brute_force_edge_connectivity,
    brute_force_vertex_connectivity,
)


def _grid_reports(mode):
    reports = []
    for n in (6, 7, 8):
        for c in range(1, n // 2 + 1):
            for index in ("M1", "M2"):
                reports.append(search_max(SearchSpec(n, mode, c, index)))
    return reports


def _check_grid(mode):
    start = time.perf_counter()
    reports = _grid_reports(mode)
    for r in reports:
        assert r.max_value is not None, f"unexpectedly empty class: {r.spec}"
        assert r.matches, (
            f"mismatch at {r.spec}: max={r.max_value} predicted={r.predicted_value} "
            f"maximizers={r.maximizers}"
        )
        assert r.max_value == r.predicted_value
    return reports, time.perf_counter() - start


def test_criterion_1_vertex_connectivity_maximizers():
    reports, elapsed = _check_grid("vertex")
    print(
        f"\nCRITERION 1: PASS - {len(reports)} vertex-mode cells match exactly "
        f"({elapsed:.1f} s, budget 60 s)"
    )


def test_criterion_2_edge_connectivity_maximizers():
    reports, elapsed = _check_grid("edge")
    print(
        f"\nCRITERION 2: PASS - {len(reports)} edge-mode cells match exactly "
        f"({elapsed:.1f} s, budget 60 s)"
    )


def test_criterion_3_closed_form_consistency():
    start = time.perf_counter()
    checked = 0
    for n in range(6, 31):
        for k in range(1, n - 1):
            for r in range(k, n - 1):
                p = FamilyParams(n, k, r)
                g = build_family(p)
                assert family_m1(p) == m1(g), p
                assert family_m2(p) == m2(g), p
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked > 2000
    print(
        f"\nCRITERION 3: PASS - closed forms equal direct evaluation on "
        f"{checked} parameter triples ({elapsed:.1f} s, budget 5 s)"
    )


def test_criterion_4_rewire_deltas():
    start = time.perf_counter()
    case2_checked = 0
    for n in range(6, 21):
        for r in range(n // 2 + 1, n - 1):
            for k in range(1, min(r, n - r - 1) + 1):
                p = FamilyParams(n, k, r)
                g, rewired = build_family(p), case2_rewire(p)
                assert m1(rewired) - m1(g) == k * (2 + 4 * r - 2 * n), p
                assert m2(rewired) - m2(g) == (2 * r - n + 1) * k * k, p
                case2_checked += 1
    case1_checked = 0
    for n in range(6, 21):
        for r in range(1, (n - 4) // 2 + 1):
            for k in range(1, r + 1):
                p = FamilyParams(n, k, r)
                g, rewired = build_family(p), case1_rewire(p)
                assert m1(rewired) > m1(g), p
                assert m2(rewired) > m2(g), p
                case1_checked += 1
    elapsed = time.perf_counter() - start
    print(
        f"\nCRITERION 4: PASS - exact deltas on {case2_checked} re-attachment "
        f"cases, strict growth on {case1_checked} core-merge cases ({elapsed:.1f} s)"
    )


def _edge_addition_trials(trials):
    rng = random.Random(DEFAULT_SEED)
    done = 0
    while done < trials:
        n = rng.randint(4, 12)
        g = random_connected_bipartite(rng, n, rng.choice([0.3, 0.5, 0.7]))
        b = bipartition_of(g)
        missing = [
            (x, y)
            for x in b.X
            for y in b.Y
            if not g.has_edge(x, y)
        ]
        if not missing:
            continue
        u, v = rng.choice(missing)
        bigger = add_edge(g, u, v)
        assert m1(bigger) > m1(g) and m2(bigger) > m2(g), (g, u, v)
        done += 1


def _neighbor_shift_trials(trials):
    rng = random.Random(DEFAULT_SEED + 1)
    done = 0
    while done < trials:
        n = rng.randint(3, 12)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        u, v = rng.sample(range(n), 2)
        if g.degree(u) < g.degree(v):
            u, v = v, u
        if g.has_edge(u, v):
            continue
        moved = frozenset(
            w for w in range(n) if g.has_edge(v, w) and not g.has_edge(u, w)
        )
        if not moved:
            continue
        shifted = shift_neighbors(g, ShiftSpec(u=u, v=v, moved=moved))
        assert m1(shifted) > m1(g) and m2(shifted) > m2(g), (g, u, v, moved)
        done += 1


def test_criterion_5_monotonicity_property_suites():
    start = time.perf_counter()
    trials = 10_000
    _edge_addition_trials(trials)
    _neighbor_shift_trials(trials)
    elapsed = time.perf_counter() - start
    print(
        f"\nCRITERION 5: PASS - {trials} edge-addition and {trials} "
        f"neighbor-shift trials with zero monotonicity violations ({elapsed:.1f} s)"
    )


def test_criterion_6_connectivity_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            assert vertex_connectivity_value(g) == brute_force_vertex_connectivity(g), g
            assert edge_connectivity_value(g) == brute_force_edge_connectivity(g), g
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1 + 2 + 8 + 64 + 1024 + 32768
    print(
        f"\nCRITERION 6: PASS - flow and subset-enumeration connectivity agree "
        f"on all {checked} graphs of order <= 6 ({elapsed:.1f} s, budget 120 s)"
    )


def test_criterion_7_maximizer_cut_structure():
    start = time.perf_counter()
    straddle_checked = 0
    profile_checked = 0
    for mode in ("vertex", "edge"):
        for r in _grid_reports(mode):
            n, c = r.spec.n, r.spec.c
            for g6 in r.maximizers:
                g = decode_graph6(g6.encode("ascii"))
                b = bipartition_of(g)
                assert b is not None
                cuts = minimum_vertex_cuts(g)
                assert not any(cut & b.X and cut & b.Y for cut in cuts), (r.spec, g6)
                straddle_checked += 1
                for cut in cuts:
                    within_part = cut <= b.X or cut <= b.Y
                    part = b.X if cut <= b.X else b.Y
                    if within_part and len(part) > len(cut):
                        profile = sorted(map(len, connected_components(g, cut)))
                        assert profile == [1, n - c - 1], (
                            r.spec,
                            g6,
                            sorted(cut),
                        )
                        profile_checked += 1
    elapsed = time.perf_counter() - start
    assert profile_checked > 0
    print(
        f"\nCRITERION 7: PASS - no straddling minimum cuts on {straddle_checked} "
        f"maximizers; {profile_checked} one-sided cuts isolate a single vertex "
        f"({elapsed:.1f} s)"
    )


def test_criterion_8_graph6_roundtrip():
    start = time.perf_counter()
    rng = random.Random(DEFAULT_SEED)
    trials = 10_000
    for _ in range(trials):
        g = random_graph(rng, rng.randint(1, 30), rng.choice([0.1, 0.3, 0.5, 0.8]))
        assert decode_graph6(encode_graph6(g)) == g
    elapsed = time.perf_counter() - start
    print(
        f"\nCRITERION 8: PASS - graph6 decode(encode) identity on {trials} "
        f"random graphs of order <= 30 ({elapsed:.1f} s)"
    )
