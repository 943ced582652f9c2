"""Oracle: class enumeration, extremal search, cut predicates, canonical form."""

import itertools
import pickle
import random
from collections import Counter
from functools import cache, reduce
from fractions import Fraction
from math import comb, factorial, gcd
from operator import or_

import pytest

from conftest import DEFAULT_SEED, random_graph, row_and_column_class, run_python, sweep_classes
from zex import (
    Bipartition,
    FamilyParams,
    Graph,
    SearchReport,
    SearchSpec,
    bipartition_of,
    build_family,
    canonical_form,
    complete_bipartite,
    cut_component_profile,
    decode_graph6,
    edge_connectivity_value,
    enumerate_class,
    has_straddling_min_cut,
    m1,
    m2,
    minimum_vertex_cuts,
    search_max,
    vertex_connectivity_value,
)

P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
C6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


class TestSearchSpec:
    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            SearchSpec(1, "vertex", 1, "M1")

    def test_rejects_zero_connectivity(self):
        with pytest.raises(ValueError):
            SearchSpec(6, "vertex", 0, "M1")

    def test_rejects_unknown_mode_or_index(self):
        with pytest.raises(ValueError):
            SearchSpec(6, "both", 1, "M1")
        with pytest.raises(ValueError):
            SearchSpec(6, "vertex", 1, "M3")

    def test_out_of_range_c_is_allowed(self):
        SearchSpec(6, "vertex", 5, "M1")  # empty class, not an error

    # every check in its order, with its message word for word
    INVALID = [
        ((1, "vertex", 1, "M1"), "search requires n >= 2"),
        ((6, "vertex", 0, "M1"), "search requires c >= 1"),
        ((6, "both", 1, "M1"), "mode must be one of ('vertex', 'edge'), got 'both'"),
        ((6, "vertex", 1, "M3"), "index must be one of ('M1', 'M2'), got 'M3'"),
        ((1, "both", 0, "M3"), "search requires n >= 2"),
    ]

    @pytest.mark.parametrize("args, message", INVALID)
    def test_messages_by_position_by_keyword_and_after_pickling(self, args, message):
        # an instance made without __new__ still meets the checks when it is unpickled
        forged = tuple.__new__(SearchSpec, args)
        for build in (
            lambda: SearchSpec(*args),
            lambda: SearchSpec(**dict(zip(SearchSpec._fields, args))),
            lambda: pickle.loads(pickle.dumps(forged)),
        ):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    def test_is_an_immutable_named_tuple(self):
        spec = SearchSpec(n=6, mode="vertex", c=1, index="M1")
        assert repr(spec) == "SearchSpec(n=6, mode='vertex', c=1, index='M1')"
        assert spec == SearchSpec(6, "vertex", 1, "M1") == (6, "vertex", 1, "M1")
        n, mode, c, index = spec
        assert (n, mode, c, index) == (spec.n, spec.mode, spec.c, spec.index)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and type(copy) is SearchSpec
        with pytest.raises(AttributeError):
            spec.n = 7
        with pytest.raises(AttributeError):
            spec.extra = 1


class TestSearchReport:
    FIELDS = ["spec", "max_value", "maximizers", "predicted_graph", "predicted_value",
              "matches", "graphs_enumerated", "elapsed"]

    def report(self, **changes):
        # K_{3,3}, the one graph of its class, with the timing field fixed
        return search_max(SearchSpec(6, "vertex", 3, "M1"))._replace(elapsed=0.5, **changes)

    def test_repr(self):
        assert repr(self.report()) == (
            "SearchReport(spec=SearchSpec(n=6, mode='vertex', c=3, index='M1'), max_value=54, "
            "maximizers=('Es\\\\o',), predicted_graph='EFz_', predicted_value=54, matches=True, "
            "graphs_enumerated=1, elapsed=0.5, note=None)"
        )

    def test_to_dict_keeps_the_field_order(self):
        d = self.report().to_dict()
        assert list(d) == self.FIELDS
        assert d["spec"] == {"n": 6, "mode": "vertex", "c": 3, "index": "M1"}
        assert list(d["spec"]) == ["n", "mode", "c", "index"] and type(d["spec"]) is dict
        assert d["maximizers"] == ["Es\\o"]
        noted = self.report(note="empty class").to_dict()
        assert list(noted) == [*self.FIELDS, "note"] and noted["note"] == "empty class"
        assert list(search_max(SearchSpec(6, "vertex", 4, "M1")).to_dict()) == [*self.FIELDS, "note"]

    def test_is_immutable(self):
        report = self.report()
        with pytest.raises(AttributeError):
            report.note = "changed"
        with pytest.raises(AttributeError):
            report.extra = 1


class TestEnumerateClass:
    def test_order4_connectivity2_is_the_four_cycle(self):
        got = list(enumerate_class(SearchSpec(4, "vertex", 2, "M1")))
        assert got
        target = canonical_form(complete_bipartite(2, 2))
        assert all(canonical_form(g) == target for g in got)

    def test_order3_connectivity2_is_empty(self):
        assert list(enumerate_class(SearchSpec(3, "vertex", 2, "M1"))) == []

    def test_order5_cut_vertex_classes(self):
        # frozen by exhaustive enumeration plus canonical dedup, and
        # independently by a networkx isomorphism sweep: path, star,
        # broom, and triangle-free kite (4-cycle plus pendant)
        classes = {canonical_form(g) for g in enumerate_class(SearchSpec(5, "vertex", 1, "M1"))}
        assert len(classes) == 4

    def test_emitted_graphs_have_requested_connectivity(self):
        rng = random.Random(DEFAULT_SEED)
        for mode in ("vertex", "edge"):
            members = list(enumerate_class(SearchSpec(6, mode, 2, "M1")))
            sample = rng.sample(members, max(1, len(members) // 100))
            for g in sample:
                assert bipartition_of(g) is not None
                if mode == "vertex":
                    assert vertex_connectivity_value(g) == 2
                else:
                    assert edge_connectivity_value(g) == 2

    def test_rejects_orders_beyond_sweep_cap(self):
        with pytest.raises(ValueError, match="n <= 10"):
            next(enumerate_class(SearchSpec(11, "vertex", 1, "M1")))
        with pytest.raises(ValueError, match="n <= 10"):
            search_max(SearchSpec(11, "vertex", 1, "M1"))


class TestSearchMax:
    def test_order6_cut_vertex_m1(self):
        report = search_max(SearchSpec(6, "vertex", 1, "M1"))
        assert report.max_value == 38
        assert len(report.maximizers) == 1
        winner = decode_graph6(report.maximizers[0].encode())
        assert canonical_form(winner) == canonical_form(build_family(FamilyParams(6, 1, 2)))
        assert report.matches

    def test_order6_half_connectivity_m1(self):
        report = search_max(SearchSpec(6, "vertex", 3, "M1"))
        assert report.max_value == 54
        winner = decode_graph6(report.maximizers[0].encode())
        assert canonical_form(winner) == canonical_form(complete_bipartite(3, 3))

    def test_order7_edge_mode_m2(self):
        report = search_max(SearchSpec(7, "edge", 1, "M2"))
        assert report.max_value == 94
        winner = decode_graph6(report.maximizers[0].encode())
        assert canonical_form(winner) == canonical_form(build_family(FamilyParams(7, 1, 3)))
        assert report.matches

    def test_empty_class(self):
        report = search_max(SearchSpec(6, "vertex", 4, "M1"))
        assert report.max_value is None
        assert report.maximizers == ()
        assert not report.matches
        assert report.graphs_enumerated == 0
        assert report.note == "empty class"

    def test_below_prediction_threshold(self):
        report = search_max(SearchSpec(4, "vertex", 2, "M1"))
        assert report.max_value == 16
        assert report.predicted_graph is None and report.predicted_value is None
        assert not report.matches
        assert report.note == "no prediction below order 6"

    def test_at_least_unions_classes(self):
        report = search_max(SearchSpec(6, "vertex", 1, "M1"), at_least=True)
        assert report.max_value == 54  # the half-connectivity class dominates
        assert report.predicted_value == 54
        assert report.matches

    def test_report_serialization_field_names(self):
        report = search_max(SearchSpec(6, "vertex", 2, "M2"))
        d = report.to_dict()
        assert set(d) == {
            "spec",
            "max_value",
            "maximizers",
            "predicted_graph",
            "predicted_value",
            "matches",
            "graphs_enumerated",
            "elapsed",
        }
        assert set(d["spec"]) == {"n", "mode", "c", "index"}
        assert isinstance(d["maximizers"], list)

    def test_tied_maximizers_are_noted(self, monkeypatch):
        # no cell of orders 6-10 ties, so the sweep is replaced by the two cells of two
        # tied classes, 720 labeled graphs each: two non-isomorphic order-7 graphs with
        # kappa = lambda = 1 and (M1, M2) = (32, 35)
        import zex.search as search_module

        tied = [Graph(7, [(0, 3), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (2, 6)]),
                Graph(7, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 5), (2, 6)])]
        forms = sorted(canonical_form(g).decode("ascii") for g in tied)
        assert forms[0] != forms[1]
        assert [(m1(g), m2(g)) for g in tied] == [(32, 35)] * 2
        cells = {("vertex", 1, index): [1440, value, [g.neighbor_masks for g in tied]]
                 for index, value in (("M1", 32), ("M2", 35))}
        monkeypatch.setattr(search_module, "_sweep", lambda n, workers: cells)
        for index in ("M1", "M2"):
            report = search_max(SearchSpec(7, "vertex", 1, index))
            assert report.note == "2 non-isomorphic maximizers tie"
            assert report.maximizers == tuple(forms)
            assert report.graphs_enumerated == 1440

    def test_workers_do_not_change_results(self):
        import zex.search as search_module

        search_module._sweep.cache_clear()
        serial = search_max(SearchSpec(5, "vertex", 1, "M1"))
        parallel = search_max(SearchSpec(5, "vertex", 1, "M1"), workers=3)
        assert serial.max_value == parallel.max_value
        assert serial.maximizers == parallel.maximizers
        assert serial.graphs_enumerated == parallel.graphs_enumerated


class TestWeightedSweep:
    """The orbit-reduced sweep against the full labeled enumerator."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_class_sizes_match_labeled_enumeration(self, n):
        for mode in ("vertex", "edge"):
            for c in range(1, n // 2 + 2):
                spec = SearchSpec(n, mode, c, "M1")
                expected = sum(1 for _ in enumerate_class(spec))
                assert search_max(spec).graphs_enumerated == expected, (mode, c)

    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_class_totals_match_an_independent_count(self, mode):
        # summed over c, the sweep's class sizes count the connected spanning subgraphs
        # of K_{p,n-p} for every p <= n / 2; count those with no sweep
        expected = {
            n: sum(_connected_spanning(p, n - p) for p in range(n // 2 + 1)) for n in range(2, 10)
        }
        assert [expected[n] for n in range(6, 10)] == [271, 2007, 51204, 745210]
        for n in range(2, 10):
            report = search_max(SearchSpec(n, mode, 1, "M1"), at_least=True)
            assert report.graphs_enumerated == expected[n], n

    def test_order10_class_totals_match_an_independent_count(self):
        # one order-10 sweep (about 3 s) serves both modes; the cache keeps only the latest sweep
        import zex.search as search_module

        search_module._sweep.cache_clear()
        expected = sum(_connected_spanning(p, 10 - p) for p in range(6))
        assert expected == 34829977
        for mode in ("vertex", "edge"):
            report = search_max(SearchSpec(10, mode, 1, "M1"), at_least=True)
            assert report.graphs_enumerated == expected, mode

    @pytest.mark.slow
    def test_order11_through_its_tasks(self, monkeypatch):
        # MAX_SWEEP_ORDER stays 10 for search_max; the sweep itself takes order 11
        import zex.search as search_module
        from zex import predicted_extremal

        classify = search_module._connectivity
        classified = []

        def counting(masks):
            classified.append(len(masks))
            return classify(masks)

        monkeypatch.setattr(search_module, "_connectivity", counting)
        search_module._sweep.cache_clear()
        cells = search_module._sweep(11, 1)
        assert len(classified) == 25598  # connected bipartite graphs of order 11
        expected = sum(_connected_spanning(p, 11 - p) for p in range(6))
        assert expected == 973422173
        assert sorted(cells) == [
            (mode, c, index) for mode in ("edge", "vertex") for c in range(1, 6) for index in ("M1", "M2")
        ]
        for mode in ("vertex", "edge"):
            for index in ("M1", "M2"):
                assert sum(cells[mode, c, index][0] for c in range(1, 6)) == expected, (mode, index)
            for c in range(1, 6):
                graph = predicted_extremal(11, c, mode)
                maxima = (cells[mode, c, "M1"][1], cells[mode, c, "M2"][1])
                assert maxima == (m1(graph), m2(graph)), (mode, c)

    @pytest.mark.slow
    def test_order11_pooled_equals_serial(self):
        # the pooled path past order 10: the same cells, each with the same count,
        # maximum and ties in the same order, as the task cells are folded in task order
        import zex.search as search_module

        pooled = search_module._sweep(11, 2)
        assert pooled == search_module._sweep(11, 1)
        assert len(pooled) == 20
        for mode in ("vertex", "edge"):
            assert sum(pooled[mode, c, "M1"][0] for c in range(1, 6)) == 973422173, mode

    @pytest.mark.parametrize("n", [6, 7])
    def test_maximizers_are_the_argmax_classes(self, n):
        for mode in ("vertex", "edge"):
            for c in range(1, n // 2 + 1):
                members = list(enumerate_class(SearchSpec(n, mode, c, "M1")))
                for index, fn in (("M1", m1), ("M2", m2)):
                    values = [fn(g) for g in members]
                    best = max(values)
                    expected = {
                        canonical_form(g).decode("ascii")
                        for g, v in zip(members, values)
                        if v == best
                    }
                    report = search_max(SearchSpec(n, mode, c, index))
                    assert report.max_value == best
                    assert set(report.maximizers) == expected, (mode, c, index)
                    assert list(report.maximizers) == sorted(expected)

    def test_maximizers_are_canonical(self):
        for n in (6, 7, 8):
            for mode in ("vertex", "edge"):
                for c in range(1, n // 2 + 1):
                    for index in ("M1", "M2"):
                        for g6 in search_max(SearchSpec(n, mode, c, index)).maximizers:
                            assert canonical_form(decode_graph6(g6.encode())).decode() == g6

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_at_least_is_the_union_of_the_exact_cells(self, n):
        for mode in ("vertex", "edge"):
            for index in ("M1", "M2"):
                exact = [search_max(SearchSpec(n, mode, c, index)) for c in range(1, n // 2 + 2)]
                for c in range(1, n // 2 + 2):
                    above = exact[c - 1:]
                    union = search_max(SearchSpec(n, mode, c, index), at_least=True)
                    best = max((r.max_value for r in above if r.max_value is not None), default=None)
                    expected = {g6 for r in above if r.max_value == best for g6 in r.maximizers}
                    assert union.graphs_enumerated == sum(r.graphs_enumerated for r in above), (mode, c)
                    assert union.max_value == best, (mode, c, index)
                    assert list(union.maximizers) == sorted(expected), (mode, c, index)

    def test_workers_give_equal_reports(self):
        import zex.search as search_module

        search_module._sweep.cache_clear()
        specs = [SearchSpec(7, mode, c, index)
                 for mode in ("vertex", "edge") for c in (1, 2, 3) for index in ("M1", "M2")]
        serial = [search_max(spec).to_dict() for spec in specs]
        pooled = [search_max(spec, workers=2).to_dict() for spec in specs]
        for d in serial + pooled:
            d.pop("elapsed")
        assert serial == pooled


@cache
def _connected_spanning(p, q):
    """Labeled connected spanning subgraphs of K_{p,q}: all 2^(pq) subgraphs less those
    in which the component of vertex 0 (on the p side) has i < p or j < q vertices
    (Harary and Palmer, Graphical Enumeration, 1973)."""
    if p == 0:
        p, q = q, p
    if p == 0:
        return 0
    count = 2 ** (p * q)
    for i in range(1, p + 1):
        for j in range(q + 1):
            if (i, j) != (p, q):
                rest = 2 ** ((p - i) * (q - j))
                count -= comb(p - 1, i - 1) * comb(q, j) * _connected_spanning(i, j) * rest
    return count


def _partitions(n, largest=None):
    """The partitions of ``n`` into parts of at most ``largest``, as tuples."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def _centralizer(cycle_type):
    """z_lambda: the permutations with cycle type lambda number n! / z_lambda."""
    z = 1
    for length, run in itertools.groupby(cycle_type):
        m = len(list(run))
        z *= length**m * factorial(m)
    return z


@cache
def _bicoloured_classes(order):
    """``{(p, q): c(p, q)}`` for p + q <= ``order``: the connected bicoloured graphs
    with p vertices of the first colour and q of the second, up to isomorphism, with
    no sweep (Harary, Pacific J. Math. 1958; Harary and Palmer, Graphical Enumeration,
    1973). Burnside counts every p x q 0/1 matrix up to row and column permutations;
    a bicoloured graph is a multiset of connected ones, so the log of that series,
    then Moebius inversion, leaves the connected ones."""
    cells = [(p, q) for p in range(order + 1) for q in range(order + 1 - p)]
    types = {k: [(cycle, _centralizer(cycle)) for cycle in _partitions(k)] for k in range(order + 1)}
    every = {
        (p, q): sum(
            Fraction(2 ** sum(gcd(a, b) for a in rows for b in cols), zr * zc)
            for rows, zr in types[p]
            for cols, zc in types[q]
        )
        for p, q in cells
    }
    # (p + q) L(p, q) = (p + q) B(p, q) - sum of (i + j) L(i, j) B(p - i, q - j) over the
    # other (i, j) <= (p, q), for L = log B: apply x d/dx + y d/dy to B = exp L
    log = {(0, 0): Fraction(0)}
    for p, q in sorted(cells, key=sum)[1:]:
        rest = sum(
            (i + j) * log[i, j] * every[p - i, q - j]
            for i in range(p + 1)
            for j in range(q + 1)
            if 0 < i + j < p + q
        )
        log[p, q] = every[p, q] - Fraction(rest, p + q)
    # L(p, q) = sum over k | gcd(p, q) of c(p / k, q / k) / k
    counts = {}
    for p, q in cells[1:]:
        g = gcd(p, q)
        count = sum(_moebius(k) * log[p // k, q // k] / k for k in range(1, g + 1) if g % k == 0)
        assert count.denominator == 1, (p, q)
        counts[p, q] = int(count)
    return counts


def _moebius(k):
    """The Moebius function: 0 when a square divides ``k``, else -1 to the number of primes."""
    sign = 1
    for d in range(2, k + 1):
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            sign = -sign
    return sign


def _task_class_counts(n):
    """Classes per part size, summed over the tasks of the order-``n`` sweep, so a
    class in two tasks counts twice."""
    return Counter(p for (_, p, _), classes in sweep_classes(n).items() for _ in classes)


class TestBurnsideClassCount:
    """The classes the sweep's tasks classify against a count with no sweep."""

    def test_counts_at_orders_10_and_11(self):
        counts = _bicoloured_classes(11)
        assert [counts[p, 10 - p] for p in range(1, 6)] == [1, 20, 290, 1824, 3529]
        assert [counts[p, 11 - p] for p in range(1, 6)] == [1, 25, 510, 5375, 19687]

    @pytest.mark.parametrize("n", [*range(2, 11), pytest.param(11, marks=pytest.mark.slow)])
    def test_task_tables_hold_each_class_once(self, n):
        counts = _bicoloured_classes(n)
        assert _task_class_counts(n) == {p: counts[p, n - p] for p in range(1, n // 2 + 1)}

    def test_a_dropped_class_fails_the_count(self, monkeypatch):
        # a mutant sweep that loses one class of task (7, 2, 3) must not pass: its class
        # key maps the task's second class onto the first's, so the walk skips it as seen
        import zex.search as search_module

        key_of = search_module._class_key
        keys = []

        def merging(masks, p):
            key, aut = key_of(masks, p)
            if (len(masks), p, masks[0] >> p) == (7, 2, 3):
                if key not in keys:
                    keys.append(key)
                if keys[1:2] == [key]:
                    return keys[0], aut
            return key, aut

        monkeypatch.setattr(search_module, "_class_key", merging)
        counts = _bicoloured_classes(7)
        found = _task_class_counts(7)
        assert found != {p: counts[p, 7 - p] for p in range(1, 4)}
        assert found[2] == counts[2, 5] - 1


def _flat_orbit_size(rows):
    size = factorial(len(rows))
    for _, run in itertools.groupby(rows):
        size //= factorial(len(list(run)))
    return size


def _flat_carried(n, p, prefix):
    """Masks of the rows in ``prefix`` and of their bits in the columns, built bit by bit."""
    masks = [row << p for row in prefix] + [0] * (n - len(prefix))
    for i, row in enumerate(prefix):
        for j in range(n - p):
            if row >> j & 1:
                masks[p + j] |= 1 << i
    return masks


def _flat_chunk(n, p, lo, hi):
    """Reference for one sweep task: the flat row-sorted walk, one ``_classify`` per tuple."""
    from zex.graphs import MODES
    from zex.search import _classify

    cells = {}
    for first in range(lo, hi):
        for rest in itertools.combinations_with_replacement(range(first, 1 << (n - p)), p - 1):
            rows = (first, *rest)
            found = _classify(p, _flat_carried(n, p, rows[:-1]), rows[-1])
            if found is None:
                continue
            masks, values, _ = found
            degs = [m.bit_count() for m in masks]
            v1 = sum(d * d for d in degs)
            v2 = sum(degs[u] * degs[v] for u in range(p) for v in range(p, n) if masks[u] >> v & 1)
            for key in zip(MODES, values):
                cell = cells.setdefault(key, [0, {"M1": [-1, []], "M2": [-1, []]}])
                cell[0] += _flat_orbit_size(rows)
                for index, value in (("M1", v1), ("M2", v2)):
                    best = cell[1][index]
                    if value > best[0]:
                        best[:] = [value, []]
                    if value == best[0]:
                        best[1].append(tuple(masks))
    return cells


def _flat_merge(merged, key, count, by_index):
    """Fold one flat cell into ``merged[key]`` by max-with-tie-union: counts add, and per
    index the greater maximum wins and equal maxima join their ties."""
    cell = merged.setdefault(key, [0, {"M1": [-1, []], "M2": [-1, []]}])
    cell[0] += count
    for index, (best, ties) in by_index.items():
        mine = cell[1][index]
        if best > mine[0]:
            mine[:] = [best, []]
        if best == mine[0]:
            mine[1].extend(ties)


@cache
def _flat_sweep(n):
    """The flat walk over every first row of every part size, merged by ``_flat_merge``."""
    merged = {}
    for p in range(1, n // 2 + 1):
        for key, (count, by_index) in _flat_chunk(n, p, 1, 1 << (n - p)).items():
            _flat_merge(merged, key, count, by_index)
    return merged


def _forms(n, ties):
    """Canonical forms of the graphs given as neighbor-mask tuples."""
    return {
        canonical_form(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if masks[u] >> v & 1]))
        for masks in ties
    }


class TestSweepWalk:
    """The doubly lexical sweep against the flat row-sorted walk it replaced."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_every_task_matches_the_flat_walk(self, n):
        # every cell read from the sweep's cells against the flat walk over every task
        import zex.search as search_module

        assert any(p == 1 for _, p, _ in search_module._sweep_tasks(n))  # no row below the first
        flat = _flat_sweep(n)
        for mode in ("vertex", "edge"):
            for c in range(1, n // 2 + 2):
                count, by_index = flat.get((mode, c), (0, {}))  # an absent cell is empty
                for index in ("M1", "M2"):
                    best, ties = by_index.get(index, (None, []))
                    report = search_max(SearchSpec(n, mode, c, index))
                    assert report.graphs_enumerated == count, (mode, c)
                    assert report.max_value == best, (mode, c, index)
                    assert set(report.maximizers) == {f.decode() for f in _forms(n, ties)}, (mode, c, index)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_at_least_matches_the_flat_walk(self, n):
        # every --at-least report against the flat cells c' >= c, joined by the flat
        # walk's own tie merge: count, maximum and maximizer forms
        flat = _flat_sweep(n)
        for mode in ("vertex", "edge"):
            for c in range(1, n // 2 + 2):
                union = {}
                for above in range(c, n // 2 + 2):
                    if (mode, above) in flat:
                        _flat_merge(union, mode, *flat[mode, above])
                count, by_index = union.get(mode, (0, {}))
                for index in ("M1", "M2"):
                    best, ties = by_index.get(index, (None, []))
                    report = search_max(SearchSpec(n, mode, c, index), at_least=True)
                    assert report.graphs_enumerated == count, (mode, c)
                    assert report.max_value == best, (mode, c, index)
                    assert set(report.maximizers) == {f.decode() for f in _forms(n, ties)}, (mode, c, index)

    def test_queries_leave_the_cached_cells_unchanged(self, monkeypatch):
        # search_max folds cells into a new one, so every query, exact or --at-least,
        # leaves the cached cells as the sweep made them
        import copy

        import zex.search as search_module

        search_module._sweep.cache_clear()
        cells = search_module._sweep(8, 1)
        before = copy.deepcopy(cells)
        for mode, c, index, at_least in itertools.product(
            ("vertex", "edge"), range(1, 6), ("M1", "M2"), (False, True)
        ):
            search_max(SearchSpec(8, mode, c, index), at_least=at_least)
        assert search_module._sweep(8, 1) is cells
        assert cells == before
        # at orders 3-10 no two cells of one mode and index share a maximum, so joining
        # ties across cells is checked on two patched cells of one class each: order-7
        # graphs with kappa = 1 and 2 and M1 = 48
        tied = [Graph(7, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6)]),
                Graph(7, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 6), (2, 3), (2, 5), (2, 6)])]
        assert [(vertex_connectivity_value(g), m1(g)) for g in tied] == [(1, 48), (2, 48)]
        cells = {("vertex", c, "M1"): [1, 48, [g.neighbor_masks]] for c, g in enumerate(tied, 1)}
        before = copy.deepcopy(cells)
        monkeypatch.setattr(search_module, "_sweep", lambda n, workers: cells)
        report = search_max(SearchSpec(7, "vertex", 1, "M1"), at_least=True)
        assert report.note == "2 non-isomorphic maximizers tie"
        assert report.graphs_enumerated == 2
        assert cells == before

    def test_walk_visits_every_row_and_column_class(self, monkeypatch):
        # Lubiw: every 0/1 matrix has a doubly lexical row and column order, so every
        # class of p x q matrices with no zero row or column has a visited member
        import zex.search as search_module

        visited = set()
        decode = search_module._bipartite_masks

        def record(p, carried, row):
            masks = decode(p, carried, row)
            q = len(masks) - p
            visited.add((p, q, row_and_column_class(tuple(m >> p for m in masks[:p]), q)))
            return masks

        monkeypatch.setattr(search_module, "_bipartite_masks", record)
        for n in range(2, 8):
            for task in search_module._sweep_tasks(n):
                search_module._sweep_chunk(task)
        expected = set()
        for n in range(2, 8):
            for p in range(1, n // 2 + 1):
                q = n - p
                for rows in itertools.combinations_with_replacement(range(1, 1 << q), p):
                    if reduce(or_, rows) == (1 << q) - 1:
                        expected.add((p, q, row_and_column_class(rows, q)))
        assert len(expected) == 92  # networkx part-preserving isomorphism agrees
        assert visited == expected

    def test_automorphisms_from_the_class_key(self):
        # |Aut| = the (sigma, tau) row and column permutations with sigma M tau = M,
        # counted by brute force on every p x q matrix with no zero row or column
        from zex.search import _class_key

        checked = 0
        for p, q, rows in _matrices_without_zero_lines(7):
            col_perms = _column_tables(q)
            pairs = sum(
                all(table[rows[sigma[i]]] == rows[i] for i in range(p))
                for table in col_perms
                for sigma in itertools.permutations(range(p))
            )
            assert _class_key(_masks_of(rows, q), p)[1] == pairs, (p, rows)
            checked += 1
        assert checked == 2784  # sum over (i, j) of (-1)^(i+j) C(p,i) C(q,j) 2^((p-i)(q-j))

    def test_class_keys_are_the_row_and_column_classes(self):
        from zex.search import _class_key

        pairs = {
            ((p, q, _class_key(_masks_of(rows, q), p)[0]), (p, q, row_and_column_class(rows, q)))
            for p, q, rows in _matrices_without_zero_lines(7)
        }
        keys = {key for key, _ in pairs}
        classes = {cls for _, cls in pairs}
        assert len(classes) == 92
        assert len(keys) == len(pairs) == len(classes)  # one key per class and one class per key

    def test_class_key_is_invariant_beyond_order_7(self):
        # p = 4-5 rows, which no sweep of order <= 7 reaches: the key and |Aut| survive
        # random row and column permutations, and |Aut| = the column permutations tau
        # that fix the row multiset, times the row permutations of each repeated row
        from zex.search import _class_key

        rng = random.Random(DEFAULT_SEED)
        for p in (4, 5):
            for q in range(p, 8):
                for _ in range(3):
                    pool = [rng.randrange(1, 1 << q) for _ in range(rng.randint(1, p))]
                    rows = tuple(rng.choice(pool) for _ in range(p))
                    key, aut = _class_key(_masks_of(rows, q), p)
                    for _ in range(50):
                        sigma = rng.sample(range(p), p)
                        tau = rng.sample(range(q), q)
                        moved = tuple(
                            sum((rows[sigma[i]] >> tau[j] & 1) << j for j in range(q)) for i in range(p)
                        )
                        assert _class_key(_masks_of(moved, q), p) == (key, aut), (p, rows, moved)
                    fixed = 0
                    for table in _column_tables(q):
                        if sorted(table[row] for row in rows) == sorted(rows):
                            fixed += 1
                    for _, run in itertools.groupby(sorted(rows)):
                        fixed *= factorial(len(list(run)))
                    assert aut == fixed, (p, rows)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_tasks_cover_every_first_row_once(self, n):
        # row 0 of a doubly lexical matrix is 2^k - 1: every such row is in one task,
        # and the first rows between the tasks reach no class
        import zex.search as search_module

        tasks = search_module._sweep_tasks(n)
        for p in range(1, n // 2 + 1):
            top = 1 << (n - p)
            covered = [first for tn, tp, first in tasks if (tn, tp) == (n, p)]
            assert len(covered) == len(set(covered)), p
            assert [first for first in covered if first & (first + 1) == 0] == [
                2**k - 1 for k in range(1, n - p + 1)
            ], p
            if n < 10:
                for first in sorted(set(range(1, top)) - set(covered)):
                    assert search_module._sweep_chunk((n, p, first)) == {}, (p, first)
        assert {tp for _, tp, _ in tasks} == set(range(1, n // 2 + 1))


def _matrices_without_zero_lines(max_order):
    """``(p, q, rows)`` for every p x q matrix with p <= q, p + q <= max_order and
    no zero row or column; row ``i`` is an int whose bit ``j`` is entry ``(i, j)``."""
    for n in range(2, max_order + 1):
        for p in range(1, n // 2 + 1):
            q = n - p
            for rows in itertools.product(range(1, 1 << q), repeat=p):
                if reduce(or_, rows) == (1 << q) - 1:
                    yield p, q, rows


@cache
def _column_tables(q):
    """One table per permutation of ``q`` columns, mapping each row to the permuted row."""
    return [
        [sum((row >> j & 1) << i for i, j in enumerate(perm)) for row in range(1 << q)]
        for perm in itertools.permutations(range(q))
    ]


def _masks_of(rows, q):
    """Neighbor bitmasks of the bipartite graph with these rows, part ``len(rows)`` first."""
    p = len(rows)
    return [row << p for row in rows] + [sum((rows[i] >> j & 1) << i for i in range(p)) for j in range(q)]


class TestPoolSize:
    # (cpus, order, pool size): 4 cpus cap the 26 order-9 tasks; 64 cpus leave the
    # order-5 sweep at its 7 tasks and the order-9 sweep at its 26; ids read cpus-pool size
    @pytest.mark.parametrize(
        "cpus, n, expected",
        [(4, 9, 4), (64, 5, 7), (64, 9, 26)],
        ids=["4-4", "64-7", "64-26"],
    )
    def test_workers_bounded_by_cpus_and_tasks(self, monkeypatch, cpus, n, expected):
        import concurrent.futures
        import os

        import zex.search as search_module

        started = []

        class Recorder:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        search_module._sweep.cache_clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert len(search_module._sweep_tasks(n)) == {5: 7, 9: 26}[n]
        search_module._sweep(n, 10_000)
        assert started == [expected]

    def test_single_worker_starts_no_pool(self, monkeypatch):
        import concurrent.futures

        import zex.search as search_module

        def refuse(*args, **kwargs):
            raise AssertionError("no pool expected")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        search_module._sweep.cache_clear()
        search_module._sweep(6, 1)

    def test_negative_workers_are_rejected(self, monkeypatch, capsys):
        # _sweep rejects the count before any task runs, as the CLI rejects ZEX_THREADS=-3
        import zex.search as search_module
        from zex.cli import main

        def refuse(n):
            raise AssertionError("no sweep expected")

        monkeypatch.setattr(search_module, "_sweep_tasks", refuse)
        search_module._sweep.cache_clear()
        with pytest.raises(ValueError, match="nonnegative"):
            search_max(SearchSpec(6, "vertex", 1, "M1"), workers=-3)
        monkeypatch.setenv("ZEX_THREADS", "-3")
        assert main(["verify", "--n-min", "6", "--n-max", "6"]) == 2
        assert "ZEX_THREADS must be nonnegative" in capsys.readouterr().err

    def test_importing_the_cli_loads_no_pool(self):
        done = run_python(
            "import sys, zex.cli; "
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestSweepCache:
    def test_holds_only_the_latest_order(self, monkeypatch):
        import zex.search as search_module

        search_module._sweep.cache_clear()
        search_module._sweep(6, 1)
        records = search_module._sweep(7, 1)
        assert search_module._sweep(7, 1) is records
        assert search_module._sweep.cache_info()[:4] == (1, 2, 1, 1)  # hits, misses, max, size
        # one spelling only: a default or a keyword once made another cache key and sweep
        for call in (lambda: search_module._sweep(7), lambda: search_module._sweep(7, workers=1)):
            with pytest.raises(TypeError):
                call()
        assert search_module._sweep(7, 1) is records
        # another worker count sweeps afresh (serially here, with one CPU), not from the cache
        monkeypatch.setattr(search_module.os, "cpu_count", lambda: 1)
        again = search_module._sweep(7, 2)
        assert again is not records and again == records


class TestSweepWorkIsDoneOnce:
    def test_serial_sweep_classifies_each_class_once(self, monkeypatch):
        # each task classifies its own classes, and no class is in two tasks: the
        # classes per task sum to the class count, and their keys are all distinct
        import zex.search as search_module

        classify = search_module._connectivity
        calls = Counter()

        def counting(masks):
            calls[len(masks)] += 1
            return classify(masks)

        monkeypatch.setattr(search_module, "_connectivity", counting)
        search_module._sweep.cache_clear()
        for n in range(6, 10):
            search_module._sweep(n, 1)
        assert calls == {6: 20, 7: 44, 8: 239, 9: 730}
        monkeypatch.setattr(search_module, "_connectivity", classify)
        for n in range(6, 10):
            keys = [
                (p, search_module._class_key(masks, p)[0])
                for (_, p, _), classes in sweep_classes(n).items()
                for masks, _, _ in classes
            ]
            assert len(set(keys)) == calls[n], n
            assert len(keys) == calls[n], n

    def test_verify_canonicalizes_each_graph_once(self, monkeypatch, capsys):
        # the ties and predicted graphs of orders 6-9 are 26 distinct graphs; uncached, 112 calls
        import zex.search as search_module
        from zex.cli import main

        form = search_module.canonical_form
        seen = []

        def counting(g):
            seen.append(g.neighbor_masks)
            return form(g)

        monkeypatch.delenv("ZEX_THREADS", raising=False)
        monkeypatch.setattr(search_module, "canonical_form", counting)
        search_module._sweep.cache_clear()
        search_module._canonical.cache_clear()
        assert main(["verify", "--n-min", "6", "--n-max", "9"]) == 0
        assert capsys.readouterr().out.endswith("all_match=True\n")
        assert len(seen) == len(set(seen)) == 26

    def test_leaf_connectedness_agrees_with_reach(self, monkeypatch):
        # the components carried down the walk against a search on the leaf's masks
        import zex.search as search_module
        from zex.graphs import _reach

        decode = search_module._bipartite_masks
        connected = search_module._connected_masks
        leaves = []
        checked = Counter()

        def record(p, carried, row):
            masks = decode(p, carried, row)
            assert 0 not in masks, masks  # the walk places no empty row or column
            leaves.append(masks)
            return masks

        def compare(parts, row, columns):
            masks = leaves[-1]
            full = (1 << len(masks)) - 1
            found = connected(parts, row, columns)
            assert found == (_reach(masks, 1, full) == full), masks
            checked[len(masks), found] += 1
            return found

        monkeypatch.setattr(search_module, "_bipartite_masks", record)
        monkeypatch.setattr(search_module, "_connected_masks", compare)
        for n in range(2, 10):
            for task in search_module._sweep_tasks(n):
                search_module._sweep_chunk(task)
        assert sum(checked.values()) == len(leaves)
        # the traced orders 6-9 sweep scans 2,169 leaves and rejects 366 as disconnected
        assert sum(checked[n, found] for n in range(6, 10) for found in (True, False)) == 2169
        assert sum(checked[n, False] for n in range(6, 10)) == 366


class TestSweepTaskError:
    """A failing sweep task is named in the error; no pool is started."""

    @staticmethod
    def _break_chunks(monkeypatch):
        # a kernel the walk calls at each leaf, so the failure passes through
        # _sweep_chunk's own wrap; order 6's first task to reach a leaf is (6, 1, 31)
        import zex.search as search_module

        def broken(masks, p):
            raise ZeroDivisionError("bad row")

        monkeypatch.setattr(search_module, "_class_key", broken)
        search_module._sweep.cache_clear()
        return search_module

    def test_serial_failure_names_the_task(self, monkeypatch):
        import concurrent.futures

        search_module = self._break_chunks(monkeypatch)

        def refuse(*args, **kwargs):
            raise AssertionError("no pool expected")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        with pytest.raises(search_module.SweepTaskError) as exc:
            search_module._sweep(6, 1)
        assert str(exc.value) == (
            "sweep task (n, p, first) = (6, 1, 31) failed: ZeroDivisionError: bad row"
        )
        assert isinstance(exc.value.__cause__, ZeroDivisionError)

    def test_pooled_path_wraps_the_same_way(self, monkeypatch):
        import concurrent.futures

        search_module = self._break_chunks(monkeypatch)

        class InlinePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(search_module.os, "cpu_count", lambda: 2)
        with pytest.raises(search_module.SweepTaskError, match=r"\(6, 1, 31\)"):
            search_module._sweep(6, 2)

    def test_error_survives_pickling(self):
        import pickle

        from zex.search import SweepTaskError

        err = SweepTaskError("sweep task (n, p, first) = (6, 1, 31) failed: X: y")
        assert str(pickle.loads(pickle.dumps(err))) == str(err)

    def test_cli_exit_code_is_3(self, monkeypatch, capsys):
        from zex.cli import main

        self._break_chunks(monkeypatch)
        assert main(["verify", "--n-min", "6", "--n-max", "6"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "internal error: SweepTaskError: sweep task (n, p, first) = (6, 1, 31) failed"
        )


class TestMinimumCuts:
    def test_k23_unique_cut_is_small_side(self):
        assert minimum_vertex_cuts(complete_bipartite(2, 3)) == [frozenset({0, 1})]

    def test_no_flow_runs(self, monkeypatch):
        # so the cuts are a reference for the flow witnesses that shares no flow code
        from zex import connectivity

        def no_flow(*args):
            raise AssertionError("a flow ran")

        monkeypatch.setattr(connectivity, "_vertex_flow", no_flow)
        monkeypatch.setattr(connectivity, "_edge_flow", no_flow)
        assert minimum_vertex_cuts(complete_bipartite(2, 3)) == [frozenset({0, 1})]
        assert minimum_vertex_cuts(C6) == sorted(
            (frozenset(pair) for pair in itertools.combinations(range(6), 2)
             if (pair[1] - pair[0]) % 6 not in (1, 5)),
            key=sorted,
        )
        assert len(minimum_vertex_cuts(build_family(FamilyParams(8, 2, 3)))) == 1
        assert minimum_vertex_cuts(complete_bipartite(3, 3)) == [frozenset({0, 1, 2}),
                                                                 frozenset({3, 4, 5})]
        assert has_straddling_min_cut(C6, bipartition_of(C6)) is True
        g = build_family(FamilyParams(8, 2, 3))
        assert has_straddling_min_cut(g, bipartition_of(g)) is False

    def test_complete_graph_has_none(self):
        g = Graph(4, list(itertools.combinations(range(4), 2)))
        assert minimum_vertex_cuts(g) == []

    def test_disconnected_graph_has_none(self):
        assert minimum_vertex_cuts(Graph(4, [(0, 1), (2, 3)])) == []


class TestStraddlingCut:
    def test_family_6_1_2(self):
        g = build_family(FamilyParams(6, 1, 2))
        assert has_straddling_min_cut(g, bipartition_of(g)) is False

    def test_six_cycle(self):
        assert has_straddling_min_cut(C6, bipartition_of(C6)) is True

    def test_k23(self):
        g = complete_bipartite(2, 3)
        assert has_straddling_min_cut(g, bipartition_of(g)) is False
        assert has_straddling_min_cut(g, Bipartition(frozenset({0, 1}), frozenset({2, 3, 4}))) is False
        assert has_straddling_min_cut(g, Bipartition(frozenset({2, 3, 4}), frozenset({0, 1}))) is False

    @pytest.mark.parametrize("x, y", [
        ({0, 2}, {1, 3, 4}),  # edge 0-2 lies inside X
        ({0, 1}, {2, 3}),  # vertex 4 is in neither class
        ({0, 1, 2}, {2, 3, 4}),  # vertex 2 is in both
    ])
    def test_rejects_a_wrong_bipartition(self, x, y):
        g = complete_bipartite(2, 3)
        with pytest.raises(ValueError, match="not a bipartition"):
            has_straddling_min_cut(g, Bipartition(frozenset(x), frozenset(y)))

    def test_requires_connected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            has_straddling_min_cut(g, bipartition_of(g))


class TestCutComponentProfile:
    def test_family_7_1_3_hub_cut(self):
        g = build_family(FamilyParams(7, 1, 3))
        assert cut_component_profile(g, frozenset({1})) == [1, 5]

    def test_k23_small_side(self):
        assert cut_component_profile(complete_bipartite(2, 3), frozenset({0, 1})) == [1, 1, 1]

    def test_path_middle_vertex(self):
        assert cut_component_profile(P4, frozenset({1})) == [1, 2]

    def test_large_star(self):
        # one component per leaf: members are read off set bits, not a scan of all n labels
        done = run_python(
            "from zex import complete_bipartite, cut_component_profile;"
            "print(cut_component_profile(complete_bipartite(1, 50000), frozenset({0})) == [1] * 50000)"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "True"

    def test_rejects_non_cut(self):
        with pytest.raises(ValueError, match="does not disconnect"):
            cut_component_profile(P4, frozenset({0}))

    def test_rejects_disconnected_graph(self):
        with pytest.raises(ValueError, match="connected"):
            cut_component_profile(Graph(4, [(0, 1), (2, 3)]), frozenset({0}))

    @pytest.mark.parametrize("bad", [99, -1])
    def test_rejects_vertices_outside_the_graph(self, bad):
        # once dropped, so {1, 99} and {1, -1} each read as a cut of the path
        with pytest.raises(ValueError, match=f"vertex {bad} out of range for n=4"):
            cut_component_profile(P4, frozenset({1, bad}))


class TestCanonicalForm:
    def test_path_relabelings_agree(self):
        other = Graph(4, [(2, 0), (0, 3), (3, 1)])  # P4 with scrambled labels
        assert canonical_form(P4) == canonical_form(other)

    def test_path_and_star_differ(self):
        assert canonical_form(P4) != canonical_form(complete_bipartite(1, 3))

    def test_all_four_cycle_relabelings_collapse(self):
        forms = set()
        for perm in itertools.permutations(range(4)):
            g = Graph(4, [(perm[0], perm[1]), (perm[1], perm[2]), (perm[2], perm[3]), (perm[3], perm[0])])
            forms.add(canonical_form(g))
        assert len(forms) == 1

    def test_output_decodes_to_isomorphic_graph(self):
        g = build_family(FamilyParams(8, 2, 3))
        assert canonical_form(decode_graph6(canonical_form(g))) == canonical_form(g)

    def test_invariant_under_random_relabelings(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(10_000):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(g.relabeled(perm))

    def test_rejects_large_order(self):
        with pytest.raises(ValueError, match="n <= 16"):
            canonical_form(Graph(17))
