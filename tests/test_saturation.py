"""The two saturation lemmas behind the structural oracles, checked on every
class of the sweep.

Vertex mode.  Take a connected bipartite G with kappa = c, its lex-min vertex
witness S, the first component L of G - S and the rest R.  Adding every
cross-colour edge inside S + L and inside S + R leaves S a cut, and adding
edges never lowers kappa, so kappa stays c; both indices rise strictly
unless no edge was added.

Edge mode.  The lex-min edge witness F, a minimum edge cut of a connected
graph, leaves exactly two components L and R.  Making each of them complete
bipartite leaves F a cut, so lambda stays |F|, and neither index falls.

Each check has a mutant that breaks the lemma's premise, and the mutant must
fail at every order: joining L to R in vertex mode removes the cut S, and
one more L-R edge in edge mode crosses F.  The checks also run both witness
greedies on every class and compare their values with the sweep's.
"""

from functools import lru_cache

import pytest

from conftest import sweep_classes
from zex import (
    Graph,
    bipartition_of,
    connected_components,
    edge_connectivity,
    edge_connectivity_value,
    m1,
    m2,
    vertex_connectivity,
    vertex_connectivity_value,
)


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple:
    """One ``(graph, (kappa, lambda), (M1, M2))`` per connected bipartite class of
    order ``n``, as the sweep's tasks classify them at any order."""
    return tuple(
        (Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if masks[u] >> v & 1]),
         connectivity, values)
        for classes in sweep_classes(n).values()
        for masks, connectivity, values in classes
    )


def _cross_pairs(g: Graph, parts) -> list[tuple[int, int]]:
    """The cross-colour non-edges of ``g`` inside any of ``parts``, each once."""
    colours = bipartition_of(g)
    return sorted({
        (min(u, v), max(u, v))
        for part in parts
        for u in part if u in colours.X
        for v in part if v in colours.Y and not g.has_edge(u, v)
    })


def _vertex_failures(n: int, join_sides: bool = False) -> list[Graph]:
    failures = []
    for g, (kappa, _), (v1, v2) in _classes(n):
        c, witness = vertex_connectivity(g)
        assert c == kappa, g
        cut = set(witness.members)
        left, *rest = connected_components(g, frozenset(cut))
        right = [v for comp in rest for v in comp]
        parts = [cut | set(left) | set(right)] if join_sides else [cut | set(left), cut | set(right)]
        added = _cross_pairs(g, parts)
        h = g.with_edges_changed(added=added)
        rose = m1(h) > v1 and m2(h) > v2
        if vertex_connectivity_value(h) != c or not (rose or not added):
            failures.append(g)
    return failures


def _edge_failures(n: int, one_crossing: bool = False) -> list[Graph]:
    failures = []
    for g, (_, lam), (v1, v2) in _classes(n):
        s, witness = edge_connectivity(g)
        assert s == lam, g
        sides = connected_components(g.with_edges_changed(removed=witness.members))
        if len(sides) != 2:
            failures.append(g)
            continue
        added = _cross_pairs(g, sides)
        if one_crossing:
            left = set(sides[0])
            added += [e for e in _cross_pairs(g, [range(n)]) if (e[0] in left) != (e[1] in left)][:1]
        h = g.with_edges_changed(added=added)
        if edge_connectivity_value(h) != s or m1(h) < v1 or m2(h) < v2:
            failures.append(g)
    return failures


@pytest.mark.parametrize("n", range(4, 10))
def test_vertex_saturation_keeps_kappa_and_raises_both_indices(n):
    assert _vertex_failures(n) == []


@pytest.mark.parametrize("n", range(4, 10))
def test_edge_saturation_keeps_lambda_and_lowers_no_index(n):
    assert _edge_failures(n) == []


@pytest.mark.parametrize("n", range(4, 10))
def test_mutated_saturations_fail(n):
    assert _vertex_failures(n, join_sides=True)
    assert _edge_failures(n, one_crossing=True)


@pytest.mark.slow
@pytest.mark.parametrize("n", [10, 11])
def test_saturation_lemmas_at_orders_10_and_11(n):
    assert _vertex_failures(n) == []
    assert _edge_failures(n) == []
