"""Graph rewrites with checkable index-monotonicity contracts.

Every rewrite returns a fresh graph, leaving the pre-image intact so the
caller can compare index values on both sides.

``add_edge`` strictly increases both degree-power indices on any graph
(degrees only rise).  ``shift_neighbors`` moves a set of neighbors from a
vertex ``v`` to a non-adjacent vertex ``u``: with ``d(u) >= d(v)`` the
first index strictly increases for any valid move set, and both indices
strictly increase when the move set is all of ``N(v) \\ N(u)`` (moving a
proper subset can decrease the second index; see the test suite for a
concrete example).

``case1_rewire`` and ``case2_rewire`` are the two family-specific
rewirings: re-attaching the last core-A vertex to the rest of core A
(applicable when ``2r <= n - 4``), and re-attaching the distinguished
vertex from ``C`` to core A (applicable when ``2r > n``).  Both strictly
increase the indices; the second does so by the exact amounts
``k(2 + 4r - 2n)`` and ``(2r - n + 1) k^2``.  Each is built from its own
class table, as the family is (see ``zex.families``), on the family's
labels.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _NAMES
from .families import MIN_FAMILY_ORDER, FamilyParams, _blowup
from .graphs import Graph

__all__ = list(_NAMES["transforms"])


class ShiftSpec(NamedTuple):
    """A neighbor move: detach ``moved`` from ``v`` and attach them to ``u``.

    Valid against a graph when ``u != v``, ``u`` is not adjacent to ``v``,
    and ``moved`` is a nonempty subset of ``N(v)`` disjoint from
    ``N(u) ∪ {u}``.
    """

    u: int
    v: int
    moved: frozenset[int]


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Return the graph with the new edge ``uv``; both indices strictly increase."""
    if u == v:
        raise ValueError("cannot add a loop")
    if g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) already present")
    return g.with_edges_changed(added=[(u, v)])


def _check_shift(g: Graph, spec: ShiftSpec) -> None:
    # clauses checked in order; the first violated one is reported
    if spec.u == spec.v:
        raise ValueError("shift requires u != v")
    if g.has_edge(spec.u, spec.v):
        raise ValueError("shift requires u not adjacent to v")
    if not spec.moved:
        raise ValueError("moved set must be nonempty")
    not_nbr_v = [w for w in sorted(spec.moved) if not g.has_edge(spec.v, w)]
    if not_nbr_v:  # u is among them when moved, since u is not adjacent to v
        raise ValueError(f"moved vertices {not_nbr_v} are not neighbors of v={spec.v}")
    common = [w for w in sorted(spec.moved) if g.has_edge(spec.u, w)]
    if common:
        raise ValueError(f"moved vertices {common} are already neighbors of u={spec.u}")


def shift_neighbors(g: Graph, spec: ShiftSpec) -> Graph:
    """Apply a neighbor move, validating the spec against ``g`` first.

    The result may leave ``v`` isolated when all of its neighbors move;
    that is a legal output.
    """
    _check_shift(g, spec)
    moved = sorted(spec.moved)
    return g.with_edges_changed(
        removed=[(spec.v, w) for w in moved],
        added=[(spec.u, w) for w in moved],
    )


def case1_rewire(p: FamilyParams) -> Graph:
    """Detach the last core-A vertex from ``C ∪ B`` and attach it to the rest of core A.

    Requires ``n >= 6`` and ``2r <= n - 4`` (so at least one other core-A
    vertex exists and both indices strictly increase).
    """
    if p.n < MIN_FAMILY_ORDER:
        raise ValueError(f"case 1 rewiring requires n >= {MIN_FAMILY_ORDER}")
    if 2 * p.r > p.n - 4:
        raise ValueError(f"case 1 rewiring requires 2r <= n - 4, got r={p.r}, n={p.n}")
    # classes v, C, A' (core A less its last vertex), a_last, B; a_last is joined to A' alone
    return _blowup((1, p.k, p.a_count - 1, 1, p.b_count), ((0, 1), (1, 2), (2, 3), (2, 4)))


def case2_rewire(p: FamilyParams) -> Graph:
    """Move the distinguished vertex's attachment from ``C`` to the first ``k``
    core-A vertices.

    Requires ``n >= 6``, ``2r > n`` and ``n - r - 1 >= k`` (enough core-A
    vertices).  The first index increases by exactly ``k(2 + 4r - 2n)``
    and the second by ``(2r - n + 1) k^2``.
    """
    if p.n < MIN_FAMILY_ORDER:
        raise ValueError(f"case 2 rewiring requires n >= {MIN_FAMILY_ORDER}")
    if 2 * p.r <= p.n:
        raise ValueError(f"case 2 rewiring requires 2r > n, got r={p.r}, n={p.n}")
    if p.a_count < p.k:
        raise ValueError(
            f"case 2 rewiring requires n - r - 1 >= k, got {p.a_count} < {p.k}"
        )
    # classes v, C, A1 (the first k core-A vertices), A2 (the rest), B; v is joined to A1 alone
    return _blowup(
        (1, p.k, p.k, p.a_count - p.k, p.b_count), ((0, 2), (1, 2), (1, 3), (2, 4), (3, 4))
    )
