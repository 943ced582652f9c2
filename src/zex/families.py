"""Complete bipartite graphs and the candidate extremal family, as class tables.

Each graph built here is given by a class table: ``counts``, the class
sizes in label order, and ``joins``, the pairs of class indices that are
joined.  A class is an independent set of consecutive labels, and a join
makes its two classes complete to each other.  ``_blowup`` builds the
graph of a table; ``_blowup_indices`` reads both indices off the table,
since a vertex's degree is the total size of the classes joined to its own.

K_{p,q} is the table ``(p, q)`` with one join.  The family member
``build_family(FamilyParams(n, k, r))`` is the chain v - C - A - B with
sizes ``(1, k, n - r - 1, r - k)``, so ``d(v) = k``, ``d(c) = n - r``,
``d(a) = r`` and ``d(b) = n - r - 1``; when ``r = k``, ``B`` is empty and
the member is K_{k,n-k}.  ``predicted_extremal`` returns the member
conjectured (and verified by exhaustive search at small order) to maximize
both indices among bipartite graphs of its order and exact vertex (or
edge) connectivity.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Sequence

from .graphs import MODES, Graph

__all__ = [
    "FamilyParams",
    "complete_bipartite",
    "build_family",
    "family_m1",
    "family_m2",
    "predicted_extremal",
]

# the least order with a predicted maximizer and both rewirings, so the least order verified
MIN_FAMILY_ORDER = 6


class FamilyParams(NamedTuple("FamilyParams", [("n", int), ("k", int), ("r", int)])):
    """Parameters ``(n, k, r)`` with ``1 <= k <= r <= n - 2``.

    ``n`` is the total order, ``k`` the connectivity parameter (size of
    the independent set ``C``), and ``r`` controls the split of the
    remaining vertices: the complete bipartite core has parts of sizes
    ``n - r - 1`` and ``r - k``.
    """

    __slots__ = ()

    # a NamedTuple body cannot override __new__, so the checks live in this subclass
    def __new__(cls, n: int, k: int, r: int):
        if k < 1:
            raise ValueError("k must be at least 1")
        if r < k:
            raise ValueError(f"r={r} must be at least k={k}")
        if r > n - 2:
            raise ValueError(f"r={r} must be at most n-2={n - 2}")
        return super().__new__(cls, n, k, r)

    @property
    def a_count(self) -> int:
        """Size of the larger core part A (always at least 1)."""
        return self.n - self.r - 1

    @property
    def b_count(self) -> int:
        """Size of the smaller core part B (empty when r = k)."""
        return self.r - self.k


def _blowup(counts: Sequence[int], joins: Sequence[tuple[int, int]]) -> Graph:
    """The graph of a class table: independent classes of ``counts`` vertices on
    consecutive labels, in class order, and each pair of classes in ``joins``
    joined completely."""
    labels = [range(end - size, end) for size, end in zip(counts, accumulate(counts))]
    return Graph(sum(counts), [(u, v) for i, j in joins for u in labels[i] for v in labels[j]])


def _blowup_indices(counts: Sequence[int], joins: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """``(M1, M2)`` of ``_blowup(counts, joins)``, without building it: a class's
    degree is the total size of the classes joined to it."""
    degrees = [0] * len(counts)
    for i, j in joins:
        degrees[i] += counts[j]
        degrees[j] += counts[i]
    first = sum(size * d * d for size, d in zip(counts, degrees))
    second = sum(counts[i] * counts[j] * degrees[i] * degrees[j] for i, j in joins)
    return first, second


def _family_table(p: FamilyParams) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The class table of ``build_family(p)``: the chain v - C - A - B."""
    return (1, p.k, p.a_count, p.b_count), ((0, 1), (1, 2), (2, 3))


def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q} on labels ``0..p-1`` and ``p..p+q-1``; K_{p,0} is p isolated vertices."""
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("complete_bipartite requires p, q >= 0 and p + q >= 1")
    return _blowup((p, q), ((0, 1),))


def build_family(p: FamilyParams) -> Graph:
    """Construct the family graph, its classes v, C, A and B on consecutive labels."""
    return _blowup(*_family_table(p))


def family_m1(p: FamilyParams) -> int:
    """The first index of the family member, evaluated on its class table."""
    return _blowup_indices(*_family_table(p))[0]


def family_m2(p: FamilyParams) -> int:
    """The second index of the family member, evaluated on its class table."""
    return _blowup_indices(*_family_table(p))[1]


def predicted_extremal(n: int, c: int, mode: str = "vertex") -> Graph:
    """The predicted index maximizer among bipartite graphs of order ``n`` with
    vertex (or edge) connectivity exactly ``c``: K_{n/2,n/2} when ``c = n/2``,
    otherwise the family member with ``r = (n - 1) // 2``."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if n < MIN_FAMILY_ORDER:
        raise ValueError(f"predicted maximizers are defined for n >= {MIN_FAMILY_ORDER}")
    if c < 1 or c > n // 2:
        raise ValueError(f"no bipartite graph of order {n} has connectivity {c}")
    if c > (n - 1) // 2:
        return complete_bipartite(n // 2, n // 2)
    return build_family(FamilyParams(n, c, (n - 1) // 2))
