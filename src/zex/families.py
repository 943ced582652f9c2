"""Builders for complete bipartite graphs and the candidate extremal family.

The parametric family ``build_family(FamilyParams(n, k, r))`` is the
n-vertex bipartite graph assembled from

* a distinguished vertex ``v``,
* an independent set ``C`` of ``k`` vertices, each adjacent to ``v``,
* a complete bipartite graph between a set ``A`` of ``n - r - 1``
  vertices and a set ``B`` of ``r - k`` vertices,

with every vertex of ``C`` additionally adjacent to every vertex of
``A``.  The degree profile is ``d(v) = k``, ``d(c) = n - r``,
``d(a) = r`` and ``d(b) = n - r - 1``.  When ``r = k`` the set ``B`` is
empty and the family degenerates to the complete bipartite K_{k,n-k}.

``predicted_extremal`` returns, for each order and connectivity value,
the family member conjectured (and verified by exhaustive search at small
order) to maximize both degree-power indices among bipartite graphs of
that order and exact vertex (or edge) connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .connectivity import MODES
from .graphs import Graph

__all__ = [
    "FamilyParams",
    "VertexLayout",
    "layout_of",
    "complete_bipartite",
    "build_family",
    "family_m1",
    "family_m2",
    "predicted_extremal",
]


@dataclass(frozen=True)
class FamilyParams:
    """Parameters ``(n, k, r)`` with ``1 <= k <= r <= n - 2``.

    ``n`` is the total order, ``k`` the connectivity parameter (size of
    the independent set ``C``), and ``r`` controls the split of the
    remaining vertices: the complete bipartite core has parts of sizes
    ``n - r - 1`` and ``r - k``.
    """

    n: int
    k: int
    r: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.r < self.k:
            raise ValueError(f"r={self.r} must be at least k={self.k}")
        if self.r > self.n - 2:
            raise ValueError(f"r={self.r} must be at most n-2={self.n - 2}")

    @property
    def a_count(self) -> int:
        """Size of the larger core part A (always at least 1)."""
        return self.n - self.r - 1

    @property
    def b_count(self) -> int:
        """Size of the smaller core part B (empty when r = k)."""
        return self.r - self.k


@dataclass(frozen=True)
class VertexLayout:
    """Fixed vertex labels of a family graph, for reproducible encodings.

    ``v`` is label 0, ``c_vertices`` are ``1..k``, ``a_vertices`` the
    first ``n - r - 2`` core-A labels, ``a_last`` the final core-A label
    and ``b_vertices`` the remaining ``r - k`` labels.
    """

    v: int
    c_vertices: tuple[int, ...]
    a_vertices: tuple[int, ...]
    a_last: int
    b_vertices: tuple[int, ...]

    @property
    def a_all(self) -> tuple[int, ...]:
        return self.a_vertices + (self.a_last,)


def layout_of(p: FamilyParams) -> VertexLayout:
    """The canonical label assignment for ``build_family(p)``."""
    k, a = p.k, p.a_count
    return VertexLayout(
        v=0,
        c_vertices=tuple(range(1, k + 1)),
        a_vertices=tuple(range(k + 1, k + a)),
        a_last=k + a,
        b_vertices=tuple(range(k + a + 1, p.n)),
    )


def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q} on labels ``0..p-1`` and ``p..p+q-1``; K_{p,0} is p isolated vertices."""
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("complete_bipartite requires p, q >= 0 and p + q >= 1")
    return Graph(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def build_family(p: FamilyParams) -> Graph:
    """Construct the family graph on the canonical ``VertexLayout`` labels."""
    lay = layout_of(p)
    edges = [(lay.v, c) for c in lay.c_vertices]
    edges += [(c, a) for c in lay.c_vertices for a in lay.a_all]
    edges += [(a, b) for a in lay.a_all for b in lay.b_vertices]
    return Graph(p.n, edges)


def family_m1(p: FamilyParams) -> int:
    """Closed form of the first index on the family's degree profile."""
    n, k, r = p.n, p.k, p.r
    return k * k + k * (n - r) ** 2 + (n - r - 1) * r * r + (r - k) * (n - r - 1) ** 2


def family_m2(p: FamilyParams) -> int:
    """Closed form of the second index, summed over the three edge groups."""
    n, k, r = p.n, p.k, p.r
    return (
        k * k * (n - r)
        + k * r * (n - r) * (n - r - 1)
        + r * (r - k) * (n - r - 1) ** 2
    )


def predicted_extremal(n: int, c: int, mode: str = "vertex") -> Graph:
    """The predicted index maximizer among bipartite graphs of order ``n``
    with vertex (or edge) connectivity exactly ``c``.

    For odd ``n`` this is the family member whose core-A part has size
    ``(n - 1) / 2``; for even ``n`` it is K_{n/2,n/2} when ``c = n/2`` and
    otherwise the member with core-A size ``n / 2``.  The same rule covers
    both connectivity modes.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if n < 6:
        raise ValueError("predicted maximizers are defined for n >= 6")
    if c < 1 or c > n // 2:
        raise ValueError(f"no bipartite graph of order {n} has connectivity {c}")
    if n % 2 == 1:
        # c <= n // 2 == (n - 1) / 2 always holds here
        return build_family(FamilyParams(n, c, (n - 1) // 2))
    if c == n // 2:
        return complete_bipartite(n // 2, n // 2)
    return build_family(FamilyParams(n, c, (n - 2) // 2))
