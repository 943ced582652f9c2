"""Exhaustive search over bipartite graphs with prescribed connectivity.

``enumerate_class`` yields the class of order-``n`` bipartite graphs
with vertex (or edge) connectivity exactly ``c`` as labeled graphs: for
each part size ``p`` from 1 to ``n // 2`` it tries all ``2^(p(n-p))``
cross-part adjacency masks and filters on the exact connectivity value.
Every isomorphism class with both parts nonempty is hit at least once.

The sweep behind ``search_max`` walks the same space up to row
permutations.  A mask is a tuple of ``p`` rows (the neighborhoods of
vertices ``0..p-1`` in the other part), and permuting rows gives an
isomorphic graph, so only tuples of nonzero, nondecreasing rows are
visited.  Each one stands for its orbit of ``p! / prod(multiplicity!)``
labeled masks and is counted with that weight, so class sizes
(``graphs_enumerated``), maxima and maximizer classes are exactly those
of the labeled enumeration.  Maximizers are kept as raw neighbor masks
and only the final ties are canonicalized; each is reported as the
graph6 of its canonical form, sorted.

One sweep per order is cached and shared by all (mode, value, index)
cells.  It is split into tasks ``(n, p, lo, hi)``, each a range of
first-row values, that worker processes can run independently; results
are merged by an associative max-with-tie-union, so reports do not
depend on the worker count.

Also here: subset-enumeration brute-force connectivity (the independent
cross-check for the flow-based module), minimum-cut predicates, and a
label-invariant canonical form used to deduplicate maximizers.

Scale caps: full sweeps support ``n <= 10``; the canonical form supports
``n <= 16``.  A serial order-10 sweep takes tens of seconds.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, groupby
from math import comb, factorial
from typing import Iterator, Optional

from .connectivity import edge_connectivity_value, vertex_connectivity_value
from .families import predicted_extremal
from .graphs import (
    Bipartition,
    Graph,
    connected_components,
    encode_graph6,
    is_connected,
    m1,
    m2,
)

__all__ = [
    "SearchSpec",
    "SearchReport",
    "enumerate_class",
    "search_max",
    "brute_force_vertex_connectivity",
    "brute_force_edge_connectivity",
    "minimum_vertex_cuts",
    "has_straddling_min_cut",
    "cut_component_profile",
    "canonical_form",
]

MAX_SWEEP_ORDER = 10
MAX_CANONICAL_ORDER = 16

_MODES = ("vertex", "edge")
_INDICES = ("M1", "M2")


@dataclass(frozen=True)
class SearchSpec:
    """A search cell: order, connectivity mode and value, objective index.

    ``c`` values above ``n // 2`` are not rejected; they simply define an
    empty class (no bipartite graph of order ``n`` can reach them).
    """

    n: int
    mode: str
    c: int
    index: str

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("search requires n >= 2")
        if self.c < 1:
            raise ValueError("search requires c >= 1")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.index not in _INDICES:
            raise ValueError(f"index must be one of {_INDICES}, got {self.index!r}")


@dataclass
class SearchReport:
    """Outcome of maximizing one index over one connectivity class."""

    spec: SearchSpec
    max_value: Optional[int]
    maximizers: tuple[str, ...]  # graph6, deduplicated up to isomorphism
    predicted_graph: Optional[str]
    predicted_value: Optional[int]
    matches: bool
    graphs_enumerated: int
    elapsed: float
    note: Optional[str] = None

    def to_dict(self) -> dict:
        d = {
            "spec": {
                "n": self.spec.n,
                "mode": self.spec.mode,
                "c": self.spec.c,
                "index": self.spec.index,
            },
            "max_value": self.max_value,
            "maximizers": list(self.maximizers),
            "predicted_graph": self.predicted_graph,
            "predicted_value": self.predicted_value,
            "matches": self.matches,
            "graphs_enumerated": self.graphs_enumerated,
            "elapsed": self.elapsed,
        }
        if self.note is not None:
            d["note"] = self.note
        return d


# -- bitmask primitives -------------------------------------------------------

def _reach_masks(masks: list[int], start: int, alive: int) -> int:
    seen = start
    frontier = start
    while frontier:
        nxt = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nxt |= masks[v]
        frontier = nxt & alive & ~seen
        seen |= frontier
    return seen


def _connected_masks(masks: list[int], full: int) -> bool:
    return _reach_masks(masks, full & -full, full) == full


def _kappa_masks(masks: list[int], n: int) -> int:
    """Exact vertex connectivity of a connected graph given as bitmasks."""
    full = (1 << n) - 1
    delta = min(m.bit_count() for m in masks)
    if delta == n - 1:  # complete graph
        return n - 1
    for j in range(1, delta):
        for combo in combinations(range(n), j):
            removed = 0
            for v in combo:
                removed |= 1 << v
            alive = full & ~removed
            if _reach_masks(masks, alive & -alive, alive) != alive:
                return j
    return delta


def _kappa_prime_masks(masks: list[int], n: int) -> int:
    """Exact edge connectivity of a connected graph: minimum edge boundary
    over all proper vertex subsets containing vertex 0."""
    full = (1 << n) - 1
    best = min(m.bit_count() for m in masks)
    for w in range(1, full, 2):  # subsets with vertex 0, excluding the full set
        boundary = 0
        outside = ~w
        m = w
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            boundary += (masks[v] & outside).bit_count()
            if boundary >= best:
                break
        else:
            best = boundary
            if best == 1:
                break
    return best


def _bipartite_masks(n: int, p: int, rows: tuple[int, ...]) -> Optional[list[int]]:
    """Neighbor bitmasks for the cross-part rows (row ``i`` is the ``q``-bit
    neighborhood of vertex ``i`` in part ``p..n-1``), or None when some
    vertex is isolated (such graphs never reach connectivity >= 1)."""
    q = n - p
    cols = 0
    for row in rows:
        if row == 0:
            return None
        cols |= row
    if cols != (1 << q) - 1:
        return None
    masks = [row << p for row in rows]
    for j in range(q):
        col = 0
        for i, row in enumerate(rows):
            col |= (row >> j & 1) << i
        masks.append(col)
    return masks


def _masks_to_graph(masks: list[int], n: int) -> Graph:
    return Graph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if masks[u] >> v & 1
        ],
    )


# -- brute-force connectivity (independent oracle route) ----------------------

def brute_force_vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity by enumerating vertex subsets in increasing size."""
    if g.n < 1:
        raise ValueError("connectivity requires at least one vertex")
    if not is_connected(g):
        return 0
    masks = list(g.neighbor_masks)
    full = (1 << g.n) - 1
    for j in range(1, g.n - 1):
        for combo in combinations(range(g.n), j):
            removed = 0
            for v in combo:
                removed |= 1 << v
            alive = full & ~removed
            if _reach_masks(masks, alive & -alive, alive) != alive:
                return j
    return g.n - 1


def brute_force_edge_connectivity(g: Graph) -> int:
    """Edge connectivity by enumerating edge subsets in increasing size."""
    if g.n < 1:
        raise ValueError("connectivity requires at least one vertex")
    if g.n == 1:
        return 0
    if not is_connected(g):
        return 0
    edges = g.edges()
    full = (1 << g.n) - 1
    base = list(g.neighbor_masks)
    for j in range(1, len(edges) + 1):
        for combo in combinations(edges, j):
            masks = base[:]
            for u, v in combo:
                masks[u] &= ~(1 << v)
                masks[v] &= ~(1 << u)
            if _reach_masks(masks, 1, full) != full:
                return j
    raise AssertionError("unreachable: removing all edges disconnects any n >= 2 graph")


# -- enumeration and extremal search ------------------------------------------

def _check_sweep_order(n: int) -> None:
    if n > MAX_SWEEP_ORDER:
        raise ValueError(f"full sweeps support n <= {MAX_SWEEP_ORDER}, got {n}")


def enumerate_class(spec: SearchSpec) -> Iterator[Graph]:
    """Yield every enumerated labeled bipartite graph of order ``spec.n``
    whose connectivity (in ``spec.mode``) equals ``spec.c``.

    Parts are the label ranges ``0..p-1`` and ``p..n-1`` for each part
    size ``p``; a connected bipartite graph appears exactly once per
    valid contiguous representation.
    """
    _check_sweep_order(spec.n)
    n, c = spec.n, spec.c
    vertex_mode = spec.mode == "vertex"
    full = (1 << n) - 1
    for p in range(1, n // 2 + 1):
        q = n - p
        row_all = (1 << q) - 1
        for mask in range(1 << (p * q)):
            rows = tuple(mask >> (i * q) & row_all for i in range(p))
            masks = _bipartite_masks(n, p, rows)
            if masks is None or not _connected_masks(masks, full):
                continue
            value = _kappa_masks(masks, n) if vertex_mode else _kappa_prime_masks(masks, n)
            if value == c:
                yield _masks_to_graph(masks, n)


@dataclass
class _IndexMax:
    best: int = -1
    ties: list[tuple[int, ...]] = field(default_factory=list)  # neighbor masks of current maximizers

    def offer(self, value: int, masks: tuple[int, ...]) -> None:
        if value > self.best:
            self.best = value
            self.ties = [masks]
        elif value == self.best:
            self.ties.append(masks)

    def merge(self, other: "_IndexMax") -> None:
        if other.best > self.best:
            self.best = other.best
            self.ties = list(other.ties)
        elif other.best == self.best:
            self.ties.extend(other.ties)


@dataclass
class _Cell:
    count: int = 0
    by_index: dict = field(default_factory=lambda: {"M1": _IndexMax(), "M2": _IndexMax()})

    def merge(self, other: "_Cell") -> None:
        self.count += other.count
        for idx in _INDICES:
            self.by_index[idx].merge(other.by_index[idx])


def _orbit_size(rows: tuple[int, ...]) -> int:
    """Number of distinct orderings of a nondecreasing row tuple:
    ``p! / prod(multiplicity!)``."""
    size = factorial(len(rows))
    for _, run in groupby(rows):
        size //= factorial(sum(1 for _ in run))
    return size


def _sweep_chunk(args: tuple[int, int, int, int]) -> dict:
    """Visit the row-sorted masks of part size ``p`` whose first row lies in
    ``lo..hi-1``; returns per-(mode, c) cells weighted by orbit size."""
    n, p, lo, hi = args
    full = (1 << n) - 1
    top = 1 << (n - p)
    cells: dict[tuple[str, int], _Cell] = {}
    for first in range(lo, hi):
        for rest in combinations_with_replacement(range(first, top), p - 1):
            rows = (first, *rest)
            masks = _bipartite_masks(n, p, rows)
            if masks is None or not _connected_masks(masks, full):
                continue
            kappa = _kappa_masks(masks, n)
            degs = [m.bit_count() for m in masks]
            delta = min(degs)
            kappa_p = delta if kappa == delta else _kappa_prime_masks(masks, n)
            v1 = sum(d * d for d in degs)
            v2 = 0
            for u in range(p):
                mu = masks[u]
                du = degs[u]
                while mu:
                    v = (mu & -mu).bit_length() - 1
                    mu &= mu - 1
                    v2 += du * degs[v]
            weight = _orbit_size(rows)
            key = tuple(masks)
            for mode, value in (("vertex", kappa), ("edge", kappa_p)):
                cell = cells.get((mode, value))
                if cell is None:
                    cell = cells[(mode, value)] = _Cell()
                cell.count += weight
                cell.by_index["M1"].offer(v1, key)
                cell.by_index["M2"].offer(v2, key)
    return cells


def _merge_cells(parts: list[dict]) -> dict:
    merged: dict[tuple[str, int], _Cell] = {}
    for part in parts:
        for key, cell in part.items():
            if key in merged:
                merged[key].merge(cell)
            else:
                merged[key] = cell
    return merged


_sweep_cache: dict[int, dict] = {}
_CHUNK_BITS = 12


def _sweep_tasks(n: int) -> list[tuple[int, int, int, int]]:
    """Split the row-sorted masks of order ``n`` into ``(n, p, lo, hi)``
    first-row ranges of about ``2**_CHUNK_BITS`` masks each."""
    tasks = []
    for p in range(1, n // 2 + 1):
        top = 1 << (n - p)
        lo = 1
        size = 0
        for first in range(1, top):
            # row-sorted masks whose first row is ``first``
            size += comb(top - first + p - 2, p - 1)
            if size >= 1 << _CHUNK_BITS or first == top - 1:
                tasks.append((n, p, lo, first + 1))
                lo = first + 1
                size = 0
    return tasks


def _sweep(n: int, workers: int = 1) -> dict:
    """All (mode, connectivity) cells of the full order-``n`` sweep, cached."""
    _check_sweep_order(n)
    cached = _sweep_cache.get(n)
    if cached is not None:
        return cached
    tasks = _sweep_tasks(n)
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_sweep_chunk, tasks))
    else:
        parts = [_sweep_chunk(t) for t in tasks]
    result = _merge_cells(parts)
    _sweep_cache[n] = result
    return result


def _dedup_isomorphic(ties: list[tuple[int, ...]]) -> list[str]:
    """Sorted graph6 of the canonical forms of the tied neighbor-mask tuples."""
    forms = {_canon_search(masks, len(masks), [0] * len(masks), None) for masks in ties}
    return sorted(form.decode("ascii") for form in forms)


def search_max(spec: SearchSpec, workers: int = 1, at_least: bool = False) -> SearchReport:
    """Maximize ``spec.index`` over the connectivity class of ``spec``.

    ``at_least=True`` unions the classes with connectivity >= ``spec.c``
    instead of exactly ``spec.c`` (the prediction then comes from the
    best-predicted class in the union).

    ``graphs_enumerated`` counts the labeled class members, as
    ``enumerate_class`` yields them.  Maximizers are reported as the
    sorted graph6 strings of their canonical forms, one per isomorphism
    class; ``matches`` is true when the predicted graph is one of them.
    """
    start = time.perf_counter()
    cells = _sweep(spec.n, workers)
    values = range(spec.c, spec.n // 2 + 1) if at_least else (spec.c,)
    agg = _Cell()
    for c in values:
        found = cells.get((spec.mode, c))
        if found is not None:
            agg.merge(found)
    note = None

    predicted = None
    predicted_value = None
    if spec.n >= 6:
        for c in values:
            if not 1 <= c <= spec.n // 2:
                continue
            graph = predicted_extremal(spec.n, c, spec.mode)
            value = m1(graph) if spec.index == "M1" else m2(graph)
            if predicted is None or value > predicted_value:
                predicted, predicted_value = graph, value
    else:
        note = "no prediction below order 6"
    predicted_graph = None if predicted is None else encode_graph6(predicted).decode("ascii")

    index_max = agg.by_index[spec.index]
    if agg.count == 0:
        return SearchReport(
            spec=spec,
            max_value=None,
            maximizers=(),
            predicted_graph=predicted_graph,
            predicted_value=predicted_value,
            matches=False,
            graphs_enumerated=0,
            elapsed=time.perf_counter() - start,
            note="empty class",
        )
    maximizers = _dedup_isomorphic(index_max.ties)
    if len(maximizers) > 1 and note is None:
        # uniqueness of the maximizer is never assumed; ties are surfaced
        note = f"{len(maximizers)} non-isomorphic maximizers tie"
    matches = predicted is not None and canonical_form(predicted).decode("ascii") in maximizers
    return SearchReport(
        spec=spec,
        max_value=index_max.best,
        maximizers=tuple(maximizers),
        predicted_graph=predicted_graph,
        predicted_value=predicted_value,
        matches=matches,
        graphs_enumerated=agg.count,
        elapsed=time.perf_counter() - start,
        note=note,
    )


# -- structural cut predicates -------------------------------------------------

def minimum_vertex_cuts(g: Graph) -> list[frozenset[int]]:
    """All minimum vertex cuts, by enumerating subsets of size kappa.

    Empty for complete graphs (no vertex cut exists) and for graphs that
    are already disconnected.
    """
    kappa = vertex_connectivity_value(g)
    if kappa == 0 or g.num_edges == g.n * (g.n - 1) // 2:
        return []
    masks = list(g.neighbor_masks)
    full = (1 << g.n) - 1
    cuts = []
    for combo in combinations(range(g.n), kappa):
        removed = 0
        for v in combo:
            removed |= 1 << v
        alive = full & ~removed
        if alive and _reach_masks(masks, alive & -alive, alive) != alive:
            cuts.append(frozenset(combo))
    return cuts


def has_straddling_min_cut(g: Graph, b: Bipartition) -> bool:
    """True iff some minimum vertex cut meets both classes of ``b``.

    Requires ``g`` connected; ``b`` must be a valid bipartition of ``g``.
    """
    if not is_connected(g):
        raise ValueError("straddling-cut check requires a connected graph")
    return any(s & b.X and s & b.Y for s in minimum_vertex_cuts(g))


def cut_component_profile(g: Graph, s: frozenset[int]) -> list[int]:
    """Sorted component orders of ``g`` minus the vertex cut ``s``.

    Rejects ``s`` when ``g`` is disconnected or removing ``s`` leaves
    fewer than two components (then ``s`` is not a vertex cut set).
    """
    if not is_connected(g):
        raise ValueError("cut profiles require a connected graph")
    comps = connected_components(g, excluded=frozenset(s))
    if len(comps) < 2:
        raise ValueError(f"removing {sorted(s)} does not disconnect the graph")
    return sorted(len(c) for c in comps)


# -- canonical form -------------------------------------------------------------

def _refine(masks: tuple[int, ...], n: int, colors: list[int]) -> list[int]:
    while True:
        keys = []
        for v in range(n):
            nb = []
            m = masks[v]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                nb.append(colors[w])
            nb.sort()
            keys.append((colors[v], tuple(nb)))
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        new = [rank[key] for key in keys]
        if new == colors:
            return colors
        colors = new


def _twin_cell(masks: tuple[int, ...], members: list[int]) -> bool:
    """True when all cell members are mutually interchangeable twins."""
    first = members[0]
    open_mask = masks[first]
    closed_mask = masks[first] | 1 << first
    all_open = all(masks[v] == open_mask for v in members)
    all_closed = all(masks[v] | 1 << v == closed_mask for v in members)
    return all_open or all_closed


def _encode_leaf(masks: tuple[int, ...], n: int, colors: list[int]) -> bytes:
    order = sorted(range(n), key=lambda v: (colors[v], v))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    out = [n + 63]
    acc = 0
    nbits = 0
    for j in range(1, n):
        vj = order[j]
        for i in range(j):
            acc = acc << 1 | (masks[order[i]] >> vj & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)


def _canon_search(masks: tuple[int, ...], n: int, colors: list[int], best: Optional[bytes]) -> bytes:
    colors = _refine(masks, n, colors)
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    target = None
    for color in sorted(cells):
        members = cells[color]
        if len(members) > 1 and not _twin_cell(masks, members):
            target = members
            break
    if target is None:
        enc = _encode_leaf(masks, n, colors)
        return enc if best is None or enc < best else best
    for x in target:
        child = [c * 2 for c in colors]
        child[x] -= 1
        best = _canon_search(masks, n, child, best)
    return best


def canonical_form(g: Graph) -> bytes:
    """Label-invariant encoding: equal byte strings iff the graphs are isomorphic.

    Color refinement plus individualization within non-twin cells; the
    output is the graph6 encoding of the canonically relabeled graph.
    Supports ``n <= 16``.
    """
    if g.n > MAX_CANONICAL_ORDER:
        raise ValueError(f"canonical form supports n <= {MAX_CANONICAL_ORDER}, got {g.n}")
    if g.n == 0:
        return encode_graph6(g)
    return _canon_search(g.neighbor_masks, g.n, [0] * g.n, None)
