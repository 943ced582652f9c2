"""Exhaustive search over bipartite graphs with prescribed connectivity.

A cross-part adjacency pattern with part size ``p`` is a ``p x q`` 0/1
matrix, ``q = n - p``, whose rows are the neighborhoods of vertices
``0..p-1``; rows are placed by ``_place_row`` and decoded by
``_bipartite_masks``, and ``_connectivity`` reads the connectivity and
index values of a connected graph.  ``enumerate_class`` yields every
labeled pattern of one connectivity class; brute-force connectivity (the
cross-check for the flow module, on the cut enumerator
``graphs._vertex_cuts``) and minimum-cut predicates are also here.
Maximizers are deduplicated by ``graphs.canonical_form``.  Nothing here
imports the flow module ``connectivity``: the minimum-cut predicates take
kappa from the brute-force route, so they stay a reference independent of
the flows, and a ``zex verify`` process never loads the flow module.

The sweep behind ``search_max`` walks only doubly lexical matrices: every
0/1 matrix has a row and column order in which both rows and columns are
nondecreasing (Lubiw, SIAM J. Comput. 1987), so every class under row and
column permutations is visited.  Each class is classified once and
weighted by ``p! q! / |Aut|``, its number of labeled patterns, so counts
and maxima are those of the labeled enumeration.  The sweep returns the
report cells, one ``[count, best, ties]`` per ``(mode, c, index)``: the
labeled members, the largest index value and the neighbor masks of one
member of each class that reaches it.  ``_fold`` is the one rule that
joins them: counts add, the greater maximum wins, and equal maxima join
their ties.  A task is one first row, ``(n, p, first)``, and keeps only
the classes whose least row degree is that row's, so no class is in two
tasks.  Each task folds its classes into its own cells as it meets them,
in the sweep's process or in a worker, keeping only the keys of the
classes it has seen; ``_merge_cells`` folds the task cells in task order
as they arrive, so reports do not depend on the worker count.
``search_max`` reads one cell, or folds the cells ``c' >= c`` for
``at_least``.  ``_sweep_chunk`` runs a task the same way in both paths
and names it in a ``SweepTaskError`` if it fails.  ``_sweep`` alone turns
a worker count into a pool size.

Scale caps: ``search_max`` and ``enumerate_class`` support ``n <= 10``
(``MAX_SWEEP_ORDER``), checked where a caller comes in, so ``_sweep``
itself runs any order; the canonical form, which lives in ``graphs``,
supports ``n <= 16`` (``graphs.MAX_CANONICAL_ORDER``).
"""

from __future__ import annotations

import os
import time
from functools import cache, lru_cache
from itertools import permutations, product
from math import factorial
from typing import Iterable, Iterator, NamedTuple, Optional

from . import _NAMES
from .families import MIN_FAMILY_ORDER, predicted_extremal
from .graphs import (
    INDICES,
    MODES,
    Bipartition,
    Graph,
    _mask_edges,
    _mask_indices,
    _reach,
    _vertex_cuts,
    bipartition_of,
    canonical_form,
    connected_components,
    encode_graph6,
    index_value,
    is_connected,
    min_degree,
)

__all__ = list(_NAMES["search"])

MAX_SWEEP_ORDER = 10


class SearchSpec(NamedTuple("SearchSpec", [("n", int), ("mode", str), ("c", int), ("index", str)])):
    """A search cell: order, connectivity mode and value, objective index.

    ``c`` values above ``n // 2`` are not rejected; they simply define an
    empty class (no bipartite graph of order ``n`` can reach them).
    """

    __slots__ = ()

    # a NamedTuple body cannot override __new__, so the checks live in this subclass
    def __new__(cls, n: int, mode: str, c: int, index: str):
        if n < 2:
            raise ValueError("search requires n >= 2")
        if c < 1:
            raise ValueError("search requires c >= 1")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if index not in INDICES:
            raise ValueError(f"index must be one of {INDICES}, got {index!r}")
        return super().__new__(cls, n, mode, c, index)


class SearchReport(NamedTuple):
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
        d = self._asdict()
        d["spec"] = self.spec._asdict()
        d["maximizers"] = list(self.maximizers)
        if self.note is None:
            del d["note"]
        return d


# -- bitmask primitives -------------------------------------------------------

def _join(parts: tuple[int, ...], row: int) -> tuple[int, ...]:
    """The column sets of the components once ``row`` is placed: ``row`` and
    every part it meets merge into one."""
    merged = row
    rest = []
    for part in parts:
        if part & row:
            merged |= part
        else:
            rest.append(part)
    rest.append(merged)
    return tuple(rest)


def _connected_masks(parts: tuple[int, ...], row: int, columns: int) -> bool:
    """Whether the bipartite graph is connected, given ``parts``, the column
    sets of the components spanned by its other rows, and its last ``row``:
    the row must meet every part, and together they must cover ``columns``."""
    return _join(parts, row) == (columns,)


def _kappa_masks(masks: list[int], bound: int) -> int:
    """Exact vertex connectivity of a connected graph given as bitmasks:
    the smallest cut size below ``bound``, else ``bound`` (the minimum
    degree is a valid bound, and ``n - 1`` makes no assumption)."""
    for k in range(1, bound):
        if next(_vertex_cuts(masks, k), None) is not None:
            return k
    return bound


def _kappa_prime_masks(masks: list[int], delta: int) -> int:
    """Exact edge connectivity of a connected graph with minimum degree
    ``delta``: minimum edge boundary over all proper vertex subsets
    containing vertex 0."""
    best = delta
    for w in range(1, (1 << len(masks)) - 1, 2):  # subsets with vertex 0, excluding the full set
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


def _place_row(masks: list[int], p: int, i: int, row: int) -> list[int]:
    """Copy of ``masks`` with ``row`` (a ``q``-bit set of part ``p..n-1``) as
    the neighborhood of vertex ``i < p``, and bit ``i`` set in those columns."""
    masks = masks.copy()
    masks[i] = row << p
    bit = 1 << i
    while row:
        low = row & -row
        masks[p + low.bit_length() - 1] |= bit
        row ^= low
    return masks


def _bipartite_masks(p: int, carried: list[int], row: int) -> list[int]:
    """Neighbor bitmasks of the graph whose rows ``0..p-2`` are placed in
    ``carried`` (see ``_place_row``) and whose last row is ``row``."""
    return _place_row(carried, p, p - 1, row)


def _connectivity(masks: list[int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """``((kappa, kappa_prime), (M1, M2))`` of a connected graph given as
    bitmasks: the connectivity values in ``MODES`` order and the index
    values in ``INDICES`` order."""
    delta = min(map(int.bit_count, masks))
    kappa = _kappa_masks(masks, delta)
    # kappa <= kappa' <= delta
    kappa_p = delta if kappa == delta else _kappa_prime_masks(masks, delta)
    return (kappa, kappa_p), _mask_indices(masks)


def _classify(p: int, carried: list[int], row: int) -> Optional[tuple]:
    """``(masks, (kappa, kappa_prime), (M1, M2))`` of the bipartite graph
    decoded by ``_bipartite_masks``, or None when it is disconnected (an
    isolated vertex included)."""
    masks = _bipartite_masks(p, carried, row)
    full = (1 << len(masks)) - 1
    if _reach(masks, 1, full) != full:
        return None
    return (masks, *_connectivity(masks))


def _masks_to_graph(masks: list[int]) -> Graph:
    return Graph(len(masks), _mask_edges(masks))


# -- brute-force connectivity (independent oracle route) ----------------------

def brute_force_vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity by enumerating vertex subsets in increasing size."""
    if g.n < 1:
        raise ValueError("connectivity requires at least one vertex")
    if not is_connected(g):
        return 0
    return _kappa_masks(list(g.neighbor_masks), g.n - 1)


def brute_force_edge_connectivity(g: Graph) -> int:
    """Edge connectivity as the minimum edge boundary over vertex subsets."""
    if g.n < 1:
        raise ValueError("connectivity requires at least one vertex")
    if not is_connected(g):
        return 0
    return _kappa_prime_masks(list(g.neighbor_masks), min_degree(g))


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
    n = spec.n
    which = MODES.index(spec.mode)
    for p in range(1, n // 2 + 1):
        top = 1 << (n - p)
        for prefix in product(range(top), repeat=p - 1):
            carried = [0] * n
            for i, row in enumerate(prefix):
                carried = _place_row(carried, p, i, row)
            for row in range(top):
                found = _classify(p, carried, row)
                if found is not None and found[1][which] == spec.c:
                    yield _masks_to_graph(found[0])


@cache
def _relabel_table(order: tuple[int, ...]) -> tuple[int, ...]:
    """Entry ``col`` is the column ``col`` (a ``len(order)``-bit int) with
    bit ``order[t]`` moved to bit ``t``."""
    return tuple(sum((col >> v & 1) << t for t, v in enumerate(order)) for col in range(1 << len(order)))


@cache
def _row_tables(degrees: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The ``_relabel_table`` of every order of the rows by nondecreasing
    ``degrees``, in any order within a degree."""
    groups = [[i for i, d in enumerate(degrees) if d == value] for value in sorted(set(degrees))]
    return tuple(_relabel_table(sum(parts, ())) for parts in product(*map(permutations, groups)))


def _class_key(masks: list[int], p: int) -> tuple[tuple[int, ...], int]:
    """``(key, |Aut|)`` of the ``p x q`` 0/1 matrix whose rows are the
    neighbor bitmasks ``masks[:p]`` and whose columns are ``masks[p:]``
    (``p``-bit ints, row ``i`` as bit ``i``), under row and column
    permutations.

    The key is the least sorted column tuple over the row orders of
    ``_row_tables``.  Permuting the matrix permutes those orders, so the
    key is a class invariant, and equal keys mean one class.  A row
    permutation that fixes the column multiset fixes the row degrees, so
    the orders that reach the key are one coset of those permutations;
    each of them fixes the matrix with ``prod(multiplicity!)`` column
    permutations, so ``|Aut|`` is their number times that product over
    the distinct columns.
    """
    cols = masks[p:]
    best = None
    for table in _row_tables(tuple(m.bit_count() for m in masks[:p])):
        key = sorted(map(table.__getitem__, cols))
        if best is None or key < best:
            best, hits = key, 1
        elif key == best:
            hits += 1
    aut = hits
    run = 1
    for prev, col in zip(best, best[1:]):
        run = run + 1 if col == prev else 1
        aut *= run
    return tuple(best), aut


class SweepTaskError(RuntimeError):
    """A sweep task ``(n, p, first)`` raised; the message names the task."""


def _fold(cell: Optional[list], count: int, best: int, ties: Iterable[tuple[int, ...]]) -> list:
    """``cell`` (a ``[count, best, ties]``, or None for an empty cell) with
    ``count`` members of maximum ``best`` and tied masks ``ties`` folded in:
    counts add, the greater maximum wins, and equal maxima join their ties.
    A new cell copies ``ties``, so a fold never changes the cell it reads."""
    if cell is None:
        return [count, best, list(ties)]
    cell[0] += count
    if best > cell[1]:
        cell[1:] = best, list(ties)
    elif best == cell[1]:
        cell[2].extend(ties)
    return cell


def _sweep_chunk(task: tuple[int, int, int]) -> dict:
    """Classify the doubly lexical matrices of part size ``p`` whose first
    row is ``first`` and whose rows all have at least ``first``'s degree,
    and return their cells: ``{(mode, c, index): [count, best, ties]}``
    (see ``_fold``).  Each class, keyed by ``_class_key``, is folded into
    its four cells, one per mode and index, when the walk first meets it;
    the task keeps only the set of keys it has seen.

    Row ``i`` is the ``q``-bit int of its columns; column ``j`` is read
    with row 0 as its most significant bit.  A depth-first walk places
    nondecreasing rows and keeps columns nonincreasing: bit ``j`` of
    ``tied`` is set while columns ``j`` and ``j + 1`` agree on the placed
    rows, and a row that sets bit ``j + 1`` but not bit ``j`` of a tied
    pair is pruned with every row the walk would place after it.  So is a
    row of fewer than ``k`` bits, where ``first = 2**k - 1``.  Column
    ``q - 1`` is then the least column, and it is empty exactly when the
    last row is below ``2**(q-1)``.  The walk also carries the column sets
    of the components spanned by the placed rows (``_join``), so a leaf's
    connectedness is one pass over them.  Each class is classified once
    and weighted by ``p! q! / |Aut|``, the number of labeled matrices in
    it.

    The tasks of one ``(n, p)`` still meet every class, and each class in
    one task only:

    - Take a connected matrix of the class and put a row of least degree
      ``d`` first.  A stable column sort, with row 0 as the high bit,
      moves its ones to the lowest bits, so row 0 reads ``2**d - 1``, the
      least int with ``d`` set bits.
    - So a stable row sort never moves row 0 ahead of another row, and
      the next column sort keeps it at ``2**d - 1``.  Both sorts lower the
      row tuple in lexicographic order, so alternating them reaches a
      doubly lexical fixed point.
    - That fixed point is a leaf of task ``k = d``, and no row in it has
      fewer than ``d`` bits.
    - Each class has one least degree, so the tasks are disjoint.

    Any exception in the walk is raised again as ``SweepTaskError``, whose
    message names ``task``, in a serial sweep and in a pool worker alike.
    """
    n, p, first = task
    q = n - p
    top = 1 << q
    least = first.bit_count()
    labelings = factorial(p) * factorial(q)
    seen: set = set()
    cells: dict = {}

    def walk(i: int, carried: list[int], parts: tuple[int, ...], rows: range, tied: int) -> None:
        # rows 0..i-1 are placed in ``carried``, and their components span ``parts``
        for row in rows:
            if row >> 1 & ~row & tied or row.bit_count() < least:
                continue  # column j + 1 would pass column j, or the row has fewer bits than row 0
            if i < p - 1:
                walk(
                    i + 1, _place_row(carried, p, i, row), _join(parts, row), range(row, top),
                    tied & ~(row ^ row >> 1),
                )
                continue
            if row < top >> 1:
                continue  # column q - 1 is empty
            masks = _bipartite_masks(p, carried, row)
            if not _connected_masks(parts, row, top - 1):
                continue
            key, aut = _class_key(masks, p)
            if key in seen:
                continue
            seen.add(key)
            weight = labelings // aut
            connectivity, values = _connectivity(masks)
            tie = (tuple(masks),)
            for mode, c in zip(MODES, connectivity):
                for index, value in zip(INDICES, values):
                    at = (mode, c, index)
                    cells[at] = _fold(cells.get(at), weight, value, tie)

    try:
        walk(0, [0] * n, (), range(first, first + 1), (1 << (q - 1)) - 1)
    except Exception as exc:
        raise SweepTaskError(
            f"sweep task (n, p, first) = {task} failed: {type(exc).__name__}: {exc}"
        ) from exc
    return cells


def _merge_cells(parts: Iterable[dict]) -> dict:
    """The sweep's cells: the task cells folded by ``_fold``, in task order
    as ``parts`` yields them, so the ties keep one order whatever the worker
    count.  No class is in two tasks (see ``_sweep_chunk``), so no count or
    tie is folded twice, and no task's cells are kept once they are read."""
    cells: dict = {}
    for part in parts:
        for key, cell in part.items():
            cells[key] = _fold(cells.get(key), *cell)
    return cells


def _sweep_tasks(n: int) -> list[tuple[int, int, int]]:
    """One ``(n, p, first)`` task per first row the walk can place: columns
    are nonincreasing with row 0 as their high bit, so the first row is
    ``2**k - 1`` for some ``k``, and the rows between reach no leaf."""
    return [(n, p, 2**k - 1) for p in range(1, n // 2 + 1) for k in range(1, n - p + 1)]


@lru_cache(maxsize=1)
def _sweep(n: int, workers: int, /) -> dict:
    """The cells of the full order-``n`` sweep, ``{(mode, c, index): [count,
    best, ties]}`` (see ``_sweep_chunk``): the task cells folded by
    ``_merge_cells``, from the tasks run one by one or in a pool.  This is
    the one place that sizes the pool: ``workers`` 0 means one per CPU, a
    negative count is a ``ValueError``, and no more workers start than
    there are CPUs or tasks.  Both arguments are positional, so the cache
    keys a call one way; it keeps only the latest sweep, as callers walk
    orders in turn, and callers only read the cells it shares.  Any order
    runs: ``search_max`` checks the cap."""
    if workers < 0:
        raise ValueError(f"workers must be nonnegative, got {workers}")
    tasks = _sweep_tasks(n)
    cpus = os.cpu_count() or 1
    workers = min(workers or cpus, len(tasks), cpus)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pooled sweeps pay for it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _merge_cells(pool.map(_sweep_chunk, tasks))
    return _merge_cells(map(_sweep_chunk, tasks))


@cache
def _canonical(masks: tuple[int, ...]) -> str:
    """graph6 of the canonical form of the graph of ``masks``, kept for the
    life of the process: only the ties and predicted graphs that reports
    name pass through it, a few dozen over orders 6-10."""
    return canonical_form(_masks_to_graph(masks)).decode("ascii")


def _dedup_isomorphic(ties: list[tuple[int, ...]]) -> list[str]:
    """Sorted graph6 of the canonical forms of the tied graphs, given as neighbor masks."""
    return sorted({_canonical(tie) for tie in ties})


def search_max(spec: SearchSpec, workers: int = 1, at_least: bool = False) -> SearchReport:
    """Maximize ``spec.index`` over the connectivity class of ``spec``.

    The sweep's cell ``(spec.mode, spec.c, spec.index)`` is the answer.
    ``at_least=True`` unions the classes with connectivity >= ``spec.c``
    instead of exactly ``spec.c``: their cells are folded by ``_fold`` into
    a new cell, so the cached ones stay as they are (the prediction then
    comes from the best-predicted class in the union).

    ``graphs_enumerated`` counts the labeled class members, as
    ``enumerate_class`` yields them.  Maximizers are reported as the
    sorted graph6 strings of their canonical forms, one per isomorphism
    class; ``matches`` is true when the predicted graph is one of them.
    ``workers`` caps the sweep's worker processes, and 0 means one per CPU,
    as ``ZEX_THREADS=0`` does; a negative count raises ``ValueError``.
    Orders above ``MAX_SWEEP_ORDER`` raise ``ValueError`` before any sweep.
    """
    _check_sweep_order(spec.n)
    start = time.perf_counter()
    cells = _sweep(spec.n, workers)
    values = range(spec.c, spec.n // 2 + 1) if at_least else (spec.c,)
    union = None
    for c in values:
        cell = cells.get((spec.mode, c, spec.index))
        if cell is not None:
            union = _fold(union, *cell)
    count, best, ties = union or (0, None, ())
    note = None

    predicted = None
    predicted_value = None
    if spec.n >= MIN_FAMILY_ORDER:
        for c in values:
            if not 1 <= c <= spec.n // 2:
                continue
            graph = predicted_extremal(spec.n, c, spec.mode)
            value = index_value(spec.index, graph)
            if predicted is None or value > predicted_value:
                predicted, predicted_value = graph, value
    else:
        note = f"no prediction below order {MIN_FAMILY_ORDER}"
    predicted_graph = None if predicted is None else encode_graph6(predicted).decode("ascii")

    maximizers = _dedup_isomorphic(ties)
    if not count:
        note = "empty class"
    elif len(maximizers) > 1 and note is None:
        # uniqueness of the maximizer is never assumed; ties are surfaced
        note = f"{len(maximizers)} non-isomorphic maximizers tie"
    matches = predicted is not None and _canonical(predicted.neighbor_masks) in maximizers
    return SearchReport(
        spec=spec,
        max_value=best,
        maximizers=tuple(maximizers),
        predicted_graph=predicted_graph,
        predicted_value=predicted_value,
        matches=matches,
        graphs_enumerated=count,
        elapsed=time.perf_counter() - start,
        note=note,
    )


# -- structural cut predicates -------------------------------------------------

def minimum_vertex_cuts(g: Graph) -> list[frozenset[int]]:
    """All minimum vertex cuts, by enumerating subsets of size kappa; kappa
    comes from ``brute_force_vertex_connectivity``, so no flow runs.

    Empty for complete graphs (no vertex cut exists) and for graphs that
    are already disconnected.
    """
    kappa = brute_force_vertex_connectivity(g)
    if kappa == 0:
        return []
    # a complete graph has no disconnecting (n - 1)-subset, so it yields none
    return [frozenset(cut) for cut in _vertex_cuts(g.neighbor_masks, kappa)]


def has_straddling_min_cut(g: Graph, b: Bipartition) -> bool:
    """True iff some minimum vertex cut meets both classes of ``b``.

    Requires ``g`` connected, and ``b`` a bipartition of ``g``: disjoint
    classes that cover its vertices, with every edge crossing them; else
    ``ValueError``.  Nothing in the package calls it: it states acceptance
    criterion 7, that no maximizer has a minimum cut meeting both color
    classes.
    """
    if not is_connected(g):
        raise ValueError("straddling-cut check requires a connected graph")
    # a connected bipartite graph has one bipartition, up to the order of its classes
    if bipartition_of(g) not in (b, b[::-1]):
        raise ValueError(f"{b} is not a bipartition of the graph")
    return any(s & b.X and s & b.Y for s in minimum_vertex_cuts(g))


def cut_component_profile(g: Graph, s: frozenset[int]) -> list[int]:
    """Sorted component orders of ``g`` minus the vertex cut ``s``.

    Rejects ``s`` when ``g`` is disconnected or removing ``s`` leaves
    fewer than two components (then ``s`` is not a vertex cut set).
    Nothing in the package calls it: it states acceptance criterion 7, that
    a one-sided minimum cut of a maximizer splits off a single vertex.
    """
    if not is_connected(g):
        raise ValueError("cut profiles require a connected graph")
    comps = connected_components(g, excluded=frozenset(s))
    if len(comps) < 2:
        raise ValueError(f"removing {sorted(s)} does not disconnect the graph")
    return sorted(len(c) for c in comps)
