"""Simple undirected graphs with degree-based index computation and I/O.

Vertices are dense integers ``0..n-1``.  Graphs are immutable after
construction, so values can be shared freely (hashable, usable as dict
keys, safe across worker processes).  A ``Graph`` stores only its order
and neighbor bitmasks; its degrees and edges are read off the bitmasks.

The two degree-based indices computed here are

* ``m1(g)``: the sum of squared vertex degrees, and
* ``m2(g)``: the sum over edges of the product of the endpoint degrees.

Both are exact nonnegative integers (degrees are at most ``n - 1``, so no
overflow concerns at the supported graph sizes).  The mode and index names,
``MODES`` and ``INDICES``, are defined here once for every layer.

Supported interchange formats:

* graph6, bit-exact for orders up to 62 (single-byte size header), and
* a plain edge-list text format: a header line ``"n m"`` followed by
  ``m`` lines ``"u v"`` with ``0 <= u < v < n``.

``canonical_form`` packs the canonically relabeled graph with the graph6
bit-packer ``_pack_graph6``, so isomorphic graphs get equal bytes; it
supports ``n <= MAX_CANONICAL_ORDER``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import _NAMES

__all__ = list(_NAMES["graphs"])

_GRAPH6_MAX_N = 62
_GRAPH6_HEADER = b">>graph6<<"


class GraphFormatError(ValueError):
    """Malformed graph6 or edge-list input.

    ``offset`` is the byte offset (graph6) or line number (edge list) at
    which the problem was detected.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_edges(masks: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Edges ``(u, v)`` with ``u < v`` of the neighbor bitmasks, in lexicographic order."""
    for u, m in enumerate(masks):
        # the shift costs O(width of m); a mask -(2 << u) would cost O(u) even when m is 0
        for v in _bits(m >> u + 1):
            yield u, u + 1 + v


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    The adjacency relation is symmetric and irreflexive; loops and
    duplicate edges are rejected at construction time.  Only ``n`` and the
    neighbor bitmasks are stored: the degrees, ``edges()``, ``num_edges``,
    the hash and the repr are derived, each in O(n + m) integer operations.
    """

    __slots__ = ("n", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if masks[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self._masks = tuple(masks)

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks (bit ``v`` of entry ``u`` means ``uv`` is an edge)."""
        return self._masks

    @property
    def num_edges(self) -> int:
        return sum(map(int.bit_count, self._masks)) // 2

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``, in lexicographic order."""
        return tuple(_mask_edges(self._masks))

    def degree(self, u: int) -> int:
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range for n={self.n}")
        return self._masks[u].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self._masks))

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge {(min(u, v), max(u, v))} out of range for n={self.n}")
        return bool(self._masks[u] >> v & 1)

    def with_edges_changed(
        self,
        removed: Iterable[tuple[int, int]] = (),
        added: Iterable[tuple[int, int]] = (),
    ) -> "Graph":
        """New graph with ``removed`` edges deleted and ``added`` edges inserted.

        Raises ``ValueError`` if a removed edge is absent, or an added edge
        is a loop, out of range or already present (after removals).
        """
        n = self.n
        masks = list(self._masks)
        for u, v in removed:
            if not (0 <= u < n and 0 <= v < n and masks[u] >> v & 1):
                raise ValueError(f"cannot remove absent edge {(min(u, v), max(u, v))}")
            masks[u] ^= 1 << v
            masks[v] ^= 1 << u
        for u, v in added:
            e = (min(u, v), max(u, v))
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= e[0] and e[1] < n):
                raise ValueError(f"edge {e} out of range for n={n}")
            if masks[u] >> v & 1:
                raise ValueError(f"cannot add existing edge {e}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return Graph(n, _mask_edges(masks))

    def relabeled(self, perm: Iterable[int]) -> "Graph":
        """New graph with vertex ``u`` renamed to ``perm[u]``."""
        p = tuple(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        return Graph(self.n, ((p[u], p[v]) for u, v in _mask_edges(self._masks)))

    def induced(self, keep: Iterable[int]) -> "Graph":
        """Induced subgraph on ``keep``, relabeled to ``0..len(keep)-1`` in sorted order."""
        kept = sorted(set(keep))
        for v in kept:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range for n={self.n}")
        index = {v: i for i, v in enumerate(kept)}
        edges = _mask_edges(self._masks)
        return Graph(len(kept), ((index[u], index[v]) for u, v in edges if u in index and v in index))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())!r})"


class Bipartition(NamedTuple):
    """Two disjoint vertex classes covering ``V``; every edge crosses them."""

    X: frozenset[int]
    Y: frozenset[int]


# the connectivity mode and index names, as used by search cells, reports and the
# command line
MODES = ("vertex", "edge")
INDICES = ("M1", "M2")


def _mask_indices(masks: Sequence[int]) -> tuple[int, int]:
    """The index values, in ``INDICES`` order, of the graph of the neighbor
    bitmasks ``masks``: the sum of the squared degrees, and the sum over the
    edges ``u < v`` of ``d(u) d(v)``."""
    degs = list(map(int.bit_count, masks))
    second = 0
    for u, m in enumerate(masks):
        du = degs[u]
        m >>= u + 1
        while m:
            low = m & -m
            second += du * degs[u + low.bit_length()]
            m ^= low
    return sum(d * d for d in degs), second


def m1(g: Graph) -> int:
    """First degree-power index: sum of the squared degree of every vertex."""
    return _mask_indices(g.neighbor_masks)[0]


def m2(g: Graph) -> int:
    """Second degree-power index: sum over edges of the product of endpoint degrees."""
    return _mask_indices(g.neighbor_masks)[1]


def index_value(name: str, g: Graph) -> int:
    """The index called ``name`` (one of ``INDICES``) of ``g``.  It calls
    ``m1`` or ``m2``, so a traced run (``perfbench/tracer.py``) counts each
    read under their names."""
    if name not in INDICES:
        raise ValueError(f"index must be one of {INDICES}, got {name!r}")
    return m1(g) if name == "M1" else m2(g)


def min_degree(g: Graph) -> int:
    """Minimum vertex degree; 0 for edgeless graphs.  Requires ``n >= 1``."""
    if g.n < 1:
        raise ValueError("min_degree requires at least one vertex")
    return min(map(int.bit_count, g.neighbor_masks))


def _reach(masks: Sequence[int], start_bit: int, alive: int) -> int:
    """Bitmask of vertices reachable from ``start_bit`` within ``alive``."""
    seen = start_bit
    frontier = start_bit
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


def _vertex_cuts(masks: Sequence[int], k: int) -> Iterator[tuple[int, ...]]:
    """The ``k``-subsets of the vertices whose removal disconnects the rest,
    in lexicographic order."""
    full = (1 << len(masks)) - 1
    for combo in combinations(range(len(masks)), k):
        alive = full
        for v in combo:
            alive &= ~(1 << v)
        if _reach(masks, alive & -alive, alive) != alive:
            yield combo


def is_connected(g: Graph) -> bool:
    """True when the graph has one connected component (vacuously for n <= 1)."""
    if g.n <= 1:
        return True
    alive = (1 << g.n) - 1
    return _reach(g.neighbor_masks, 1, alive) == alive


def connected_components(g: Graph, excluded: frozenset[int] = frozenset()) -> list[list[int]]:
    """Components of ``g`` with ``excluded`` vertices removed, as sorted vertex lists."""
    masks = g.neighbor_masks
    alive = (1 << g.n) - 1
    for v in excluded:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        alive &= ~(1 << v)
    comps = []
    remaining = alive
    while remaining:
        seen = _reach(masks, remaining & -remaining, alive)
        comps.append(list(_bits(seen)))
        remaining &= ~seen
    return comps


def bipartition_of(g: Graph) -> Optional[Bipartition]:
    """Two-color the graph, or return ``None`` when an odd cycle exists.

    Coloring proceeds per connected component by a search that pops a
    stack, from the smallest unvisited vertex, which lands in ``X``;
    isolated vertices therefore land in ``X`` as well.  It is the package's
    bipartiteness check; the acceptance tests read the color classes of each
    maximizer from it, to check that no minimum cut meets both.
    """
    color = [-1] * g.n
    masks = g.neighbor_masks
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            u = queue.pop()
            cu = color[u]
            for v in _bits(masks[u]):
                if color[v] == -1:
                    color[v] = 1 - cu
                    queue.append(v)
                elif color[v] == cu:
                    return None
    return Bipartition(
        frozenset(v for v in range(g.n) if color[v] == 0),
        frozenset(v for v in range(g.n) if color[v] == 1),
    )


# -- graph6 codec -----------------------------------------------------------

def encode_graph6(g: Graph) -> bytes:
    """Encode as graph6: size byte ``n + 63`` then packed upper-triangle bits.

    Bits are emitted column by column (``x_{0,1} x_{0,2} x_{1,2} x_{0,3}
    ...``), zero-padded to a multiple of six, each six-bit group offset
    by 63 into printable ASCII.  Supports ``n <= 62``.
    """
    if g.n > _GRAPH6_MAX_N:
        raise ValueError(f"graph6 single-byte header supports n <= {_GRAPH6_MAX_N}")
    return _pack_graph6(g.neighbor_masks, range(g.n))


def _pack_graph6(masks: Sequence[int], order: Sequence[int]) -> bytes:
    """graph6 bytes of the graph whose vertex ``order[i]`` is relabeled ``i``."""
    out = [len(order) + 63]
    acc = 0
    nbits = 0
    for j in range(1, len(order)):
        col = masks[order[j]]
        for i in range(j):
            acc = acc << 1 | (col >> order[i] & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)


def decode_graph6(data: bytes) -> Graph:
    """Decode a graph6 byte string, rejecting malformed input with an offset.

    Accepts the optional ``>>graph6<<`` prefix.  Only the single-byte size
    header (``n <= 62``) is supported; the bit body must have exactly
    ``ceil(n(n-1)/2 / 6)`` characters with zero padding bits.
    """
    if isinstance(data, str):
        data = data.encode("ascii")
    base = 0
    if data.startswith(_GRAPH6_HEADER):
        base = len(_GRAPH6_HEADER)
        data = data[base:]
    data = data.rstrip(b"\r\n")
    if not data:
        raise GraphFormatError("empty graph6 string", base)
    head = data[0]
    if head == 126:
        raise GraphFormatError(
            "multi-byte graph6 size headers (n > 62) are not supported", base
        )
    if not 63 <= head <= 63 + _GRAPH6_MAX_N:
        raise GraphFormatError(f"invalid graph6 size byte {head}", base)
    n = head - 63
    body = data[1:]
    total = n * (n - 1) // 2
    need = (total + 5) // 6
    if len(body) < need:
        raise GraphFormatError(
            f"graph6 body too short: need {need} characters, got {len(body)}",
            base + 1 + len(body),
        )
    if len(body) > need:
        raise GraphFormatError(
            f"graph6 body too long: need {need} characters, got {len(body)}",
            base + 1 + need,
        )
    value = 0
    for i, ch in enumerate(body):
        if not 63 <= ch <= 126:
            raise GraphFormatError(f"invalid graph6 character {ch}", base + 1 + i)
        value = value << 6 | ch - 63
    pad = 6 * need - total
    if value & ((1 << pad) - 1):
        # the padding bits all lie in the last character
        raise GraphFormatError("nonzero padding bits in graph6 body", base + need)
    # bit x_{u,v} (u < v) of the body is character v(v-1)/2 + u of ``bits``
    bits = format(value >> pad, f"0{total}b")
    edges = [(u, v) for v in range(1, n)
             for u, bit in enumerate(bits[v * (v - 1) // 2:v * (v + 1) // 2]) if bit == "1"]
    return Graph(n, edges)


# -- canonical form -------------------------------------------------------------

MAX_CANONICAL_ORDER = 16


def _refine(masks: tuple[int, ...], colors: list[int]) -> list[int]:
    while True:
        keys = []
        for v in range(len(masks)):
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


def _canon_search(masks: tuple[int, ...], colors: list[int]) -> bytes:
    """Least encoding over the leaves of the search tree under ``colors``."""
    colors = _refine(masks, colors)
    cells: dict[int, list[int]] = {}
    for v in range(len(masks)):
        cells.setdefault(colors[v], []).append(v)
    target = None
    for color in sorted(cells):
        members = cells[color]
        if len(members) > 1 and not _twin_cell(masks, members):
            target = members
            break
    if target is None:
        return _pack_graph6(masks, sorted(range(len(masks)), key=lambda v: (colors[v], v)))
    best = None
    for x in target:
        child = [c * 2 for c in colors]
        child[x] -= 1
        enc = _canon_search(masks, child)
        if best is None or enc < best:
            best = enc
    return best


def canonical_form(g: Graph) -> bytes:
    """Label-invariant encoding: equal byte strings iff the graphs are isomorphic.

    Color refinement plus individualization within non-twin cells; the
    output is the graph6 encoding of the canonically relabeled graph.
    Supports ``n <= 16``.
    """
    if g.n > MAX_CANONICAL_ORDER:
        raise ValueError(f"canonical form supports n <= {MAX_CANONICAL_ORDER}, got {g.n}")
    return _canon_search(g.neighbor_masks, [0] * g.n)


# -- edge-list text format ---------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the ``"n m"`` / ``"u v"`` text format.

    Requires ``0 <= u < v < n`` on every edge line; duplicate pairs, bad
    counts and trailing junk are errors (reported with a line number).
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty edge-list input", 1)
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError("header must be 'n m'", 1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError("header must contain two integers", 1) from None
    if n < 0 or m < 0:
        raise GraphFormatError("header counts must be nonnegative", 1)
    if len(lines) - 1 != m:
        raise GraphFormatError(
            f"expected {m} edge lines, found {len(lines) - 1}", len(lines)
        )
    seen = set()
    edges = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError("edge line must be 'u v'", i)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("edge line must contain two integers", i) from None
        if not 0 <= u < v < n:
            raise GraphFormatError(f"edge ({u}, {v}) violates 0 <= u < v < n", i)
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge ({u}, {v})", i)
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_graph_file(path: str, fmt: str = "auto") -> Graph:
    """Load a graph from ``path`` in graph6 or edge-list format.

    ``fmt="auto"`` sniffs the content: a first nonblank line of two
    integers is treated as an edge list, anything else as graph6.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if fmt == "auto":
        first = next((ln.split() for ln in raw.splitlines() if ln.strip()), [])
        if len(first) == 2 and all(tok.isdigit() for tok in first):
            fmt = "edgelist"
        else:
            fmt = "graph6"
    if fmt == "edgelist":
        return parse_edge_list(raw.decode("ascii"))
    if fmt == "graph6":
        return decode_graph6(raw.strip())
    raise ValueError(f"unknown graph format {fmt!r}")
