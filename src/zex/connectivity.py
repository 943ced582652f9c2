"""Exact vertex and edge connectivity via unit-capacity maximum flow.

One kernel, ``_unit_flow``, computes every flow on out-neighbor bitmasks:
node ``u`` has a unit arc to every bit of ``arcs[u]``, the flow is kept as
bitmasks too, and each augmenting path is a shortest residual path.
Every flow is capped at the best value known so far.  Edge connectivity
is the minimum over sinks ``t != 0`` of the flow from vertex 0 on the
neighbor bitmasks.  Vertex connectivity runs its flows in one scan,
``_vertex_scan``, which returns min(bound, kappa) and stops once a known
lower bound ``floor`` is met.  It takes the minimum over non-adjacent
pairs ``(s, t)`` of the number of internally vertex-disjoint paths, as
flows in the vertex-split digraph (in-node ``2v`` -> out-node ``2v + 1``
-> in-node ``2w`` per neighbor ``w``) on the subgraph induced by an
``alive`` bitmask: a dead vertex has no in -> out arc.  Its sources obey
Even's rule (Even, SIAM J. Comput. 1975; Esfahanian and Hakimi, Networks
1984): of the first kappa + 1 alive vertices one lies outside a minimum
cut ``S``, and the first such one has all smaller alive vertices in
``S``, so ``S`` separates it from a later vertex.  The scan therefore
stops at the first source whose rank is not below the best value found.

Witnesses are the lexicographically smallest minimum cuts, found
greedily: a vertex (edge) joins the kept set F when removing it leaves
connectivity exactly kappa - |F| - 1.  Removing any set T leaves at least
kappa - |T|, so each vertex test is one scan with bound kappa - |F| and
floor kappa - |F| - 1.  Each edge test is a single flow: while F is
extendable, lambda(G - F) = kappa' - |F|, so a cut of size kappa' - |F| - 1
in G - F - uv must separate u from v (one that left them together would
already cut G - F), and the u-v flow in G - F - uv, capped at
kappa' - |F|, decides the candidate (Menger; Ford and Fulkerson 1956).
Integer flows make every value exact; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, _bits, min_degree

__all__ = [
    "MODES",
    "CutWitness",
    "vertex_connectivity",
    "edge_connectivity",
    "vertex_connectivity_value",
    "edge_connectivity_value",
    "is_k_connected",
]

# the connectivity mode names, as used by search cells, reports and the command line
MODES = ("vertex", "edge")


@dataclass(frozen=True)
class CutWitness:
    """An explicit minimum cut, or the reason none exists.

    ``members`` is a sorted tuple of vertices (kind ``"vertex-cut"``) or of
    ``(u, v)`` edge pairs (kind ``"edge-cut"``) whose removal disconnects
    the graph.  For complete graphs (vertex kind) and the one-vertex graph
    no cut exists: ``members`` is empty, ``size`` still reports the
    connectivity value and ``complete`` is set.  For graphs that are
    already disconnected ``members`` is empty with ``size`` 0.
    """

    kind: str
    members: tuple
    size: int
    complete: bool = False


def _unit_flow(arcs: Sequence[int], s: int, t: int, cutoff: int) -> int:
    """Max s-t flow, capped at ``cutoff``, in the digraph with a unit arc ``u -> v``
    for every bit ``v`` of ``arcs[u]``.

    The flow is kept as bitmasks: bit ``v`` of ``fwd[u]`` is one unit on
    ``u -> v`` and ``back`` is the transpose of ``fwd``.  Each augmenting
    path is a shortest residual path.  Along it a unit on the reverse arc
    is cancelled before the arc itself is used, so antiparallel arcs (the
    two directions of an undirected edge) never both carry flow.
    """
    fwd = [0] * len(arcs)
    back = [0] * len(arcs)
    flow = 0
    while flow < cutoff:
        parent: dict[int, int] = {}
        queue = [s]
        seen = 1 << s
        for u in queue:
            nxt = ((arcs[u] & ~fwd[u]) | back[u]) & ~seen
            seen |= nxt
            while nxt:
                low = nxt & -nxt
                v = low.bit_length() - 1
                parent[v] = u
                queue.append(v)
                nxt ^= low
            if seen >> t & 1:
                break
        else:
            return flow
        v = t
        while v != s:
            u = parent[v]
            if back[u] >> v & 1:
                back[u] ^= 1 << v
                fwd[v] ^= 1 << u
            else:
                fwd[u] |= 1 << v
                back[v] |= 1 << u
            v = u
        flow += 1
    return flow


def _vertex_flow(split: Sequence[int], s: int, t: int, cutoff: int) -> int:
    """Max number of internally vertex-disjoint s-t paths, capped at cutoff."""
    return _unit_flow(split, 2 * s + 1, 2 * t, cutoff)


def _edge_flow(masks: Sequence[int], s: int, t: int, cutoff: int) -> int:
    """Max number of edge-disjoint s-t paths, capped at cutoff."""
    return _unit_flow(masks, s, t, cutoff)


def _vertex_scan(masks: Sequence[int], alive: int, bound: int, floor: int = 0) -> int:
    """min(bound, kappa) of the subgraph induced on the bits of ``alive``; a complete
    subgraph, which has no non-adjacent pair, reads as ``bound``.  Stops at ``floor``."""
    split: list[int] = []
    for v, m in enumerate(masks):
        # in -> out arc of a live vertex; "0".join spreads the neighbors to the in-nodes
        split.append((alive >> v & 1) << (2 * v + 1))
        split.append(int("0".join(f"{m:b}"), 2))
    best = bound
    for i, s in enumerate(_bits(alive)):
        if i >= best or best <= floor:
            break
        for t in _bits(alive & ~masks[s] & -(2 << s)):
            if best <= floor:
                break
            best = _vertex_flow(split, s, t, best)
    return best


def vertex_connectivity_value(g: Graph) -> int:
    """Vertex connectivity: 0 for disconnected graphs and K1, n-1 for complete graphs."""
    if g.n < 1:
        raise ValueError("connectivity requires at least one vertex")
    return _vertex_scan(g.neighbor_masks, (1 << g.n) - 1, min_degree(g))


def edge_connectivity_value(g: Graph) -> int:
    """Edge connectivity: 0 when disconnected or n = 1."""
    if g.n < 1:
        raise ValueError("connectivity requires at least one vertex")
    best = min_degree(g)
    for t in range(1, g.n):
        if best:
            best = _edge_flow(g.neighbor_masks, 0, t, best)
    return best


def _lex_min_vertex_cut(g: Graph, kappa: int) -> tuple[int, ...]:
    """Lexicographically smallest vertex set of size kappa whose removal disconnects g
    (none for a complete graph, whose scans all read as their cap kappa - |F| + 1)."""
    chosen: list[int] = []
    alive = (1 << g.n) - 1
    for v in range(g.n):
        rest = kappa - len(chosen) - 1
        if rest >= 0 and _vertex_scan(g.neighbor_masks, alive ^ 1 << v, rest + 1, rest) == rest:
            chosen.append(v)
            alive ^= 1 << v
    return tuple(chosen)


def _lex_min_edge_cut(g: Graph, kappa_p: int) -> tuple[tuple[int, int], ...]:
    """Lexicographically smallest edge set of size kappa_p whose removal disconnects g."""
    chosen: list[tuple[int, int]] = []
    masks = list(g.neighbor_masks)
    for u, v in g.edges():
        rest = kappa_p - len(chosen) - 1
        if rest < 0:
            break
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u
        if _edge_flow(masks, u, v, rest + 1) == rest:
            chosen.append((u, v))
        else:
            masks[u] ^= 1 << v
            masks[v] ^= 1 << u
    return tuple(chosen)


def vertex_connectivity(g: Graph) -> tuple[int, CutWitness]:
    """Vertex connectivity with a minimum-cut witness.

    Complete graphs (including K1) have no vertex cut: the witness carries
    the ``complete`` flag, empty members and size ``n - 1``.
    """
    value = vertex_connectivity_value(g)
    cut = _lex_min_vertex_cut(g, value)
    return value, CutWitness("vertex-cut", cut, value, complete=value == g.n - 1)


def edge_connectivity(g: Graph) -> tuple[int, CutWitness]:
    """Edge connectivity with a minimum-cut witness (empty members when no cut exists)."""
    value = edge_connectivity_value(g)
    return value, CutWitness("edge-cut", _lex_min_edge_cut(g, value), value, complete=g.n == 1)


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff the graph has more than ``k`` vertices and connectivity at least ``k``."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return g.n > k and _vertex_scan(g.neighbor_masks, (1 << g.n) - 1, k) >= k
