"""Exact vertex and edge connectivity via unit-capacity maximum flow.

One kernel, ``_unit_flow``, computes every flow.  It works on out-neighbor
bitmasks, like the rest of the package: node ``u`` has a unit arc to every
bit of ``arcs[u]``, the flow is kept as bitmasks too, and each augmenting
path is a shortest residual path found by breadth-first search.  No flow
network is built per ``(s, t)`` pair.

Edge connectivity is the minimum over sinks ``t != 0`` of the flow from
vertex 0, run directly on ``Graph.neighbor_masks`` (an undirected edge is
a pair of antiparallel unit arcs).

Vertex connectivity of a non-complete graph is the minimum over
non-adjacent pairs ``(s, t)`` of the number of internally vertex-disjoint
``s``-``t`` paths.  These are flows in the vertex-split digraph, built once
per graph: in-node ``2v`` has one arc to out-node ``2v + 1``, and out-node
``2u + 1`` has an arc to in-node ``2w`` for every neighbor ``w`` of ``u``.
Sources are bounded by Even's rule (Even, SIAM J. Comput. 1975; Esfahanian
and Hakimi, Networks 1984): only ``s = 0, ..., kappa`` are needed, so the
scan stops at the first ``s`` not below the best value found.  Of the
kappa + 1 vertices ``0..kappa`` one lies outside a minimum cut ``S``; the
first such vertex has all smaller vertices in ``S``, so ``S`` separates it
from some larger vertex.

Integer flows make both computations exact.

All functions are pure; witnesses are deterministic: among all minimum
cuts the lexicographically smallest member list is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, is_connected, min_degree

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


def vertex_connectivity_value(g: Graph) -> int:
    """Vertex connectivity: 0 for disconnected graphs and K1, n-1 for complete graphs."""
    if g.n < 1:
        raise ValueError("connectivity requires at least one vertex")
    if not is_connected(g):
        return 0
    split: list[int] = []
    for v in range(g.n):
        split.append(1 << (2 * v + 1))
        split.append(sum(1 << 2 * w for w in g.neighbors(v)))
    best = min_degree(g)
    for s in range(g.n):
        if s >= best:
            break
        for t in range(s + 1, g.n):
            if not g.has_edge(s, t):
                best = min(best, _vertex_flow(split, s, t, best))
    return best


def edge_connectivity_value(g: Graph) -> int:
    """Edge connectivity: 0 when disconnected or n = 1."""
    if g.n < 1:
        raise ValueError("connectivity requires at least one vertex")
    if not is_connected(g):
        return 0
    best = min_degree(g)
    for t in range(1, g.n):
        best = min(best, _edge_flow(g.neighbor_masks, 0, t, best))
    return best


def _lex_min_vertex_cut(g: Graph, kappa: int) -> tuple[int, ...]:
    """Lexicographically smallest vertex set of size kappa whose removal disconnects g.

    Greedy: a prefix F extends to a minimum cut iff the graph minus F has
    connectivity exactly kappa - |F| (removing part of a minimum cut can
    never drop connectivity below that, and a matching cut of the
    remainder completes F).  At |F| = kappa that connectivity is 0, which
    means disconnected: g is not complete, so at least two vertices remain.
    """
    chosen: list[int] = []
    for v in range(g.n):
        if len(chosen) == kappa:
            break
        trial = chosen + [v]
        sub = g.induced(u for u in range(g.n) if u not in trial)
        if vertex_connectivity_value(sub) == kappa - len(trial):
            chosen.append(v)
    return tuple(chosen)


def _lex_min_edge_cut(g: Graph, kappa_p: int) -> tuple[tuple[int, int], ...]:
    chosen: list[tuple[int, int]] = []
    for e in g.edges():
        if len(chosen) == kappa_p:
            break
        trial = chosen + [e]
        sub = g.with_edges_changed(removed=trial)
        if edge_connectivity_value(sub) == kappa_p - len(trial):
            chosen.append(e)
    return tuple(chosen)


def vertex_connectivity(g: Graph) -> tuple[int, CutWitness]:
    """Vertex connectivity with a minimum-cut witness.

    Complete graphs (including K1) have no vertex cut: the witness carries
    the ``complete`` flag, empty members and size ``n - 1``.
    """
    value = vertex_connectivity_value(g)
    if value == g.n - 1:
        return value, CutWitness("vertex-cut", (), value, complete=True)
    return value, CutWitness("vertex-cut", _lex_min_vertex_cut(g, value), value)


def edge_connectivity(g: Graph) -> tuple[int, CutWitness]:
    """Edge connectivity with a minimum-cut witness (empty members when no cut exists)."""
    value = edge_connectivity_value(g)
    return value, CutWitness("edge-cut", _lex_min_edge_cut(g, value), value, complete=g.n == 1)


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff the graph has more than ``k`` vertices and connectivity at least ``k``."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return g.n > k and vertex_connectivity_value(g) >= k
