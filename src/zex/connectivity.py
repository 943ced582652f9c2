"""Exact vertex and edge connectivity via unit-capacity maximum flow.

Vertex connectivity of a non-complete graph is the minimum over
non-adjacent pairs ``(s, t)`` of the number of internally vertex-disjoint
``s``-``t`` paths, computed by max-flow on the vertex-split digraph (every
vertex becomes an in/out arc of capacity one).  Edge connectivity is the
minimum over sinks ``t != s0`` of max-flow with unit edge capacities.

Integer flows make both computations exact; graphs here are small enough
(order <= 62) that asymptotics are irrelevant.

All functions are pure; witnesses are deterministic: among all minimum
cuts the lexicographically smallest member list is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class _Dinic:
    """Unit-capacity max flow (shortest augmenting paths, blocking flow)."""

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, c: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int, cutoff: int) -> int:
        flow = 0
        to, cap, head = self.to, self.cap, self.head
        while flow < cutoff:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in head[u]:
                    v = to[e]
                    if cap[e] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                break
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(head[u]):
                    e = head[u][it[u]]
                    v = to[e]
                    if cap[e] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, cap[e]))
                        if got:
                            cap[e] -= got
                            cap[e ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while flow < cutoff:
                pushed = dfs(s, cutoff - flow)
                if not pushed:
                    break
                flow += pushed
        return flow


def _vertex_flow(g: Graph, s: int, t: int, cutoff: int) -> int:
    """Max number of internally vertex-disjoint s-t paths, capped at cutoff."""
    n = g.n
    net = _Dinic(2 * n)
    big = n  # effectively infinite for unit vertex capacities
    for v in range(n):
        net.add_edge(2 * v, 2 * v + 1, 1 if v not in (s, t) else big)
    for u, v in g.edges():
        net.add_edge(2 * u + 1, 2 * v, big)
        net.add_edge(2 * v + 1, 2 * u, big)
    return net.max_flow(2 * s + 1, 2 * t, cutoff)


def _edge_flow(g: Graph, s: int, t: int, cutoff: int) -> int:
    net = _Dinic(g.n)
    for u, v in g.edges():
        net.add_edge(u, v, 1)
        net.add_edge(v, u, 1)
    return net.max_flow(s, t, cutoff)


def _is_complete(g: Graph) -> bool:
    return g.num_edges == g.n * (g.n - 1) // 2


def vertex_connectivity_value(g: Graph) -> int:
    """Vertex connectivity: 0 for disconnected graphs and K1, n-1 for complete graphs."""
    if g.n < 1:
        raise ValueError("connectivity requires at least one vertex")
    if not is_connected(g):
        return 0
    if _is_complete(g):
        return g.n - 1
    best = min_degree(g)
    masks = g.neighbor_masks
    for s in range(g.n):
        if best == 0:
            break
        for t in range(s + 1, g.n):
            if masks[s] >> t & 1:
                continue
            best = min(best, _vertex_flow(g, s, t, best))
    return best


def edge_connectivity_value(g: Graph) -> int:
    """Edge connectivity: 0 when disconnected or n = 1."""
    if g.n < 1:
        raise ValueError("connectivity requires at least one vertex")
    if g.n == 1:
        return 0
    if not is_connected(g):
        return 0
    best = min_degree(g)
    for t in range(1, g.n):
        if best == 0:
            break
        best = min(best, _edge_flow(g, 0, t, best))
    return best


def _lex_min_vertex_cut(g: Graph, kappa: int) -> tuple[int, ...]:
    """Lexicographically smallest vertex set of size kappa whose removal disconnects g.

    Greedy: a prefix F extends to a minimum cut iff the graph minus F has
    connectivity exactly kappa - |F| (removing part of a minimum cut can
    never drop connectivity below that, and a matching cut of the
    remainder completes F).
    """
    chosen: list[int] = []
    for v in range(g.n):
        if len(chosen) == kappa:
            break
        trial = chosen + [v]
        sub = g.induced(u for u in range(g.n) if u not in trial)
        if len(trial) == kappa:
            ok = not is_connected(sub) and sub.n >= 2
        else:
            ok = sub.n >= 2 and vertex_connectivity_value(sub) == kappa - len(trial)
        if ok:
            chosen.append(v)
    return tuple(chosen)


def _lex_min_edge_cut(g: Graph, kappa_p: int) -> tuple[tuple[int, int], ...]:
    chosen: list[tuple[int, int]] = []
    for e in g.edges():
        if len(chosen) == kappa_p:
            break
        trial = chosen + [e]
        sub = g.with_edges_changed(removed=trial)
        if len(trial) == kappa_p:
            ok = not is_connected(sub)
        else:
            ok = edge_connectivity_value(sub) == kappa_p - len(trial)
        if ok:
            chosen.append(e)
    return tuple(chosen)


def vertex_connectivity(g: Graph) -> tuple[int, CutWitness]:
    """Vertex connectivity with a minimum-cut witness.

    Complete graphs (including K1) have no vertex cut: the witness carries
    the ``complete`` flag, empty members and size ``n - 1``.
    """
    if g.n >= 1 and _is_complete(g):
        return g.n - 1, CutWitness("vertex-cut", (), g.n - 1, complete=True)
    value = vertex_connectivity_value(g)
    if value == 0:
        return 0, CutWitness("vertex-cut", (), 0)
    members = _lex_min_vertex_cut(g, value)
    return value, CutWitness("vertex-cut", members, value)


def edge_connectivity(g: Graph) -> tuple[int, CutWitness]:
    """Edge connectivity with a minimum-cut witness (empty members when no cut exists)."""
    if g.n == 1:
        return 0, CutWitness("edge-cut", (), 0, complete=True)
    value = edge_connectivity_value(g)
    if value == 0:
        return 0, CutWitness("edge-cut", (), 0)
    members = _lex_min_edge_cut(g, value)
    return value, CutWitness("edge-cut", members, value)


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff the graph has more than ``k`` vertices and connectivity at least ``k``."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return g.n > k and vertex_connectivity_value(g) >= k
