"""Exact vertex and edge connectivity via unit-capacity maximum flow.

``_augment`` is the one augmenting step, a shortest path on a flow kept as
bitmasks (Edmonds and Karp, J. ACM 1972).  ``_flow`` is the one driver behind
every connectivity flow (``_vertex_flow``, ``_edge_flow`` and the witness
greedy's ``_augmented``): it tops the kept paths up with ``_short_paths``,
disjoint paths of at most three edges read off the neighbor masks, loads
them as a flow and augments up to the cap, so in dense graphs most flows
end without a search, and so does many a witness repair.
``_scan`` is the one value rule for both modes: edge connectivity is the
least flow from vertex 0 to a sink ``t != 0``, and vertex connectivity the
least flow between Even's pairs (``_even_pairs``) in the vertex-split
digraph (``_split``), which the scan builds only when a flow is needed.
Witnesses are the lexicographically smallest minimum cuts, found greedily by
``_lex_min_vertex_cut`` and ``_lex_min_edge_cut``.  Before any flow, each
greedy tries a certificate read off the masks of the live graph: a vertex
or endpoint whose star is a minimum cut accepts a candidate, and, for the
vertex greedy, neighbors that share enough common neighbors reject one
(``_star_cut``, ``_joined``).  A certificate decides as the flow would, so
flows remain the fallback and the witnesses do not change.  Integer flows
make every value exact; all functions are pure.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import _NAMES
from .graphs import Graph, _bits, _reach, _vertex_cuts

__all__ = list(_NAMES["connectivity"])

class CutWitness(NamedTuple):
    """An explicit minimum cut, or the reason none exists.

    ``members`` is a sorted tuple of vertices (kind ``"vertex-cut"``) or of
    ``(u, v)`` edge pairs (kind ``"edge-cut"``) whose removal disconnects
    the graph.  For complete graphs (vertex kind) and the one-vertex graph
    no cut exists: ``members`` is empty, ``size`` still reports the
    connectivity value and ``complete`` is set.  For graphs that are
    already disconnected ``members`` is empty with ``size`` 0.

    A ``NamedTuple``, like ``graphs.Bipartition``: immutable, hashable, and
    equal to any tuple with the same fields.
    """

    kind: str
    members: tuple
    size: int
    complete: bool = False


def _augment(arcs: Sequence[int], fwd: list[int], back: list[int], s: int, t: int) -> bool:
    """One augmenting search: push a unit along a shortest s-t path of the residual
    digraph of the flow ``fwd``/``back``, in place; False when t is unreachable.

    The digraph has a unit arc ``u -> v`` for every bit ``v`` of ``arcs[u]``.
    Bit ``v`` of ``fwd[u]`` is one unit on ``u -> v`` and ``back`` is the
    transpose of ``fwd``.  Along the path a unit on the reverse arc is
    cancelled before the arc itself is used, so antiparallel arcs (the two
    directions of an undirected edge) never both carry flow.

    The search runs one layer at a time: the next layer is the OR of the
    residual masks ``(arcs[u] & ~fwd[u]) | back[u]`` of the frontier's
    nodes, less the nodes already seen, and a layer stops as soon as t's bit
    shows up.  The walk back from t then takes, at each stored frontier, its
    highest node whose residual mask holds the current node.  It pushes the
    unit on that arc before moving on, which is safe because the frontiers
    are disjoint: a frontier's residual masks are read before any of its
    nodes is touched.

    Taking the highest node only picks one of the shortest paths, so no flow
    value changes.  It matters to the vertex witness greedy, which tries
    candidates in increasing order and repairs a kept path whenever the
    candidate lies on it: a path through high labels is met late, if at
    all.  On the ladder P_m x K2 in its natural labels, a lowest-node walk
    would lead each repaired path through the next candidate, so the greedy
    would repair every pair at every step.
    """
    layers = []
    frontier = 1 << s
    unseen = ((1 << len(arcs)) - 1) ^ frontier
    nxt = 0
    while not nxt >> t & 1:
        if not frontier:
            return False
        layers.append(frontier)
        nxt = 0
        while frontier:
            low = frontier & -frontier
            u = low.bit_length() - 1
            nxt |= (arcs[u] & ~fwd[u]) | back[u]
            if nxt >> t & 1:
                break
            frontier ^= low
        frontier = nxt & unseen
        unseen ^= frontier
    v = t
    for layer in reversed(layers):
        while True:
            u = layer.bit_length() - 1
            low = 1 << u
            if back[u] >> v & 1:
                back[u] ^= 1 << v
                fwd[v] ^= 1 << u
                break
            if arcs[u] >> v & 1 and not fwd[u] >> v & 1:
                fwd[u] |= 1 << v
                back[v] |= 1 << u
                break
            layer ^= low
        v = u
    return True


def _short_paths(
    arcs: Sequence[int], s: int, t: int, cap: int, off: int, taken: int
) -> list[list[int]]:
    """Up to ``cap`` internally vertex-disjoint s-t paths of at most three edges, as
    lists of their inner vertices, packed greedily: the edge st, then the common
    neighbors of s and t, then for each other neighbor a of s the lowest free
    neighbor b of t adjacent to a.  No path enters a node of the mask ``taken``:
    the in-nodes of paths the caller already holds, so the two sets of paths
    stay disjoint.

    ``off`` is 1 for the vertex-split digraph, where vertex w enters at node
    ``2w`` and leaves at ``2w + 1``, and 0 for the graph's own masks, where
    both are node w.  Only live vertices are used: those whose entry node
    has an arc.  In the split that is the in -> out arc, which the witness
    greedy clears; in the graph every neighbor of s or t has one.

    Disjoint paths are a feasible unit flow in both digraphs, and augmenting
    from any feasible flow reaches the maximum (Ford and Fulkerson 1956), so
    a flow seeded here keeps its exact value, and with it every decision of
    the witness greedies.  Dense graphs mostly reach the cap here and need
    no search at all.
    """
    src, dst = s << off, t << off
    ns, nt = arcs[src | off] & ~taken, arcs[dst | off] & ~taken
    paths: list[list[int]] = [[]] if ns >> dst & 1 and cap > 0 else []
    need = cap - len(paths)
    common = ns & nt
    while common and need:
        low = common & -common
        x = low.bit_length() - 1
        if arcs[x]:
            paths.append([x >> off])
            need -= 1
        common ^= low
    # the a's miss t's neighbors and the b's miss s's, so the two sides never meet
    rest = ns & ~nt & ~(1 << dst)
    free = nt & ~ns & ~(1 << src)
    while rest and free and need:
        low = rest & -rest
        a = low.bit_length() - 1
        rest ^= low
        if not arcs[a]:
            continue
        ends = arcs[a | off] & free
        while ends:
            low = ends & -ends
            free ^= low
            b = low.bit_length() - 1
            if arcs[b]:
                paths.append([a >> off, b >> off])
                need -= 1
                break
            ends ^= low
    return paths


def _flow(
    arcs: Sequence[int], s: int, t: int, paths: list[list[int]], cap: int, off: int
) -> tuple[list[list[int]], int, list[int] | None]:
    """``(paths, flow, fwd)``: an s-t flow of up to ``cap`` units that extends the one
    of the disjoint ``paths`` (inner vertices, laid out as in ``_short_paths``).

    ``paths`` is first topped up by ``_short_paths`` through the vertices it
    leaves free (with no paths, that is the plain seed), so a witness repair
    that finds a short replacement path needs no search.  The union is still
    a set of disjoint paths, a feasible flow, so the augmenting searches that
    extend it reach the exact capped maximum.  Only the vertex witness greedy
    keeps paths, in the split digraph (``off`` 1), where s and t are
    non-adjacent: the direct-edge path ``[]`` is then never offered, so it
    cannot repeat one of ``paths``.

    The ``paths`` returned are the topped-up ones, and ``fwd`` is the final
    flow as in ``_augment``, or ``None`` when those paths reach the cap
    unaided.
    """
    # the in-nodes 2w of the kept paths' vertices w, spread as in ``_split``
    taken = int("0".join(f"{_path_bits(paths):b}"), 2) if paths else 0
    paths = paths + _short_paths(arcs, s, t, cap - len(paths), off, taken)
    flow = len(paths)
    if flow >= cap:
        return paths, flow, None
    fwd = [0] * len(arcs)
    back = [0] * len(arcs)
    for path in paths:
        u = s << off | off
        for w in path:
            x = w << off
            fwd[u] |= 1 << x
            back[x] |= 1 << u
            if off:
                fwd[x] |= 1 << x + 1
                back[x + 1] |= 1 << x
            u = x | off
        fwd[u] |= 1 << (t << off)
        back[t << off] |= 1 << u
    while flow < cap and _augment(arcs, fwd, back, s << off | off, t << off):
        flow += 1
    return paths, flow, fwd


def _vertex_flow(split: Sequence[int], s: int, t: int, cutoff: int) -> int:
    """Max number of internally vertex-disjoint s-t paths, capped at cutoff, in the
    vertex-split digraph ``split``."""
    return _flow(split, s, t, [], cutoff, 1)[1]


def _edge_flow(masks: Sequence[int], s: int, t: int, cutoff: int) -> int:
    """Max number of edge-disjoint s-t paths, capped at cutoff."""
    return _flow(masks, s, t, [], cutoff, 0)[1]


def _split(masks: Sequence[int]) -> list[int]:
    """Arcs of the vertex-split digraph: in-node ``2v`` -> out-node ``2v + 1`` for each
    vertex ``v``, out-node ``2v + 1`` -> in-node ``2w`` for each neighbor ``w``."""
    split: list[int] = []
    for v, m in enumerate(masks):
        # "0".join spreads the neighbors to the in-nodes
        split.append(1 << (2 * v + 1))
        split.append(int("0".join(f"{m:b}"), 2))
    return split


def _even_pairs(masks: Sequence[int], sources: int) -> Iterator[tuple[int, int]]:
    """Even's pairs ``(s, t)`` in lexicographic order: each source ``s`` among
    the first ``sources`` vertices with each later non-neighbor ``t``."""
    full = (1 << len(masks)) - 1
    for s in range(min(sources, len(masks))):
        for t in _bits(full & ~masks[s] & -(2 << s)):
            yield s, t


def _scan(masks: Sequence[int], digraph: Callable, flow: Callable, pairs: Iterable) -> int:
    """The connectivity of the graph of ``masks``: the least ``flow`` in the
    digraph ``digraph(masks)`` over ``pairs``, each capped at the best value
    so far.  The scan starts from the minimum degree delta, an upper bound,
    so a complete graph, which has no non-adjacent pair, reads as delta =
    n - 1.  When delta <= 1 the value is delta if the graph is connected and
    0 otherwise, so no flow runs and the digraph is never built.

    The scan stops at the first pair whose source is not below the best
    value.  For kappa, ``pairs`` are Even's pairs in the vertex-split
    digraph (Even, SIAM J. Comput. 1975; Esfahanian and Hakimi, Networks
    1984): of the first kappa + 1 vertices one lies outside a minimum cut
    ``S``, and the first such one has all smaller vertices in ``S``, so
    ``S`` separates it from a later vertex.  While the best value exceeds
    kappa, the separating pair's source ranks at most kappa, below it, so
    the scan reaches that pair first.  For lambda, ``pairs`` are ``(0, t)``
    for every sink ``t != 0``, as every edge cut separates vertex 0 from
    some vertex, and source 0 stops the scan only once the value is 0.
    """
    if not masks:
        raise ValueError("connectivity requires at least one vertex")
    full = (1 << len(masks)) - 1
    best = min(map(int.bit_count, masks))
    if best <= 1:
        # the value is >= 1 iff the graph is connected, so no flow is needed
        return best if _reach(masks, 1, full) == full else 0
    arcs = digraph(masks)
    for s, t in pairs:
        if s >= best:
            break
        best = flow(arcs, s, t, best)
    return best


def vertex_connectivity_value(g: Graph) -> int:
    """Vertex connectivity: 0 for disconnected graphs and K1, n-1 for complete graphs."""
    return _scan(g.neighbor_masks, _split, _vertex_flow, _even_pairs(g.neighbor_masks, g.n))


def edge_connectivity_value(g: Graph) -> int:
    """Edge connectivity: 0 when disconnected or n = 1."""
    return _scan(g.neighbor_masks, tuple, _edge_flow, ((0, t) for t in range(1, g.n)))


def _augmented(
    split: Sequence[int], s: int, t: int, paths: list[list[int]], cap: int
) -> list[list[int]]:
    """Internally vertex-disjoint s-t paths (inner vertices only) of a flow that
    extends the one of ``paths``, up to ``cap`` paths: ``_flow``'s flow, split
    into paths for the witness greedy."""
    paths, flow, fwd = _flow(split, s, t, paths, cap, 1)
    if flow == len(paths):
        return paths
    # every inner in-node carries at most one unit, so the flow splits into paths
    result = []
    for node in _bits(fwd[2 * s + 1]):
        path = []
        while node != 2 * t:
            path.append(node >> 1)
            node = fwd[node + 1].bit_length() - 1
        result.append(path)
    return result


def _path_bits(paths: list[list[int]]) -> int:
    """Bitmask of the vertices on ``paths``."""
    used = 0
    for path in paths:
        for w in path:
            used |= 1 << w
    return used


def _star_cut(masks: Sequence[int], near: int, alive: int, cap: int) -> bool:
    """True when some vertex w of ``near`` has exactly ``cap`` neighbors in ``alive``
    and at least two vertices of ``alive`` (w itself and another) lie outside them.

    The neighbors of w in ``alive`` then separate w from that other vertex.
    """
    return any(
        (masks[w] & alive).bit_count() == cap and (alive & ~masks[w]).bit_count() >= 2
        for w in _bits(near)
    )


def _joined(masks: Sequence[int], near: int, live: int, cap: int) -> bool:
    """True when every two vertices of ``near`` have at least ``cap`` common
    neighbors in ``live``."""
    heads = [masks[a] & live for a in _bits(near)]
    return all((x & y).bit_count() >= cap for x, y in combinations(heads, 2))


def _lex_min_vertex_cut(g: Graph, kappa: int) -> tuple[int, ...]:
    """Lexicographically smallest vertex set of size kappa whose removal disconnects g
    (none for a complete graph, which has no non-adjacent pair).

    The greedy is exact: a vertex joins the kept set F when removing it
    leaves connectivity exactly kappa - |F| - 1, and removing any set T
    leaves at least kappa - |T| (``_lex_min_edge_cut`` is the same greedy on
    edges).  So with cap = kappa - |F| = kappa(G - F), candidate v joins F
    iff G - F - v has a cut S' of cap - 1 vertices.

    Two certificates on the live graph G - F decide most candidates before
    any flow; each decides as the flows below would, so the witness is the
    same either way.

    * Accept (``_star_cut``): v has a live neighbor w of live degree cap, and
      at least two live vertices, w and some x, lie outside N(w).  Then
      N_live(w) separates w from x, so it is a cut of G - F of size cap,
      and it contains v: S' = N_live(w) - v cuts G - F - v.
    * Reject (``_joined``): every two live neighbors of v share at least cap
      live common neighbors other than v.  Suppose S' cut G - F - v.  Any two
      neighbors of v outside S' keep a common neighbor outside S', which
      has only cap - 1 vertices, so they lie in one component, and putting
      v back merges no two components.  S' would then cut G - F with fewer
      than kappa(G - F) = cap vertices, which is impossible.

    The flows decide the rest.  The greedy keeps one flow per Even pair: s
    among the first kappa + 1 vertices and a later non-neighbor t.  If
    G - F - v has a cut S' of size cap - 1, then F + v + S' has at most
    kappa vertices, so by Even's rule (see ``_scan``) it separates
    such a pair whose source ranks below cap among the live vertices of
    G - F - v; the pairs therefore serve every step, once those containing
    a chosen vertex are dropped, and a step reads only the pairs with such
    a source.

    Each pair keeps a flow as vertex paths and a bitmask of their inner
    vertices.  It is read, for candidate v with gone = F + v, only when v is
    not an endpoint and the mask meets gone: the paths that meet gone are
    dropped, and if fewer than cap remain, one ``_augmented`` call, with v's
    in -> out arc cleared, repairs the flow, capped at cap, in G - F - v.
    Candidate v joins F iff the repair falls short: the local connectivity
    in G - F - v is then cap - 1.  A new pair has no paths and an all-ones
    mask, so its first read builds its flow by the same rule.

    The rule is exact although a flow is only tidied when read.  At its last
    read, with the F' of that moment (v included if it was accepted), a pair
    had at least kappa - |F'| paths avoiding F'.  Its paths are internally
    disjoint, so each vertex chosen since, by a certificate or a flow,
    removes at most one of them, and at least cap are left for the current
    F.  So a read whose mask misses v never searches, a repaired flow avoids
    v and is a flow of G - F, and a candidate costs at most one search per
    pair, not a scan.
    """
    masks = g.neighbor_masks
    if kappa == 1:
        # the cut is one cut vertex: the first whose removal disconnects g, no flow needed
        return next(_vertex_cuts(masks, 1), ())
    full = (1 << g.n) - 1
    split = _split(masks)
    # Even's pairs with their kept flows as paths and inner-vertex bitmask; the all-ones
    # mask of a new pair makes its first read build its flow
    pairs = [[s, t, [], full] for s, t in _even_pairs(masks, kappa + 1)]
    chosen: list[int] = []
    alive = full
    for v in range(g.n):
        cap = kappa - len(chosen)
        if cap <= 0:
            break
        live = alive ^ 1 << v
        near = masks[v] & live
        # the certificates first; the pair flows decide v only when neither applies
        cut = _star_cut(masks, near, alive, cap)
        if not cut:
            if _joined(masks, near, live, cap):
                continue
            split[2 * v] = 0
            gone = {*chosen, v}
            # Even's rule: the source ranks below cap among the live vertices of G - F - v
            sources = live
            for _ in range(cap - 1):
                sources &= sources - 1
            last = (sources & -sources).bit_length() - 1
            for pair in pairs:
                s, t, paths, used = pair
                if s > last:
                    break
                if v == s or v == t or not used & ~live:
                    continue
                paths = [path for path in paths if gone.isdisjoint(path)]
                if len(paths) < cap:
                    paths = _augmented(split, s, t, paths, cap)
                pair[2], pair[3] = paths, _path_bits(paths)
                cut = len(paths) < cap
                if cut:
                    break
            if not cut:
                split[2 * v] = 1 << 2 * v + 1
                continue
        split[2 * v] = 0
        chosen.append(v)
        alive = live
        pairs = [pair for pair in pairs if v != pair[0] and v != pair[1]]
    return tuple(chosen)


def _lex_min_edge_cut(g: Graph, kappa_p: int) -> tuple[tuple[int, int], ...]:
    """Lexicographically smallest edge set of size kappa_p whose removal disconnects g.

    Each edge test is a single flow: while F is extendable, lambda(G - F) =
    kappa' - |F|, so a cut of size kappa' - |F| - 1 in G - F - uv must
    separate u from v (one that left them together would already cut
    G - F), and the u-v flow in G - F - uv, capped at kappa' - |F|, decides
    the candidate (Menger; Ford and Fulkerson 1956).

    A degree certificate decides many candidates with no flow: when u or v
    has degree rest = kappa' - |F| - 1 in G - F - uv, its star there, with F
    and uv, is a cut of kappa' edges that isolates it, so uv joins F, as the
    flow (at least rest, since lambda(G - F) = rest + 1) would decide.
    """
    chosen: list[tuple[int, int]] = []
    masks = list(g.neighbor_masks)
    for u, v in g.edges():
        rest = kappa_p - len(chosen) - 1
        if rest < 0:
            break
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u
        if (
            masks[u].bit_count() == rest
            or masks[v].bit_count() == rest
            or _edge_flow(masks, u, v, rest + 1) == rest
        ):
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

