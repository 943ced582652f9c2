"""The ``witness`` workload: a seeded batch of graphs of orders 10-60.

The batch has one graph per slot in ``SLOTS``.  A slot is a
``predicted_extremal`` graph, a ``build_family`` member, or a connected
bipartite graph drawn by this file.  A slot has ``VARIANTS`` fixed
labelings (random relabelings, or fresh random bipartite graphs); the
run seed picks one variant per seeded slot and the processing order.  So
every seed gives another batch, and every variant has a reference result
committed under ``reference/``.

Two processes per repetition::

    python3 perfbench/witness.py setup SEED OUT_DIR [--smoke]
    python3 perfbench/witness.py work IN_DIR RESULT_JSON [--trace-dir DIR]

``setup`` writes one graph6 file per graph and a ``manifest.json``;
``work`` decodes each graph, computes ``m1``/``m2``, vertex and edge
connectivity with their lex-min witnesses and, up to order 16, the
canonical form, timing each graph.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

VARIANTS = 8
SMOKE_MAX_ORDER = 16

# (kind, n, params, labels).  predicted: (c,); family: (k, r);
# bipartite: (edge probability in percent,).  labels: "seeded" picks one
# of VARIANTS random relabelings (or random bipartite graphs) per seed;
# "fixed" always uses variant 0; "natural" keeps the labels as built.
# The lex-min witness search costs up to 2x more or less under another
# relabeling, so the few slots that take seconds do not vary with the
# seed, and the batch takes about the same time for every seed.  Relabeled,
# the order-50 and order-60 graphs would take 20-100 s each.
SLOTS = (
    ("predicted", 10, (2,), "seeded"),
    ("predicted", 11, (5,), "seeded"),
    ("predicted", 12, (3,), "seeded"),
    ("predicted", 13, (6,), "seeded"),
    ("predicted", 14, (1,), "seeded"),
    ("predicted", 15, (4,), "seeded"),
    ("predicted", 16, (7,), "seeded"),
    ("family", 12, (2, 4), "seeded"),
    ("family", 14, (3, 5), "seeded"),
    ("family", 16, (2, 6), "seeded"),
    ("bipartite", 10, (50,), "seeded"),
    ("bipartite", 12, (50,), "seeded"),
    ("bipartite", 14, (40,), "seeded"),
    ("bipartite", 16, (40,), "seeded"),
    ("predicted", 10, (5,), "seeded"),
    ("predicted", 11, (2,), "seeded"),
    ("predicted", 12, (6,), "seeded"),
    ("predicted", 13, (1,), "seeded"),
    ("predicted", 14, (4,), "seeded"),
    ("predicted", 15, (7,), "seeded"),
    ("predicted", 16, (3,), "seeded"),
    ("family", 10, (1, 3), "seeded"),
    ("family", 11, (2, 5), "seeded"),
    ("family", 13, (4, 6), "seeded"),
    ("family", 15, (5, 6), "seeded"),
    ("bipartite", 11, (50,), "seeded"),
    ("bipartite", 13, (45,), "seeded"),
    ("bipartite", 15, (40,), "seeded"),
    ("predicted", 17, (8,), "seeded"),
    ("predicted", 18, (8,), "seeded"),
    ("predicted", 19, (2,), "seeded"),
    ("predicted", 20, (5,), "seeded"),
    ("predicted", 21, (9,), "seeded"),
    ("predicted", 22, (3,), "seeded"),
    ("predicted", 24, (11,), "seeded"),
    ("family", 18, (4, 6), "seeded"),
    ("family", 20, (1, 7), "seeded"),
    ("family", 22, (6, 9), "seeded"),
    ("family", 26, (10, 11), "seeded"),
    ("bipartite", 18, (40,), "seeded"),
    ("bipartite", 20, (35,), "seeded"),
    ("bipartite", 22, (35,), "seeded"),
    ("bipartite", 24, (30,), "seeded"),
    ("bipartite", 26, (30,), "seeded"),
    ("bipartite", 28, (30,), "seeded"),
    ("predicted", 30, (14,), "fixed"),
    ("predicted", 60, (3,), "natural"),
)


def slot_graph(index: int, variant: int):
    """The graph of one slot variant, built through the public zex API."""
    import zex

    kind, n, params, labels = SLOTS[index]
    rng = random.Random(f"{index}:{variant}")
    if kind == "predicted":
        g = zex.predicted_extremal(n, params[0], "vertex")
    elif kind == "family":
        g = zex.build_family(zex.FamilyParams(n, *params))
    else:
        g = zex.Graph(n, _random_connected_bipartite(rng, n, params[0]))
    if labels != "natural":
        perm = list(range(n))
        rng.shuffle(perm)
        g = g.relabeled(perm)
    return g


def _random_connected_bipartite(rng: random.Random, n: int, percent: int) -> list:
    left = n // 2 - rng.randint(0, n // 6)
    while True:
        edges = [(u, v) for u in range(left) for v in range(left, n)
                 if rng.randrange(100) < percent]
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        todo = [0]
        while todo:
            for w in adj[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        if len(seen) == n:
            return edges


def choose(seed: int, smoke: bool = False) -> list[tuple[int, int]]:
    """(slot, variant) pairs of the batch for ``seed``, in processing order."""
    rng = random.Random(seed)
    picks = [(i, rng.randrange(VARIANTS) if slot[3] == "seeded" else 0)
             for i, slot in enumerate(SLOTS)]
    rng.shuffle(picks)
    if smoke:
        picks = [(i, v) for i, v in picks if SLOTS[i][1] <= SMOKE_MAX_ORDER]
    return picks


def setup(seed: int, out_dir: str, smoke: bool = False) -> None:
    from zex import encode_graph6

    os.makedirs(out_dir, exist_ok=True)
    manifest = []
    for pos, (index, variant) in enumerate(choose(seed, smoke)):
        name = f"{pos:03d}.g6"
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(encode_graph6(slot_graph(index, variant)) + b"\n")
        manifest.append({"slot": index, "variant": variant, "file": name})
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)


def work(in_dir: str, result_path: str) -> None:
    import zex

    with open(os.path.join(in_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    results = []
    for item in manifest:
        with open(os.path.join(in_dir, item["file"]), "rb") as fh:
            data = fh.read().strip()
        start = time.perf_counter()
        g = zex.decode_graph6(data)
        v1, v2 = zex.m1(g), zex.m2(g)
        kappa, vcut = zex.vertex_connectivity(g)
        lam, ecut = zex.edge_connectivity(g)
        form = zex.canonical_form(g).decode("ascii") if g.n <= 16 else None
        ms = (time.perf_counter() - start) * 1000.0
        results.append({
            "slot": item["slot"], "variant": item["variant"], "n": g.n,
            "m1": v1, "m2": v2, "kappa": kappa, "vertex_cut": list(vcut.members),
            "lambda": lam, "edge_cut": [list(e) for e in ecut.members],
            "canonical": form, "ms": ms,
        })
    with open(result_path, "w") as fh:
        json.dump(results, fh)


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        setup(int(argv[1]), argv[2], smoke="--smoke" in argv)
        return 0
    in_dir, result_path = argv[1], argv[2]
    tracer = None
    if "--trace-dir" in argv:
        import tracer as tracing

        tracer = tracing.install(argv[argv.index("--trace-dir") + 1])
    try:
        work(in_dir, result_path)
    finally:
        if tracer is not None:
            tracer.dump()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
