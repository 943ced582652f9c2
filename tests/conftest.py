"""Shared graph generators for the test suite, ``run_python`` and
``run_zex`` for tests that need a fresh interpreter with a timeout,
``sweep_classes`` for tests that read the sweep's classes one by one, and
``minimum_vertex_cuts``, the flow-free reference for the minimum cuts.

Randomized suites use ``random.Random`` seeded with DEFAULT_SEED for CI
determinism; hypothesis-based properties derandomize themselves.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import strategies as st

from zex import Graph

DEFAULT_SEED = 0

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(source: str, *argv: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``source`` in a fresh interpreter that imports zex from this checkout.

    A run that outlasts ``timeout`` seconds raises ``subprocess.TimeoutExpired``.
    """
    return _run_fresh(["-c", source, *argv], timeout)


def run_zex(*argv: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``python -m zex.cli`` with ``argv``, in a fresh interpreter as ``run_python`` does."""
    return _run_fresh(["-m", "zex.cli", *argv], timeout)


def _run_fresh(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout,
    )


def sweep_classes(n: int) -> dict[tuple[int, int, int], list[tuple]]:
    """``{task: [(masks, connectivity, values), ...]}`` over the tasks of the
    order-``n`` sweep: each class a task classifies, in walk order, as the
    leaf's single ``search._connectivity(masks)`` call sees and returns it.
    A class in two tasks is listed in both."""
    import zex.search as search

    classify = search._connectivity
    found = {}

    def recording(masks):
        result = classify(masks)
        found[task].append((tuple(masks), *result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_connectivity", recording)
        for task in search._sweep_tasks(n):
            found[task] = []
            search._sweep_chunk(task)
    return found


def minimum_vertex_cuts(g: Graph) -> list[frozenset[int]]:
    """All minimum vertex cuts, as the subsets of size kappa whose removal
    disconnects ``g``; kappa is the brute-force value, so no flow runs.
    Empty for complete graphs (no subset disconnects them) and for graphs
    that are already disconnected (kappa = 0)."""
    from zex.graphs import _vertex_cuts
    from zex.search import brute_force_vertex_connectivity

    kappa = brute_force_vertex_connectivity(g)
    return [frozenset(cut) for cut in _vertex_cuts(g.neighbor_masks, kappa)] if kappa else []


def row_and_column_class(rows: tuple[int, ...], q: int) -> tuple[int, ...]:
    """One key per class of 0/1 matrices under row and column permutations:
    the least sorted row tuple over all permutations of the ``q`` columns
    (row ``i`` is an int whose bit ``j`` is entry ``(i, j)``)."""
    return min(
        tuple(sorted(sum((row >> j & 1) << i for i, j in enumerate(perm)) for row in rows))
        for perm in permutations(range(q))
    )


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_bipartite(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    """Random bipartite graph with a random nontrivial part split."""
    left = rng.randint(1, n - 1)
    edges = [
        (u, v)
        for u in range(left)
        for v in range(left, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_bipartite(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    from zex import is_connected

    while True:
        g = random_bipartite(rng, n, p)
        if is_connected(g):
            return g


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 9):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, flags) if keep])
