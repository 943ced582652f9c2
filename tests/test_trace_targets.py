"""Guard for the benchmark tracer: every function it wraps must still exist
under the name it uses, and traced runs must still count the sweep kernels
and the connectivity witness layers."""

import importlib
import importlib.util
import os
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from conftest import row_and_column_class

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"

if not TRACER_PATH.exists():
    pytest.skip("perfbench/tracer.py is not in this checkout", allow_module_level=True)


def load_tracer():
    spec = importlib.util.spec_from_file_location("zex_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    for module_name, attr, _ in load_tracer().TARGETS:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{module_name}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"{module_name}.{attr}"


def run_traced(trace_dir, *zex_argv):
    """Run one zex command under the tracer in a subprocess; return the merged trace."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("ZEX_THREADS", None)
    done = subprocess.run(
        [sys.executable, str(TRACER_PATH), str(trace_dir), *zex_argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return load_tracer().merge(str(trace_dir))


def _connected(rows, p, q):
    """Whether the bipartite graph with these rows is connected, by a plain search."""
    seen, todo = {0}, [0]
    while todo:
        v = todo.pop()
        if v < p:
            nbrs = [p + j for j in range(q) if rows[v] >> j & 1]
        else:
            nbrs = [i for i in range(p) if rows[i] >> (v - p) & 1]
        for w in nbrs:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == p + q


def test_traced_sweep_counts_every_kernel(tmp_path):
    from zex.search import _sweep_tasks

    merged = run_traced(tmp_path, "verify", "--n-min", "7", "--n-max", "7")
    stats, results = merged["stats"], merged["results"]

    def calls(name):
        return stats[name][0]

    # order 7 is the first whose sweep needs the edge kernel (kappa < delta). The walk
    # visits the row-sorted tuples (nondecreasing nonzero rows of q = 7 - p bits, none
    # with fewer bits than the first) whose columns, read with row 0 as the high bit, are
    # nonincreasing and nonzero. No class is in two tasks, so the sweep classifies one
    # tuple per connected class of each part size
    leaves = connected = 0
    seen = set()
    tasks = _sweep_tasks(7)
    for n, p, first in tasks:
        q = n - p
        for rest in combinations_with_replacement(range(first, 1 << q), p - 1):
            rows = (first, *rest)
            if min(row.bit_count() for row in rows) < first.bit_count():
                continue
            cols = [sum((row >> j & 1) << (p - 1 - i) for i, row in enumerate(rows)) for j in range(q)]
            if cols != sorted(cols, reverse=True) or cols[-1] == 0:
                continue
            leaves += 1
            if _connected(rows, p, q):
                connected += 1
                seen.add((p, row_and_column_class(rows, q)))
    assert (leaves, connected, len(seen)) == (66, 51, 44)
    assert calls("search._sweep_chunk") == len(tasks)
    assert calls("search._bipartite_masks") == leaves
    assert results["search._bipartite_masks"].get("isolated", 0) == 0
    assert calls("search._connected_masks") == leaves
    assert results["search._connected_masks"].get("disconnected", 0) == leaves - connected
    assert calls("search._kappa_masks") == len(seen)
    assert 0 < calls("search._kappa_prime_masks") < calls("search._kappa_masks")
    for name in ("search._dedup_isomorphic", "search.canonical_form",
                 "families.predicted_extremal", "graphs.m1", "graphs.m2", "cli.cmd_verify"):
        assert calls(name) > 0, name


@pytest.mark.parametrize("mode,names", [
    ("vertex", ("_vertex_flow", "_lex_min_vertex_cut", "vertex_connectivity_value")),
    ("edge", ("_edge_flow", "_lex_min_edge_cut", "edge_connectivity_value")),
])
def test_traced_connectivity_counts_the_witness_layers(tmp_path, mode, names):
    from zex import encode_graph6, predicted_extremal

    # bipartite with kappa = 2: vertex 0 has non-neighbors, so flows run from source 0
    path = tmp_path / "g.g6"
    path.write_bytes(encode_graph6(predicted_extremal(8, 2, mode)) + b"\n")
    stats = run_traced(tmp_path, "connectivity", str(path), "--mode", mode)["stats"]
    for name in names:
        assert stats["connectivity." + name][0] > 0, name
    # the decoded input is the only Graph: the scans work on its neighbor bitmasks
    assert stats["graphs.Graph.__init__"][0] == 1
