"""In-memory span and count tracer for the zex package, installed from outside.

``install(trace_dir)`` replaces the module-level functions that each zex
layer exposes, and the kernels that ``search._sweep_chunk`` looks up by
global name, with timing wrappers.  Every reference to an original
function object in any loaded ``zex`` module is replaced, so names
imported with ``from .graphs import encode_graph6`` are traced too.

Per function name the tracer keeps calls, inclusive time and self time
(a span minus the time covered by its child spans), plus result counts
where a wrapper classifies results.  Full spans (id, parent id, name,
start, end) are kept only for coarse functions; the per-mask kernels run
millions of times and are aggregated only.  Everything stays in memory
and is written to ``trace_dir`` as ``trace-<pid>.json`` at the end.

Sweep worker processes are forked from a traced parent: the tracer is
reset in the child and rewritten after every ``_sweep_chunk``, because
pool workers leave through ``os._exit`` and run no exit hooks.

Run as a script, it traces one zex CLI invocation::

    python3 perfbench/tracer.py TRACE_DIR verify --n-min 6 --n-max 9
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

# (module, attribute, options).  "keep" keeps full spans; "classify" maps a
# result to a count label (or None); "by_parent" also totals the calls per
# calling function; "flush" rewrites the trace file after each call in a
# forked worker.
TARGETS = (
    ("zex.search", "_bipartite_masks", {"classify": lambda r: "isolated" if r is None else None}),
    ("zex.search", "_connected_masks", {"classify": lambda r: None if r else "disconnected"}),
    ("zex.search", "_kappa_masks", {}),
    ("zex.search", "_kappa_prime_masks", {}),
    ("zex.search", "_masks_to_graph", {}),
    ("zex.search", "_sweep_chunk", {"keep": True, "flush": True}),
    ("zex.search", "_sweep", {"keep": True}),
    ("zex.search", "_merge_cells", {"keep": True}),
    ("zex.search", "_dedup_isomorphic", {"keep": True}),
    ("zex.search", "search_max", {"keep": True}),
    ("zex.search", "canonical_form", {}),
    ("zex.graphs", "Graph.__init__", {}),
    ("zex.graphs", "Graph.induced", {}),
    ("zex.graphs", "encode_graph6", {"by_parent": True}),
    ("zex.graphs", "decode_graph6", {}),
    ("zex.graphs", "m1", {}),
    ("zex.graphs", "m2", {}),
    ("zex.connectivity", "vertex_connectivity", {"keep": True}),
    ("zex.connectivity", "edge_connectivity", {"keep": True}),
    ("zex.connectivity", "vertex_connectivity_value", {}),
    ("zex.connectivity", "edge_connectivity_value", {}),
    ("zex.connectivity", "_vertex_flow", {}),
    ("zex.connectivity", "_edge_flow", {}),
    ("zex.connectivity", "_lex_min_vertex_cut", {"keep": True}),
    ("zex.connectivity", "_lex_min_edge_cut", {"keep": True}),
    ("zex.families", "predicted_extremal", {"keep": True}),
    ("zex.cli", "cmd_verify", {"keep": True}),
)


class Tracer:
    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.pid = self.main_pid = os.getpid()
        self.stack: list[list] = []  # frames: [start, child_time, name, span_id]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.results: dict[str, dict[str, int]] = {}
        self.by_parent: dict[str, dict[str, list]] = {}
        self.spans: list[tuple] = []
        self.next_id = 0

    def reset(self) -> None:
        """Forget everything recorded so far (in a freshly forked worker)."""
        self.pid = os.getpid()
        self.stack.clear()
        for rec in self.stats.values():
            rec[0] = 0
            rec[1] = rec[2] = 0.0
        for counts in self.results.values():
            counts.clear()
        for table in self.by_parent.values():
            table.clear()
        self.spans.clear()

    def wrap(self, name: str, fn, keep=False, classify=None, by_parent=False, flush=False):
        stack = self.stack
        clock = time.perf_counter
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        counts = self.results.setdefault(name, {}) if classify else None
        parents = self.by_parent.setdefault(name, {}) if by_parent else None
        tracer = self

        def traced(*args, **kwargs):
            span_id = -1
            if keep:
                span_id = tracer.next_id
                tracer.next_id += 1
            frame = [clock(), 0.0, name, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                if parents is not None:
                    pname = parent[2] if parent is not None else ""
                    prec = parents.get(pname)
                    if prec is None:
                        prec = parents[pname] = [0, 0.0]
                    prec[0] += 1
                    prec[1] += dur
                if keep:
                    parent_id = next((f[3] for f in reversed(stack) if f[3] >= 0), -1)
                    tracer.spans.append((span_id, parent_id, name, frame[0], end))
            if counts is not None:
                label = classify(result)
                if label is not None:
                    counts[label] = counts.get(label, 0) + 1
            if flush and os.getpid() != tracer.main_pid:
                tracer.dump()
            return result

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr))
        traced.__wrapped__ = fn
        return traced

    def dump(self) -> None:
        payload = {
            "pid": self.pid,
            "stats": self.stats,
            "results": self.results,
            "by_parent": self.by_parent,
            "spans": self.spans,
        }
        path = os.path.join(self.trace_dir, f"trace-{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)


def install(trace_dir: str) -> Tracer:
    """Import the zex layers and wrap every function named in ``TARGETS``."""
    modules = {name: importlib.import_module(name) for name in
               ("zex", "zex.graphs", "zex.connectivity", "zex.families", "zex.search", "zex.cli")}
    tracer = Tracer(trace_dir)
    for module_name, attr, opts in TARGETS:
        module = modules[module_name]
        short = module_name.split(".")[-1] + "." + attr
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(short, getattr(cls, meth), **opts))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(short, original, **opts)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    os.register_at_fork(after_in_child=tracer.reset)
    return tracer


def merge(trace_dir: str) -> dict:
    """Sum the trace files of every process that wrote into ``trace_dir``."""
    stats: dict[str, list] = {}
    results: dict[str, dict[str, int]] = {}
    by_parent: dict[str, dict[str, list]] = {}
    spans = []
    processes = 0
    for fname in sorted(os.listdir(trace_dir)):
        if not (fname.startswith("trace-") and fname.endswith(".json")):
            continue
        with open(os.path.join(trace_dir, fname)) as fh:
            part = json.load(fh)
        processes += 1
        for name, (calls, total, self_s) in part["stats"].items():
            rec = stats.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, counts in part["results"].items():
            dst = results.setdefault(name, {})
            for label, count in counts.items():
                dst[label] = dst.get(label, 0) + count
        for name, table in part["by_parent"].items():
            dst = by_parent.setdefault(name, {})
            for parent, (calls, total) in table.items():
                rec = dst.setdefault(parent, [0, 0.0])
                rec[0] += calls
                rec[1] += total
        spans.extend([part["pid"], *span] for span in part["spans"])
    return {"processes": processes, "stats": stats, "results": results,
            "by_parent": by_parent, "spans": spans}


def main(argv: list[str]) -> int:
    trace_dir, zex_argv = argv[0], argv[1:]
    tracer = install(trace_dir)
    from zex import cli

    try:
        return cli.main(zex_argv)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
