"""Regenerate the committed reference results under ``perfbench/reference/``.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py

``sweep.json`` holds, for every cell of ``zex verify --n-min 6 --n-max 9``,
the maximum, the predicted value, the match flag, the maximizer count,
``graphs_enumerated`` and the set of the maximizers' canonical forms.

``witness.json`` holds, for every variant of every witness slot, the
input graph6, both indices, both connectivity values with their lex-min
witnesses and, up to order 16, the canonical form.  Before anything is
written every value is cross-checked by a second route: connectivity
against ``networkx``, each witness by removing it and testing
connectivity with ``networkx``, the indices against the closed forms
``family_m1``/``family_m2`` (or the ``networkx`` degrees for graphs
outside the family), and each canonical form by ``networkx``
isomorphism with the input.  A disagreement stops the script.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import networkx as nx

import zex
from check import SWEEP_REFERENCE, WITNESS_REFERENCE, cell_key
from witness import SLOTS, VARIANTS, slot_graph

SWEEP_ORDERS = (6, 9)


def _nx(g) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"reference cross-check failed: {what}")


def sweep_reference() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        env = {k: v for k, v in os.environ.items() if k != "ZEX_THREADS"}
        subprocess.run(
            [sys.executable, "-m", "zex.cli", "verify", "--n-min", str(SWEEP_ORDERS[0]),
             "--n-max", str(SWEEP_ORDERS[1]), "--out", out],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        with open(out) as fh:
            report = json.load(fh)
    _require(report["all_match"] is True, "verify reports a mismatch")
    cells = {}
    for cell in report["cells"]:
        spec = cell["spec"]
        forms = sorted(zex.canonical_form(zex.decode_graph6(mx.encode("ascii"))).decode("ascii")
                       for mx in cell["maximizers"])
        cells[cell_key(spec["n"], spec["mode"], spec["c"], spec["index"])] = {
            "n": spec["n"],
            "max_value": cell["max_value"],
            "predicted_value": cell["predicted_value"],
            "matches": cell["matches"],
            "num_maximizers": len(cell["maximizers"]),
            "graphs_enumerated": cell["graphs_enumerated"],
            "maximizer_forms": forms,
        }
    return {"orders": list(SWEEP_ORDERS), "cells": cells}


def _closed_form_indices(kind: str, n: int, params: tuple, h: nx.Graph) -> tuple[int, int]:
    if kind == "predicted":
        c = params[0]
        if n % 2 == 0 and c == n // 2:
            kind = "degrees"  # K_{n/2,n/2} is outside the family
        else:
            r = (n - 1) // 2 if n % 2 else (n - 2) // 2
            params = (c, r)
    if kind in ("predicted", "family"):
        p = zex.FamilyParams(n, *params)
        return zex.family_m1(p), zex.family_m2(p)
    deg = dict(h.degree())
    return sum(d * d for d in deg.values()), sum(deg[u] * deg[v] for u, v in h.edges())


def witness_entry(index: int, variant: int) -> dict:
    kind, n, params, _ = SLOTS[index]
    g = slot_graph(index, variant)
    h = _nx(g)
    where = f"slot {index} variant {variant}"
    kappa, vcut = zex.vertex_connectivity(g)
    lam, ecut = zex.edge_connectivity(g)
    v1, v2 = zex.m1(g), zex.m2(g)
    _require((v1, v2) == _closed_form_indices(kind, n, params, h), f"{where}: indices")
    _require(kappa == nx.node_connectivity(h), f"{where}: vertex connectivity")
    _require(lam == nx.edge_connectivity(h), f"{where}: edge connectivity")
    cut_v = h.copy()
    cut_v.remove_nodes_from(vcut.members)
    _require(len(vcut.members) == kappa and not nx.is_connected(cut_v), f"{where}: vertex witness")
    cut_e = h.copy()
    cut_e.remove_edges_from(ecut.members)
    _require(len(ecut.members) == lam and not nx.is_connected(cut_e), f"{where}: edge witness")
    form = None
    if n <= 16:
        form = zex.canonical_form(g).decode("ascii")
        _require(nx.is_isomorphic(h, _nx(zex.decode_graph6(form))), f"{where}: canonical form")
    return {
        "g6": zex.encode_graph6(g).decode("ascii"),
        "n": n, "m1": v1, "m2": v2,
        "kappa": kappa, "vertex_cut": list(vcut.members),
        "lambda": lam, "edge_cut": [list(e) for e in ecut.members],
        "canonical": form,
    }


def witness_reference() -> dict:
    graphs = {}
    for index, slot in enumerate(SLOTS):
        for variant in range(VARIANTS if slot[3] == "seeded" else 1):
            graphs[f"{index}:{variant}"] = witness_entry(index, variant)
            print(f"witness slot {index} variant {variant} done", file=sys.stderr, flush=True)
    return {"slots": [list(s[:3]) + [s[3]] for s in SLOTS], "graphs": graphs}


def main() -> int:
    for path, build in ((SWEEP_REFERENCE, sweep_reference), (WITNESS_REFERENCE, witness_reference)):
        data = build()
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
