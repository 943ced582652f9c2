"""Correctness checks of one measured repetition against the committed references.

Each check returns ``(attempted, failures)``: the number of cells or
graphs checked, and one ``(key, message)`` pair per disagreeing field.
A missing report, a nonzero exit or ``all_match`` false fails every cell.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP_REFERENCE = os.path.join(HERE, "reference", "sweep.json")
WITNESS_REFERENCE = os.path.join(HERE, "reference", "witness.json")

SWEEP_FIELDS = ("max_value", "predicted_value", "matches", "num_maximizers", "graphs_enumerated")
WITNESS_FIELDS = ("n", "m1", "m2", "kappa", "vertex_cut", "lambda", "edge_cut", "canonical")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cell_key(n: int, mode: str, c: int, index: str) -> str:
    return f"n={n} mode={mode} c={c} index={index}"


def sweep_cells(reference: dict, n_max: int) -> dict:
    """Reference cells of the grid ``6..n_max``."""
    return {key: cell for key, cell in reference["cells"].items() if cell["n"] <= n_max}


def check_sweep(report: dict | None, exit_code: int, expected: dict) -> tuple[int, list]:
    """Compare a ``zex verify`` JSON report with the expected reference cells.

    Maximizers are compared as sets of canonical forms, so a change of
    the reported representative is not a failure.
    """
    from zex import canonical_form, decode_graph6

    attempted = len(expected)
    if report is None or exit_code != 0 or report.get("all_match") is not True:
        why = f"exit code {exit_code}, all_match={None if report is None else report.get('all_match')}"
        return attempted, [(key, why) for key in sorted(expected)]
    try:
        got = {cell_key(c["spec"]["n"], c["spec"]["mode"], c["spec"]["c"], c["spec"]["index"]): c
               for c in report["cells"]}
    except (KeyError, TypeError) as exc:
        return attempted, [(key, f"malformed report: {exc!r}") for key in sorted(expected)]
    failures = [(key, "cell not in the reference") for key in sorted(set(got) - set(expected))]
    for key, ref in sorted(expected.items()):
        cell = got.get(key)
        if cell is None:
            failures.append((key, "cell missing from the report"))
            continue
        maximizers = cell.get("maximizers", [])
        values = dict(cell, num_maximizers=len(maximizers))
        for name in SWEEP_FIELDS:
            if values.get(name) != ref[name]:
                failures.append((key, f"{name}: expected {ref[name]!r}, got {values.get(name)!r}"))
        forms = sorted(canonical_form(decode_graph6(mx.encode("ascii"))).decode("ascii")
                       for mx in maximizers)
        if forms != ref["maximizer_forms"]:
            failures.append((key, f"maximizer forms: expected {ref['maximizer_forms']}, got {forms}"))
    return attempted, failures


def check_witness(results: list | None, exit_code: int, in_dir: str, reference: dict) -> tuple[int, list]:
    """Compare the witness inputs in ``in_dir`` and the worker's per-graph
    results with the reference variants."""
    manifest = load(os.path.join(in_dir, "manifest.json"))
    keys = [f"{item['slot']}:{item['variant']}" for item in manifest]
    failures = []
    for key, item in zip(keys, manifest):
        with open(os.path.join(in_dir, item["file"])) as fh:
            if fh.read().strip() != reference["graphs"][key]["g6"]:
                failures.append((key, "input graph differs from the reference graph6"))
    if results is None or exit_code != 0 or len(results) != len(keys):
        why = f"exit code {exit_code}, {0 if results is None else len(results)} results"
        return len(keys), failures + [(key, why) for key in keys]
    for key, got in zip(keys, results):
        ref = reference["graphs"][key]
        if f"{got.get('slot')}:{got.get('variant')}" != key:
            failures.append((key, f"result out of order: {got.get('slot')}:{got.get('variant')}"))
            continue
        for name in WITNESS_FIELDS:
            if got.get(name) != ref[name]:
                failures.append((key, f"{name}: expected {ref[name]!r}, got {got.get(name)!r}"))
    return len(keys), failures


def failed_items(failures: list) -> int:
    return len({key for key, _ in failures})
