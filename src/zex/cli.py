"""Command-line surface: index computation, construction, connectivity,
extremal search and maximizer verification.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error,
3 internal error (any other exception; a one-line message goes to stderr).
The ``ZEX_THREADS`` environment variable caps the sweep worker count for
``search`` and ``verify`` (0 = one worker per CPU; unset = serial).
Reports are reproducible byte for byte except for the ``elapsed`` timing
fields.

Each command loads only the layers it runs: the flow module
``connectivity`` is imported by ``zex connectivity`` alone, so a cold
``zex verify`` process loads ``graphs``, ``families`` and ``search``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .families import (
    MIN_FAMILY_ORDER,
    FamilyParams,
    build_family,
    complete_bipartite,
    predicted_extremal,
)
from .graphs import (
    INDICES,
    MODES,
    Graph,
    GraphFormatError,
    encode_graph6,
    format_edge_list,
    m1,
    m2,
    read_graph_file,
)
from .search import MAX_SWEEP_ORDER, SearchSpec, search_max

_CSV_COLUMNS = ("n", "mode", "c", "index", "max", "predicted", "match", "num_maximizers")


def _workers_from_env() -> int:
    raw = os.environ.get("ZEX_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"ZEX_THREADS must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError("ZEX_THREADS must be nonnegative")
    return value if value > 0 else (os.cpu_count() or 1)


def _write_graph(g: Graph, out: str | None, fmt: str) -> None:
    if fmt == "graph6":
        payload = encode_graph6(g) + b"\n"
    else:
        payload = format_edge_list(g).encode("ascii")
    if out is None:
        sys.stdout.write(payload.decode("ascii"))
    else:
        with open(out, "wb") as fh:
            fh.write(payload)


def cmd_index(args: argparse.Namespace) -> int:
    g = read_graph_file(args.input, args.format)
    print(f"M1={m1(g)} M2={m2(g)}")
    print(f"n={g.n} m={g.num_edges}")
    print("degrees=" + " ".join(str(d) for d in g.degrees()))
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "family":
        p = FamilyParams(args.n, args.k, args.r)
        g = build_family(p)
        print(
            f"family n={p.n} k={p.k}: core parts {p.a_count} x {p.b_count}"
            f" (r={p.r})"
        )
    elif args.kind == "complete-bipartite":
        g = complete_bipartite(args.p, args.q)
        print(f"complete bipartite {args.p} x {args.q}")
    else:  # predicted
        g = predicted_extremal(args.n, args.c, args.mode)
        print(f"predicted maximizer n={args.n} c={args.c} mode={args.mode}")
    print(f"M1={m1(g)} M2={m2(g)}")
    print("degrees=" + " ".join(str(d) for d in g.degrees()))
    _write_graph(g, args.out, args.format)
    return 0


def cmd_connectivity(args: argparse.Namespace) -> int:
    # only this command runs flows, so the other commands never load the flow module
    from .connectivity import edge_connectivity, vertex_connectivity

    g = read_graph_file(args.input, args.format)
    if args.mode == "vertex":
        value, witness = vertex_connectivity(g)
    else:
        value, witness = edge_connectivity(g)
    if witness.complete:
        print(f"{value} (complete graph: no cut exists)")
    elif not witness.members:
        print(f"{value}")
    else:
        # a vertex and an edge pair both print as str(member)
        print(f"{value}, cut={{{', '.join(map(str, witness.members))}}}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    spec = SearchSpec(args.n, args.mode, args.c, args.index)
    report = search_max(spec, workers=_workers_from_env(), at_least=args.at_least)
    payload = json.dumps(report.to_dict(), indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    sys.stdout.write(payload)
    return 0


def _verify_grid(args: argparse.Namespace) -> list[SearchSpec]:
    """The ``verify`` cells in report order: by order, mode, ``c`` and index.
    Unknown names are left to ``SearchSpec``."""
    if not MIN_FAMILY_ORDER <= args.n_min <= args.n_max <= MAX_SWEEP_ORDER:
        raise ValueError(
            f"verification orders must satisfy {MIN_FAMILY_ORDER} <= n_min <= "
            f"n_max <= {MAX_SWEEP_ORDER}"
        )
    modes, indices = args.modes.split(","), args.indices.split(",")
    for kind, names in (("mode", modes), ("index", indices)):
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"repeated {kind} {name!r}")
    return [SearchSpec(n, mode, c, index) for n in range(args.n_min, args.n_max + 1)
            for mode in sorted(modes) for c in range(1, n // 2 + 1) for index in sorted(indices)]


def cmd_verify(args: argparse.Namespace) -> int:
    cells = _verify_grid(args)
    workers = _workers_from_env()
    reports = [search_max(spec, workers=workers) for spec in cells]
    nonempty = [r for r in reports if r.max_value is not None]
    all_match = all(r.matches for r in nonempty)
    for r in reports:
        status = "empty" if r.max_value is None else ("ok" if r.matches else "MISMATCH")
        print(
            f"n={r.spec.n} mode={r.spec.mode} c={r.spec.c} index={r.spec.index} "
            f"max={r.max_value} predicted={r.predicted_value} "
            f"maximizers={len(r.maximizers)} [{status}]"
        )
    print(f"all_match={all_match}")
    if args.out:
        if args.format == "json":
            payload = json.dumps(
                {"cells": [r.to_dict() for r in reports], "all_match": all_match},
                indent=2,
            ) + "\n"
        else:
            lines = [",".join(_CSV_COLUMNS)]
            for r in reports:
                row = (*r.spec, r.max_value, r.predicted_value, r.matches,
                       len(r.maximizers))
                lines.append(",".join(map(str, row)))
            payload = "\n".join(lines) + "\n"
        with open(args.out, "w") as fh:
            fh.write(payload)
    return 0 if all_match else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zex",
        description=(
            "Degree-power indices, connectivity, extremal constructions and "
            "exhaustive maximizer verification for bipartite graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="print index values of a graph file")
    p_index.add_argument("input")
    p_index.add_argument("--format", choices=("auto", "graph6", "edgelist"), default="auto")
    p_index.set_defaults(func=cmd_index)

    p_con = sub.add_parser("construct", help="build a named graph and write it out")
    con_sub = p_con.add_subparsers(dest="kind", required=True)
    p_fam = con_sub.add_parser("family", help="the parametric extremal family")
    p_fam.add_argument("--n", type=int, required=True)
    p_fam.add_argument("--k", type=int, required=True)
    p_fam.add_argument("--r", type=int, required=True)
    p_cb = con_sub.add_parser("complete-bipartite")
    p_cb.add_argument("--p", type=int, required=True)
    p_cb.add_argument("--q", type=int, required=True)
    p_pred = con_sub.add_parser("predicted", help="the predicted index maximizer")
    p_pred.add_argument("--n", type=int, required=True)
    p_pred.add_argument("--c", type=int, required=True)
    p_pred.add_argument("--mode", choices=MODES, default="vertex")
    for sp in (p_fam, p_cb, p_pred):
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
        sp.set_defaults(func=cmd_construct)

    p_conn = sub.add_parser("connectivity", help="connectivity value and cut witness")
    p_conn.add_argument("input")
    p_conn.add_argument("--mode", choices=MODES, default="vertex")
    p_conn.add_argument("--format", choices=("auto", "graph6", "edgelist"), default="auto")
    p_conn.set_defaults(func=cmd_connectivity)

    p_search = sub.add_parser("search", help="maximize an index over one class")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--mode", choices=MODES, required=True)
    p_search.add_argument("--c", type=int, required=True)
    p_search.add_argument("--index", choices=INDICES, required=True)
    p_search.add_argument(
        "--at-least",
        action="store_true",
        help="union the classes with connectivity at least c",
    )
    p_search.add_argument("--out", default=None)
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser("verify", help="check predicted maximizers over a grid")
    p_verify.add_argument("--n-min", type=int, default=MIN_FAMILY_ORDER)
    p_verify.add_argument("--n-max", type=int, default=8)
    p_verify.add_argument("--modes", default=",".join(MODES))
    p_verify.add_argument("--indices", default=",".join(INDICES))
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
