"""Degree-power indices and extremal bipartite graphs with given connectivity.

The package computes the first and second degree-power indices (sum of
squared degrees; sum over edges of endpoint-degree products) of simple
graphs, exact vertex/edge connectivity with minimum-cut witnesses,
constructs the candidate extremal family of bipartite graphs, applies
index-increasing rewrites, and verifies the predicted maximizers by
exhaustive search at small order.

The public names are listed once, in ``_NAMES`` by the module that
defines them; each module reads its ``__all__`` from there, and ``_OWNER``
maps each name to its module.  That module alone is imported on first use
of the name (PEP 562), so a caller that only decodes graphs and computes
connectivity loads ``graphs`` and ``connectivity``, and
``zex.predicted_extremal`` loads ``graphs`` and ``families``, and nothing
else.
"""

from importlib import import_module

# the one list of public names, by owning module and in order; each module reads
# its ``__all__`` from here, and tests/test_package.py checks it against what each
# module defines
_NAMES = {
    "graphs": (
        "Graph", "Bipartition", "GraphFormatError", "m1", "m2", "MODES", "INDICES",
        "index_value", "min_degree", "bipartition_of", "is_connected", "connected_components",
        "encode_graph6", "decode_graph6", "canonical_form", "parse_edge_list",
        "format_edge_list", "read_graph_file",
    ),
    "connectivity": (
        "CutWitness", "vertex_connectivity", "edge_connectivity", "vertex_connectivity_value",
        "edge_connectivity_value",
    ),
    "families": (
        "FamilyParams", "complete_bipartite", "build_family", "family_m1", "family_m2",
        "predicted_extremal",
    ),
    "transforms": ("ShiftSpec", "add_edge", "shift_neighbors", "case1_rewire", "case2_rewire"),
    "search": (
        "SearchSpec", "SearchReport", "enumerate_class", "search_max",
        "brute_force_vertex_connectivity", "brute_force_edge_connectivity", "SweepTaskError",
    ),
}
# public name -> the module that owns it
_OWNER = {name: module for module, names in _NAMES.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _NAMES:
        value = _module(name)
    elif name in _OWNER:
        value = getattr(_module(_OWNER[name]), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound here, the next lookup is a plain attribute read
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _module(short: str):
    return import_module(f".{short}", __name__)
