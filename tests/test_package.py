"""The package's top-level names: each module lists its public names once,
and ``zex`` re-exports all of them."""

import importlib

import zex

# the top-level names before ``zex.__all__`` was built from the module lists, by module
EARLIER_NAMES = {
    "graphs": (
        "Graph", "Bipartition", "GraphFormatError", "m1", "m2", "min_degree", "bipartition_of",
        "is_connected", "connected_components", "encode_graph6", "decode_graph6",
        "parse_edge_list", "format_edge_list", "read_graph_file",
    ),
    "connectivity": (
        "CutWitness", "vertex_connectivity", "edge_connectivity", "vertex_connectivity_value",
        "edge_connectivity_value", "is_k_connected",
    ),
    "families": (
        "FamilyParams", "complete_bipartite", "build_family", "family_m1", "family_m2",
        "predicted_extremal",
    ),
    "transforms": ("ShiftSpec", "add_edge", "shift_neighbors", "case1_rewire", "case2_rewire"),
    "search": (
        "SearchSpec", "SearchReport", "enumerate_class", "search_max",
        "brute_force_vertex_connectivity", "brute_force_edge_connectivity", "minimum_vertex_cuts",
        "has_straddling_min_cut", "cut_component_profile", "canonical_form",
    ),
}


def test_earlier_names_resolve_to_their_module_objects():
    earlier = [name for names in EARLIER_NAMES.values() for name in names]
    assert len(earlier) == 41
    for module_name, names in EARLIER_NAMES.items():
        module = importlib.import_module(f"zex.{module_name}")
        for name in names:
            assert getattr(zex, name) is getattr(module, name), name
    assert set(zex.__all__) - set(earlier) == {"MODES", "INDICES", "index_value", "SweepTaskError"}


def test_all_is_the_union_of_the_module_lists():
    assert len(zex.__all__) == len(set(zex.__all__))
    namespace = {}
    exec("from zex import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(zex.__all__)
