"""Degree-power indices and extremal bipartite graphs with given connectivity.

The package computes the first and second degree-power indices (sum of
squared degrees; sum over edges of endpoint-degree products) of simple
graphs, exact vertex/edge connectivity with minimum-cut witnesses,
constructs the candidate extremal family of bipartite graphs, applies
index-increasing rewrites, and verifies the predicted maximizers by
exhaustive search at small order.
"""

from .connectivity import (
    CutWitness,
    edge_connectivity,
    edge_connectivity_value,
    is_k_connected,
    vertex_connectivity,
    vertex_connectivity_value,
)
from .families import (
    FamilyParams,
    build_family,
    complete_bipartite,
    family_m1,
    family_m2,
    predicted_extremal,
)
from .graphs import (
    Bipartition,
    Graph,
    GraphFormatError,
    bipartition_of,
    connected_components,
    decode_graph6,
    encode_graph6,
    format_edge_list,
    is_connected,
    m1,
    m2,
    min_degree,
    parse_edge_list,
    read_graph_file,
)
from .search import (
    SearchReport,
    SearchSpec,
    brute_force_edge_connectivity,
    brute_force_vertex_connectivity,
    canonical_form,
    cut_component_profile,
    enumerate_class,
    has_straddling_min_cut,
    minimum_vertex_cuts,
    search_max,
)
from .transforms import ShiftSpec, add_edge, case1_rewire, case2_rewire, shift_neighbors

__all__ = [
    "Graph",
    "Bipartition",
    "GraphFormatError",
    "m1",
    "m2",
    "min_degree",
    "bipartition_of",
    "is_connected",
    "connected_components",
    "encode_graph6",
    "decode_graph6",
    "parse_edge_list",
    "format_edge_list",
    "read_graph_file",
    "CutWitness",
    "vertex_connectivity",
    "edge_connectivity",
    "vertex_connectivity_value",
    "edge_connectivity_value",
    "is_k_connected",
    "FamilyParams",
    "complete_bipartite",
    "build_family",
    "family_m1",
    "family_m2",
    "predicted_extremal",
    "ShiftSpec",
    "add_edge",
    "shift_neighbors",
    "case1_rewire",
    "case2_rewire",
    "SearchSpec",
    "SearchReport",
    "enumerate_class",
    "search_max",
    "brute_force_vertex_connectivity",
    "brute_force_edge_connectivity",
    "minimum_vertex_cuts",
    "has_straddling_min_cut",
    "cut_component_profile",
    "canonical_form",
]

__version__ = "0.1.0"
