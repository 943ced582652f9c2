"""The package's top-level names: each module lists its public names once,
and ``zex`` re-exports all of them, importing each module on first use.  The
command line loads the flow module only for ``zex connectivity``."""

import importlib
import json

import pytest

import zex
from conftest import run_python

MODULES = ("graphs", "connectivity", "families", "transforms", "search")

# a connectivity caller's names, then one search name; prints what each step added
COLD_IMPORT = """
import json, sys
before = set(sys.modules)
import zex
for name in ("decode_graph6", "m1", "m2", "vertex_connectivity", "edge_connectivity",
             "canonical_form"):
    getattr(zex, name)
connectivity = set(sys.modules) - before
zex.search_max
print(json.dumps([sorted(connectivity), sorted(set(sys.modules) - before - connectivity)]))
"""

# ``import zex.cli``, then one ``zex connectivity`` run; prints what each step added last
CLI_COLD_IMPORT = """
import json, sys
before = set(sys.modules)
import zex.cli
cli = set(sys.modules) - before
zex.cli.main(["connectivity", sys.argv[1]])
print(json.dumps([sorted(cli), sorted(set(sys.modules) - before - cli)]))
"""

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
    # the mode names live beside the index names
    assert zex.MODES is zex.graphs.MODES


def test_all_is_the_union_of_the_module_lists():
    assert len(zex.__all__) == len(set(zex.__all__))
    namespace = {}
    exec("from zex import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(zex.__all__)


def test_a_connectivity_caller_loads_no_other_layer():
    done = run_python(COLD_IMPORT)
    assert done.returncode == 0, done.stderr
    connectivity, search = json.loads(done.stdout)
    heavy = {"zex.search", "zex.families", "zex.transforms", "dataclasses"}
    assert {"zex", "zex.graphs", "zex.connectivity"} <= set(connectivity)
    assert not heavy & set(connectivity)
    assert "zex.search" in search


def test_names_resolve_on_first_use_and_stay_bound():
    modules = [importlib.import_module(f"zex.{name}") for name in MODULES]
    assert zex.__all__ == [name for module in modules for name in module.__all__]
    assert set(zex.__all__) | set(MODULES) <= set(dir(zex))
    assert zex.search_max is zex.search.search_max
    assert vars(zex)["search_max"] is zex.search.search_max
    with pytest.raises(AttributeError, match="no_such_name"):
        zex.no_such_name


def test_the_cli_loads_the_flow_module_for_zex_connectivity_only(tmp_path):
    # a cold ``zex verify`` imports ``zex.cli``, so none of these may come with it
    path = tmp_path / "p4.g6"
    path.write_bytes(zex.encode_graph6(zex.Graph(4, [(0, 1), (1, 2), (2, 3)])) + b"\n")
    done = run_python(CLI_COLD_IMPORT, str(path))
    assert done.returncode == 0, done.stderr
    printed, loads = done.stdout.splitlines()
    cli, connectivity = json.loads(loads)
    assert {"zex", "zex.cli", "zex.graphs", "zex.families", "zex.search"} <= set(cli)
    assert not {"dataclasses", "inspect", "zex.connectivity", "zex.transforms"} & set(cli)
    assert printed == "1, cut={1}"
    assert "zex.connectivity" in connectivity
