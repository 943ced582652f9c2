"""The package's top-level names: ``zex._NAMES`` lists every public name
once, by the module that defines it, each module reads its ``__all__`` from
there, and ``zex`` re-exports all of them, importing only the owning module
on first use.  The command line loads the flow module only for ``zex
connectivity``, and the sweep module only for ``zex search`` and ``zex
verify``."""

import importlib
import inspect
import json

import pytest

import zex
from conftest import run_python

MODULES = ("graphs", "connectivity", "families", "transforms", "search")
# the public constants in the name index; every other public name is a function or class
CONSTANTS = {"graphs": {"MODES", "INDICES"}}

# each argument is a comma-separated list of names to look up on ``zex``, in turn;
# prints the modules that each step added
COLD_IMPORT = """
import json, sys
import zex
steps = []
for names in sys.argv[1:]:
    before = set(sys.modules)
    for name in names.split(","):
        getattr(zex, name)
    steps.append(sorted(set(sys.modules) - before))
print(json.dumps(steps))
"""

# ``import zex.cli``, one ``zex connectivity`` run, then one ``zex search`` run;
# prints the modules that each step added last
CLI_COLD_IMPORT = """
import json, sys
steps, before = [], set(sys.modules)
import zex.cli
steps.append(set(sys.modules) - before)
for argv in (["connectivity", sys.argv[1]],
             ["search", "--n", "6", "--mode", "vertex", "--c", "1", "--index", "M1"]):
    before = set(sys.modules)
    zex.cli.main(argv)
    steps.append(set(sys.modules) - before)
print(json.dumps([sorted(step) for step in steps]))
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
        "edge_connectivity_value",
    ),
    "families": (
        "FamilyParams", "complete_bipartite", "build_family", "family_m1", "family_m2",
        "predicted_extremal",
    ),
    "transforms": ("ShiftSpec", "add_edge", "shift_neighbors", "case1_rewire", "case2_rewire"),
    "search": (
        "SearchSpec", "SearchReport", "enumerate_class", "search_max",
        "brute_force_vertex_connectivity", "brute_force_edge_connectivity", "canonical_form",
    ),
}
# earlier top-level names that no command or report used; the tests build what
# they checked from the remaining names (conftest.minimum_vertex_cuts)
REMOVED_NAMES = ("is_k_connected", "minimum_vertex_cuts", "has_straddling_min_cut",
                 "cut_component_profile")


def test_earlier_names_resolve_to_their_module_objects():
    earlier = [name for names in EARLIER_NAMES.values() for name in names]
    assert len(earlier) == 37
    for module_name, names in EARLIER_NAMES.items():
        module = importlib.import_module(f"zex.{module_name}")
        for name in names:
            assert getattr(zex, name) is getattr(module, name), name
    assert set(zex.__all__) - set(earlier) == {"MODES", "INDICES", "index_value", "SweepTaskError"}
    # the mode names live beside the index names
    assert zex.MODES is zex.graphs.MODES


def test_removed_names_are_gone():
    namespace = {}
    exec("from zex import *", namespace)
    for name in REMOVED_NAMES:
        assert name not in namespace, name
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(zex, name)


def test_all_is_the_union_of_the_module_lists():
    assert len(zex.__all__) == len(set(zex.__all__))
    namespace = {}
    exec("from zex import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(zex.__all__)


def test_the_name_index_is_the_module_lists():
    modules = [importlib.import_module(f"zex.{name}") for name in MODULES]
    assert zex._OWNER == {name: short for short, module in zip(MODULES, modules)
                          for name in module.__all__}


def test_the_name_index_lists_what_each_module_defines():
    # every public function and class a module defines, and its listed constants
    assert tuple(zex._NAMES) == MODULES
    for short in MODULES:
        module = importlib.import_module(f"zex.{short}")
        defined = {
            name for name, value in vars(module).items()
            if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        }
        assert set(zex._NAMES[short]) == defined | CONSTANTS.get(short, set()), short
        assert module.__all__ == list(zex._NAMES[short]), short


def _cold_steps(*steps):
    done = run_python(COLD_IMPORT, *(",".join(names) for names in steps))
    assert done.returncode == 0, done.stderr
    return [set(step) for step in json.loads(done.stdout)]


def _zex(modules):
    return {m for m in modules if m.startswith("zex")}


def test_a_connectivity_caller_loads_no_other_layer():
    connectivity, search = _cold_steps(
        ("decode_graph6", "m1", "m2", "vertex_connectivity", "edge_connectivity",
         "canonical_form"),
        ("search_max",),
    )
    assert _zex(connectivity) == {"zex.graphs", "zex.connectivity"}
    assert "dataclasses" not in connectivity
    assert _zex(search) == {"zex.families", "zex.search"}


def test_each_name_loads_only_its_owner():
    families, search = _cold_steps(("predicted_extremal",), ("search_max",))
    assert _zex(families) == {"zex.graphs", "zex.families"}
    assert _zex(search) == {"zex.search"}


def test_names_resolve_on_first_use_and_stay_bound():
    modules = [importlib.import_module(f"zex.{name}") for name in MODULES]
    assert zex.__all__ == [name for module in modules for name in module.__all__]
    assert set(zex.__all__) | set(MODULES) <= set(dir(zex))
    assert zex.search_max is zex.search.search_max
    assert vars(zex)["search_max"] is zex.search.search_max
    with pytest.raises(AttributeError, match="no_such_name"):
        zex.no_such_name


def test_the_cli_loads_the_flow_module_for_zex_connectivity_only(tmp_path):
    # a cold ``zex index``, ``construct`` or ``connectivity`` imports ``zex.cli``, so the
    # sweep module must not come with it
    path = tmp_path / "p4.g6"
    path.write_bytes(zex.encode_graph6(zex.Graph(4, [(0, 1), (1, 2), (2, 3)])) + b"\n")
    done = run_python(CLI_COLD_IMPORT, str(path))
    assert done.returncode == 0, done.stderr
    printed = done.stdout.splitlines()
    cli, connectivity, search = map(set, json.loads(printed[-1]))
    assert _zex(cli) == {"zex", "zex.cli", "zex.graphs", "zex.families"}
    assert not {"dataclasses", "inspect"} & cli
    assert printed[0] == "1, cut={1}"
    assert "zex.connectivity" in connectivity
    assert "zex.search" not in connectivity
    assert "zex.search" in search
