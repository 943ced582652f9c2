"""CLI surface: subcommands, exit codes, report formats, reproducibility."""

import json

import pytest

from conftest import run_python, run_zex
from zex import (
    FamilyParams,
    Graph,
    SearchSpec,
    build_family,
    canonical_form,
    complete_bipartite,
    encode_graph6,
    format_edge_list,
    read_graph_file,
    search_max,
)
from zex.cli import main
from zex.families import MIN_FAMILY_ORDER
from zex.search import MAX_SWEEP_ORDER

P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def k22_file(tmp_path):
    path = tmp_path / "k22.g6"
    path.write_bytes(encode_graph6(complete_bipartite(2, 2)) + b"\n")
    return str(path)


class TestIndexCommand:
    def test_graph6_input(self, k22_file, capsys):
        assert main(["index", k22_file]) == 0
        out = capsys.readouterr().out
        assert "M1=16 M2=16" in out
        assert "n=4 m=4" in out

    def test_edge_list_input(self, tmp_path, capsys):
        path = tmp_path / "p4.txt"
        path.write_text(format_edge_list(P4))
        assert main(["index", str(path)]) == 0
        assert "M1=10 M2=8" in capsys.readouterr().out

    def test_large_sparse_edge_list(self, tmp_path):
        # building the graph and its edges costs O(n + m), not one step per vertex pair
        path = tmp_path / "sparse.txt"
        path.write_text("200000 1\n0 1\n")
        done = run_python("import sys; from zex.cli import main; sys.exit(main(sys.argv[1:]))",
                          "index", str(path))
        assert done.returncode == 0, done.stderr
        assert "M1=2 M2=1" in done.stdout
        assert "n=200000 m=1" in done.stdout

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"bogus!!!")
        assert main(["index", str(path)]) == 2
        assert "error" in capsys.readouterr().err


class TestConstructCommand:
    def test_family_file_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "fam.g6"
        assert main(["construct", "family", "--n", "7", "--k", "1", "--r", "3", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "M1=62 M2=94" in stdout
        loaded = read_graph_file(str(out))
        assert canonical_form(loaded) == canonical_form(build_family(FamilyParams(7, 1, 3)))

    def test_predicted_even_half(self, tmp_path, capsys):
        out = tmp_path / "pred.g6"
        assert main(
            ["construct", "predicted", "--n", "6", "--c", "3", "--mode", "vertex", "--out", str(out)]
        ) == 0
        assert read_graph_file(str(out)) == complete_bipartite(3, 3)

    def test_edge_list_output(self, tmp_path):
        out = tmp_path / "fam.txt"
        main(["construct", "family", "--n", "6", "--k", "1", "--r", "2", "--format", "edgelist", "--out", str(out)])
        assert read_graph_file(str(out)) == build_family(FamilyParams(6, 1, 2))

    def test_complete_bipartite_to_stdout(self, capsys):
        assert main(["construct", "complete-bipartite", "--p", "2", "--q", "3"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "complete bipartite 2 x 3\nM1=30 M2=36\ndegrees=3 3 2 2 2\n"
            + encode_graph6(complete_bipartite(2, 3)).decode("ascii") + "\n"
        )

    def test_invalid_params_exit_2(self, capsys):
        assert main(["construct", "family", "--n", "5", "--k", "3", "--r", "2"]) == 2
        assert "at least k" in capsys.readouterr().err


def _connectivity_stdout(tmp_path, capsys, graph, *mode):
    path = tmp_path / "g.g6"
    path.write_bytes(encode_graph6(graph) + b"\n")
    assert main(["connectivity", str(path), *mode]) == 0
    return capsys.readouterr().out


class TestConnectivityCommand:
    # exact stdout: a vertex member and an edge pair both print as str(member)
    def test_vertex_mode_with_cut(self, tmp_path, capsys):
        out = _connectivity_stdout(tmp_path, capsys, complete_bipartite(3, 4), "--mode", "vertex")
        assert out == "3, cut={0, 1, 2}\n"

    def test_disconnected(self, tmp_path, capsys):
        assert _connectivity_stdout(tmp_path, capsys, Graph(4, [(0, 1), (2, 3)])) == "0\n"

    def test_edge_mode_path(self, tmp_path, capsys):
        assert _connectivity_stdout(tmp_path, capsys, P4, "--mode", "edge") == "1, cut={(0, 1)}\n"

    @pytest.mark.parametrize(
        "graph, mode, line",
        [
            (P4, "vertex", "1, cut={1}"),
            (C4, "vertex", "2, cut={0, 2}"),
            (C4, "edge", "2, cut={(0, 1), (0, 3)}"),
            (complete_bipartite(3, 4), "edge", "3, cut={(0, 3), (1, 3), (2, 3)}"),
            (Graph(4, [(0, 1), (2, 3)]), "edge", "0"),
            (Graph(3, [(0, 1), (1, 2), (0, 2)]), "vertex", "2 (complete graph: no cut exists)"),
            (Graph(3, [(0, 1), (1, 2), (0, 2)]), "edge", "2, cut={(0, 1), (0, 2)}"),
            (Graph(1, []), "vertex", "0 (complete graph: no cut exists)"),
            (Graph(1, []), "edge", "0 (complete graph: no cut exists)"),
        ],
    )
    def test_printed_line(self, tmp_path, capsys, graph, mode, line):
        assert _connectivity_stdout(tmp_path, capsys, graph, "--mode", mode) == line + "\n"


class TestSearchCommand:
    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["search", "--n", "6", "--mode", "vertex", "--c", "1", "--index", "M1", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["max_value"] == 38
        assert payload["matches"] is True
        assert payload["spec"] == {"n": 6, "mode": "vertex", "c": 1, "index": "M1"}

    def test_at_least_matches_the_library(self, capsys):
        argv = ["search", "--n", "7", "--mode", "edge", "--c", "1", "--index", "M2", "--at-least"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_value"] == search_max(SearchSpec(7, "edge", 1, "M2"), at_least=True).max_value


def _strip_elapsed(cells):
    return [{k: v for k, v in cell.items() if k != "elapsed"} for cell in cells]


class TestVerifyCommand:
    def test_small_grid_matches(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = main(["verify", "--n-min", "6", "--n-max", "6", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "all_match=True" in stdout
        payload = json.loads(out.read_text())
        assert payload["all_match"] is True
        assert len(payload["cells"]) == 12  # 2 modes * 3 values * 2 indices

    def test_reports_are_reproducible_modulo_timing(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--n-min", "6", "--n-max", "6", "--out", str(a)])
        main(["verify", "--n-min", "6", "--n-max", "6", "--out", str(b)])
        pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
        assert _strip_elapsed(pa["cells"]) == _strip_elapsed(pb["cells"])
        assert pa["all_match"] == pb["all_match"]

    def test_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        main(["verify", "--n-min", "6", "--n-max", "6", "--format", "csv", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "n,mode,c,index,max,predicted,match,num_maximizers"
        assert len(lines) == 13
        first = lines[1].split(",")
        assert first[0] == "6" and first[6] in ("True", "False")

    def test_rejects_order_above_cap(self, capsys):
        assert main(["verify", "--n-min", "6", "--n-max", "12"]) == 2
        assert "n_max" in capsys.readouterr().err

    def test_cells_sorted_by_spec(self, tmp_path, capsys):
        # the cells come in (n, mode, c, index) order, whatever order the names are given in
        default, reversed_names = tmp_path / "default.json", tmp_path / "reversed.json"
        main(["verify", "--n-min", "6", "--n-max", "7", "--out", str(default)])
        default_out = capsys.readouterr().out
        main(["verify", "--n-min", "6", "--n-max", "7", "--modes", "edge,vertex",
              "--indices", "M2,M1", "--out", str(reversed_names)])
        assert capsys.readouterr().out == default_out
        cells = json.loads(default.read_text())["cells"]
        keys = [(c["spec"]["n"], c["spec"]["mode"], c["spec"]["c"], c["spec"]["index"]) for c in cells]
        assert keys == sorted(keys)
        assert _strip_elapsed(json.loads(reversed_names.read_text())["cells"]) == _strip_elapsed(cells)

    def test_env_worker_count(self, tmp_path, monkeypatch):
        serial, threaded = tmp_path / "s.json", tmp_path / "t.json"
        main(["verify", "--n-min", "6", "--n-max", "6", "--out", str(serial)])
        import zex.search as search_module

        search_module._sweep.cache_clear()
        monkeypatch.setenv("ZEX_THREADS", "2")
        main(["verify", "--n-min", "6", "--n-max", "6", "--out", str(threaded)])
        ps, pt = json.loads(serial.read_text()), json.loads(threaded.read_text())
        assert _strip_elapsed(ps["cells"]) == _strip_elapsed(pt["cells"])

    def test_bad_env_value(self, monkeypatch, capsys):
        monkeypatch.setenv("ZEX_THREADS", "many")
        assert main(["verify", "--n-min", "6", "--n-max", "6"]) == 2
        assert "ZEX_THREADS" in capsys.readouterr().err

    def test_negative_env_value(self, monkeypatch, capsys):
        monkeypatch.setenv("ZEX_THREADS", "-1")
        assert main(["verify", "--n-min", "6", "--n-max", "6"]) == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_env_zero_is_one_worker_per_cpu(self, tmp_path, monkeypatch, capsys):
        import concurrent.futures
        import os

        import zex.search as search_module

        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        serial, pooled = tmp_path / "s.json", tmp_path / "p.json"
        monkeypatch.delenv("ZEX_THREADS", raising=False)
        main(["verify", "--n-min", "6", "--n-max", "6", "--out", str(serial)])
        serial_out = capsys.readouterr().out
        search_module._sweep.cache_clear()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("ZEX_THREADS", "0")
        assert main(["verify", "--n-min", "6", "--n-max", "6", "--out", str(pooled)]) == 0
        assert started == [2]
        assert capsys.readouterr().out == serial_out
        ps, pp = json.loads(serial.read_text()), json.loads(pooled.read_text())
        assert _strip_elapsed(ps["cells"]) == _strip_elapsed(pp["cells"])

    @pytest.mark.parametrize("flag,names", [("--modes", "vertex,vertex"), ("--indices", "M1,M2,M1")])
    def test_rejects_repeated_names(self, flag, names, capsys):
        assert main(["verify", "--n-min", "6", "--n-max", "6", flag, names]) == 2
        assert "repeated" in capsys.readouterr().err


class TestVerifyGrid:
    def test_rejects_bad_range(self, capsys):
        for n_min, n_max in ((5, 6), (6, 12), (8, 7)):
            assert main(["verify", "--n-min", str(n_min), "--n-max", str(n_max)]) == 2
            assert capsys.readouterr().err == (
                f"error: verification orders must satisfy {MIN_FAMILY_ORDER} <= n_min <= "
                f"n_max <= {MAX_SWEEP_ORDER}\n"
            )

    def test_rejects_unknown_mode(self, capsys):
        assert main(["verify", "--n-min", "6", "--n-max", "6", "--modes", "vertex,diagonal"]) == 2
        assert capsys.readouterr().err == (
            "error: mode must be one of ('vertex', 'edge'), got 'diagonal'\n"
        )

    def test_rejects_unknown_index(self, capsys):
        assert main(["verify", "--n-min", "6", "--n-max", "6", "--indices", "M3"]) == 2
        assert capsys.readouterr().err == "error: index must be one of ('M1', 'M2'), got 'M3'\n"


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--n", "6"])
        assert exc.value.code == 2


class TestInternalErrors:
    def test_unexpected_exception_exits_3(self, monkeypatch, capsys):
        import zex.search as search_module

        def broken(*args, **kwargs):
            raise RuntimeError("worker pool broke")

        monkeypatch.setattr(search_module, "search_max", broken)
        assert main(["verify", "--n-min", "6", "--n-max", "6"]) == 3
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: worker pool broke\n"

    def test_usage_errors_keep_exit_2(self, monkeypatch, capsys):
        import zex.search as search_module

        def rejects(*args, **kwargs):
            raise ValueError("bad cell")

        monkeypatch.setattr(search_module, "search_max", rejects)
        assert main(["search", "--n", "6", "--mode", "vertex", "--c", "1", "--index", "M1"]) == 2
        assert capsys.readouterr().err == "error: bad cell\n"


# calls ``main`` as given, in a fresh interpreter; prints its exit code and then the
# number of objects that ``gc.freeze()`` moved out of the collector's reach
FREEZE = """
import gc, sys
from zex.cli import main
code = {call}
print(code, gc.get_freeze_count())
"""


class TestProcessEntry:
    """``main()`` on the process's own command line freezes the start-up heap; a
    caller that passes ``argv`` keeps its heap, and the reports stay the same."""

    @pytest.mark.parametrize("call,frozen", [("main()", True), ("main(sys.argv[1:])", False)])
    def test_only_the_process_command_line_is_frozen(self, k22_file, call, frozen):
        done = run_python(FREEZE.format(call=call), "index", k22_file)
        assert done.returncode == 0, done.stderr
        assert "M1=16 M2=16" in done.stdout
        code, count = done.stdout.split()[-2:]
        assert code == "0"
        assert (int(count) > 0) is frozen

    def test_module_entry_writes_the_in_process_reports(self, tmp_path, capsys):
        grid = ["verify", "--n-min", "6", "--n-max", "7"]
        for fmt in ("json", "csv"):
            cold, warm = tmp_path / f"cold.{fmt}", tmp_path / f"warm.{fmt}"
            done = run_zex(*grid, "--format", fmt, "--out", str(cold))
            assert done.returncode == 0, done.stderr
            assert main([*grid, "--format", fmt, "--out", str(warm)]) == 0
            assert done.stdout == capsys.readouterr().out
            if fmt == "csv":
                assert cold.read_bytes() == warm.read_bytes()
            else:
                pc, pw = json.loads(cold.read_text()), json.loads(warm.read_text())
                assert _strip_elapsed(pc["cells"]) == _strip_elapsed(pw["cells"])
                assert pc["all_match"] is pw["all_match"] is True

    def test_module_entry_keeps_exit_2(self):
        done = run_zex("verify", "--n-min", "9", "--n-max", "7")
        assert done.returncode == 2
        assert done.stderr.startswith("error: verification orders must satisfy")
