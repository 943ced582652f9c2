"""Tests of the benchmark harness itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import check  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
ENV.pop("ZEX_THREADS", None)


def _verify_report(tmp_path, n_max: int) -> dict:
    out = tmp_path / "report.json"
    subprocess.run([sys.executable, "-m", "zex.cli", "verify", "--n-min", "6", "--n-max", str(n_max),
                    "--out", str(out)], env=ENV, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def _witness_batch(tmp_path) -> tuple[str, list]:
    inputs = str(tmp_path / "inputs")
    result = tmp_path / "result.json"
    script = os.path.join(HERE, "witness.py")
    subprocess.run([sys.executable, script, "setup", "5", inputs, "--smoke"], env=ENV, check=True)
    subprocess.run([sys.executable, script, "work", inputs, str(result)], env=ENV, check=True)
    return inputs, json.loads(result.read_text())


def test_sweep_check_catches_one_corrupted_reference_value(tmp_path):
    report = _verify_report(tmp_path, 7)
    expected = check.sweep_cells(check.load(check.SWEEP_REFERENCE), 7)
    assert check.check_sweep(report, 0, expected) == (len(expected), [])

    key = "n=7 mode=vertex c=2 index=M2"
    corrupted = copy.deepcopy(expected)
    corrupted[key]["max_value"] += 1
    attempted, failures = check.check_sweep(report, 0, corrupted)
    assert attempted == len(expected)
    assert check.failed_items(failures) == 1
    assert failures[0][0] == key and "max_value" in failures[0][1]

    corrupted = copy.deepcopy(expected)
    corrupted[key]["maximizer_forms"] = ["F??Fw"]
    assert [k for k, _ in check.check_sweep(report, 0, corrupted)[1]] == [key]


def test_sweep_check_fails_every_cell_on_a_bad_exit_or_mismatch(tmp_path):
    report = _verify_report(tmp_path, 6)
    expected = check.sweep_cells(check.load(check.SWEEP_REFERENCE), 6)
    assert check.failed_items(check.check_sweep(report, 1, expected)[1]) == len(expected)
    assert check.failed_items(check.check_sweep(None, 0, expected)[1]) == len(expected)
    report["all_match"] = False
    assert check.failed_items(check.check_sweep(report, 0, expected)[1]) == len(expected)


def test_witness_check_catches_one_corrupted_reference_value(tmp_path):
    inputs, results = _witness_batch(tmp_path)
    reference = check.load(check.WITNESS_REFERENCE)
    assert check.check_witness(results, 0, inputs, reference) == (len(results), [])

    key = f"{results[0]['slot']}:{results[0]['variant']}"
    corrupted = copy.deepcopy(reference)
    corrupted["graphs"][key]["vertex_cut"] = corrupted["graphs"][key]["vertex_cut"][::-1] + [99]
    attempted, failures = check.check_witness(results, 0, inputs, corrupted)
    assert attempted == len(results)
    assert failures == [(key, failures[0][1])] and "vertex_cut" in failures[0][1]
    assert check.failed_items(check.check_witness(results[:-1], 0, inputs, reference)[1]) == len(results)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_runs_print_every_declared_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload, trace, declared in (("witness", "0", bench["end_to_end"]),
                                      ("sweep-workers", "1", bench["per_layer"])):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "2",
             "--seconds", "1", "--trace", trace, "--smoke"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = _last_json(done.stdout)
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
        assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
        for m in declared:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "witness", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
