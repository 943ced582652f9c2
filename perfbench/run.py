"""Benchmark of zex: cold ``zex verify`` sweeps and large-order cut witnesses.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 10 --trace 0

Workloads:

* ``sweep-serial``: one cold ``zex verify --n-min 6 --n-max 9`` process,
  ``ZEX_THREADS`` unset.  The exhaustive sweep kernels of ``search`` do
  almost all the work; ``connectivity`` does none.
* ``sweep-workers``: the same grid with ``ZEX_THREADS=2``, so the process
  pool's chunking, pickling and start-up show too.  It is not declared in
  ``BENCHMARK.json`` (see README.md) and is run by hand.
* ``witness``: a seeded batch of graphs of orders 10-60 (see
  ``witness.py``); almost all time is flow connectivity and the lex-min
  cut witnesses, none is in the sweep.

The sweeps are exhaustive and ignore the seed.  Each repetition is a
fresh process, because zex caches a sweep in-process.  A run makes the
number of repetitions (at least one) whose measured time comes nearest to
``--seconds``, and reports the medians.  Set-up (interpreter start, import and, for
``witness``, writing the input batch) is a separate cold process, run
several times; its median is ``setup_s``.

Every repetition's output is checked against ``reference/``; each
disagreeing cell or graph is printed and counted in ``failed``.

``--trace 1`` runs a traced repetition between two untraced ones and
prints the per-layer metrics from the traced one (see ``tracer.py``),
with the tracing overhead against the mean of the untraced two.  ``--smoke`` shrinks the
inputs (grid 6-7, witness orders <= 16) to check the harness in seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details of the
run, including every repetition, go to ``.bench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import check
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "sweep-serial": {"kind": "sweep", "threads": None},
    "sweep-workers": {"kind": "sweep", "threads": "2"},
    "witness": {"kind": "witness", "threads": None},
}
SWEEP_GRID = (6, 9)
SMOKE_GRID = (6, 7)
SETUP_REPS = 7
SMOKE_SETUP_REPS = 2
# A run must end within 180 s; no process is started that could end later.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("graphs_per_s", "1/s"),
)
PER_LAYER = (
    ("search.masks_scanned", "count"),
    ("search.rejected_isolated", "count"),
    ("search.rejected_disconnected", "count"),
    ("search.useful_ratio", "ratio"),
    ("search.decode_masks_s", "s"),
    ("search.kappa_calls", "count"),
    ("search.kappa_s", "s"),
    ("search.kappa_prime_calls", "count"),
    ("search.kappa_prime_s", "s"),
    ("search.member_encode_calls", "count"),
    ("search.member_encode_s", "s"),
    ("search.merge_s", "s"),
    ("search.dedup_s", "s"),
    ("search.canonical_form_calls", "count"),
    ("search.canonical_form_s", "s"),
    ("graphs.graph_init_calls", "count"),
    ("graphs.graph_init_s", "s"),
    ("graphs.induced_calls", "count"),
    ("graphs.encode_graph6_s", "s"),
    ("graphs.decode_graph6_s", "s"),
    ("graphs.index_s", "s"),
    ("connectivity.vertex_value_calls", "count"),
    ("connectivity.vertex_flow_calls", "count"),
    ("connectivity.vertex_flow_s", "s"),
    ("connectivity.edge_flow_calls", "count"),
    ("connectivity.edge_flow_s", "s"),
    ("connectivity.vertex_witness_s", "s"),
    ("connectivity.edge_witness_s", "s"),
    ("families.predict_calls", "count"),
    ("families.predict_s", "s"),
    ("cli.verify_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
)


class Run:
    """Settings and paths of one benchmark run."""

    def __init__(self, args: argparse.Namespace):
        self.workload = args.workload
        self.kind = WORKLOADS[args.workload]["kind"]
        self.seed = args.seed
        self.seconds = args.seconds
        self.smoke = args.smoke
        self.grid = SMOKE_GRID if args.smoke else SWEEP_GRID
        self.started = time.perf_counter()
        self.work = os.path.join(ROOT, ".bench_work", args.workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = {k: v for k, v in os.environ.items() if k != "ZEX_THREADS"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )
        threads = WORKLOADS[args.workload]["threads"]
        if threads is not None:
            self.env["ZEX_THREADS"] = threads

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)


@dataclass
class Measured:
    exit_code: int
    wall: float
    cpu: float
    rss_mb: float


def run_process(run: Run, cmd: list[str], log_name: str) -> Measured:
    """Run ``cmd`` to completion as the leader of a new process group; wall,
    CPU and peak RSS come from ``wait4`` and cover the process and its
    waited-for children."""
    with open(run.path(log_name + ".out"), "wb") as out, open(run.path(log_name + ".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=run.env, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(max(run.remaining(), 1.0), os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        # killed: wait until the rest of its group (pool workers) is gone too
        for _ in range(100):
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    return Measured(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return 100.0, ordered[-1]
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def load_output(path: str):
    """The JSON a measured process wrote, or None when it wrote none or a broken one."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# -- workloads --------------------------------------------------------------

def sweep_rep(run: Run, rep: int, trace_dir: str | None) -> dict:
    report_path = run.path(f"report-{rep}.json")
    args = ["verify", "--n-min", str(run.grid[0]), "--n-max", str(run.grid[1]), "--out", report_path]
    if trace_dir is None:
        cmd = [sys.executable, "-m", "zex.cli", *args]
    else:
        cmd = [sys.executable, os.path.join(HERE, "tracer.py"), trace_dir, *args]
    m = run_process(run, cmd, f"rep-{rep}")
    report = load_output(report_path)
    expected = check.sweep_cells(check.load(check.SWEEP_REFERENCE), run.grid[1])
    attempted, failures = check.check_sweep(report, m.exit_code, expected)
    cells = report["cells"] if report else []
    members = sum(c["graphs_enumerated"] for c in cells
                  if c["spec"]["mode"] == "vertex" and c["spec"]["index"] == "M1")
    return {
        "measured": m,
        "attempted": attempted,
        "failures": failures,
        "work_items": members,
        "graph_ms": [],
        "report_bytes": os.path.getsize(report_path) if report else 0,
    }


def witness_rep(run: Run, rep: int, trace_dir: str | None) -> dict:
    result_path = run.path(f"result-{rep}.json")
    cmd = [sys.executable, os.path.join(HERE, "witness.py"), "work", run.path("inputs"), result_path]
    if trace_dir is not None:
        cmd += ["--trace-dir", trace_dir]
    m = run_process(run, cmd, f"rep-{rep}")
    results = load_output(result_path)
    attempted, failures = check.check_witness(
        results, m.exit_code, run.path("inputs"), check.load(check.WITNESS_REFERENCE))
    results = results or []
    return {
        "measured": m,
        "attempted": attempted,
        "failures": failures,
        "work_items": len(results),
        "graph_ms": [r["ms"] for r in results],
        "report_bytes": 0,
    }


# -- metrics ----------------------------------------------------------------

def rep_metrics(rep: dict) -> dict:
    m = rep["measured"]
    metrics = {
        "wall_s": m.wall,
        "cpu_s": m.cpu,
        "peak_rss_mb": m.rss_mb,
        "graphs_per_s": rep["work_items"] / m.wall,
    }
    if rep["graph_ms"]:
        pct, tail = tail_percentile(rep["graph_ms"])
        metrics.update(graph_p50_ms=statistics.median(rep["graph_ms"]), graph_tail_ms=tail,
                       graph_tail_pct=pct, graph_samples=len(rep["graph_ms"]))
    return metrics


def layer_metrics(merged: dict, report_bytes: int, overhead: float) -> dict:
    stats, results, by_parent = merged["stats"], merged["results"], merged["by_parent"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    scanned = calls("search._bipartite_masks")
    isolated = results.get("search._bipartite_masks", {}).get("isolated", 0)
    disconnected = results.get("search._connected_masks", {}).get("disconnected", 0)
    member_g6 = by_parent.get("graphs.encode_graph6", {}).get("search._sweep_chunk", [0, 0.0])
    return {
        "search.masks_scanned": scanned,
        "search.rejected_isolated": isolated,
        "search.rejected_disconnected": disconnected,
        "search.useful_ratio": (scanned - isolated - disconnected) / scanned if scanned else 0.0,
        "search.decode_masks_s": total("search._bipartite_masks"),
        "search.kappa_calls": calls("search._kappa_masks"),
        "search.kappa_s": total("search._kappa_masks"),
        "search.kappa_prime_calls": calls("search._kappa_prime_masks"),
        "search.kappa_prime_s": total("search._kappa_prime_masks"),
        "search.member_encode_calls": calls("search._masks_to_graph"),
        "search.member_encode_s": total("search._masks_to_graph") + member_g6[1],
        "search.merge_s": total("search._merge_cells"),
        "search.dedup_s": total("search._dedup_isomorphic"),
        "search.canonical_form_calls": calls("search.canonical_form"),
        "search.canonical_form_s": total("search.canonical_form"),
        "graphs.graph_init_calls": calls("graphs.Graph.__init__"),
        "graphs.graph_init_s": total("graphs.Graph.__init__"),
        "graphs.induced_calls": calls("graphs.Graph.induced"),
        "graphs.encode_graph6_s": total("graphs.encode_graph6"),
        "graphs.decode_graph6_s": total("graphs.decode_graph6"),
        "graphs.index_s": total("graphs.m1") + total("graphs.m2"),
        "connectivity.vertex_value_calls": calls("connectivity.vertex_connectivity_value"),
        "connectivity.vertex_flow_calls": calls("connectivity._vertex_flow"),
        "connectivity.vertex_flow_s": total("connectivity._vertex_flow"),
        "connectivity.edge_flow_calls": calls("connectivity._edge_flow"),
        "connectivity.edge_flow_s": total("connectivity._edge_flow"),
        "connectivity.vertex_witness_s": total("connectivity._lex_min_vertex_cut"),
        "connectivity.edge_witness_s": total("connectivity._lex_min_edge_cut"),
        "families.predict_calls": calls("families.predicted_extremal"),
        "families.predict_s": total("families.predicted_extremal"),
        # the cli layer's own work: cmd_verify minus the searches it calls
        "cli.verify_s": stats.get("cli.cmd_verify", [0, 0.0, 0.0])[2],
        "cli.report_bytes": report_bytes,
        "trace.overhead_frac": overhead,
    }


def machine_facts(run: Run) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "ZEX_THREADS": run.env.get("ZEX_THREADS", "unset"),
        "commit": commit,
        "seed": run.seed,
        "workload": run.workload,
        "smoke": run.smoke,
    }


# -- main -------------------------------------------------------------------

def measure(run: Run, trace: bool) -> tuple[float, list[dict], dict | None]:
    if run.kind == "sweep":
        setup_cmd = [sys.executable, "-c", "import zex.cli"]
    else:
        setup_cmd = [sys.executable, os.path.join(HERE, "witness.py"), "setup", str(run.seed),
                     run.path("inputs")] + (["--smoke"] if run.smoke else [])
    setups = []
    for i in range(SMOKE_SETUP_REPS if run.smoke else SETUP_REPS):
        m = run_process(run, setup_cmd, f"setup-{i}")
        if m.exit_code != 0:
            with open(run.path(f"setup-{i}.err")) as fh:
                sys.stderr.write(fh.read())
            raise SystemExit(f"set-up failed with exit code {m.exit_code}")
        setups.append(m.wall)
    rep_fn = sweep_rep if run.kind == "sweep" else witness_rep
    reps = []
    if trace:
        reps.append(rep_fn(run, 0, None))
        trace_dir = run.path("trace")
        os.makedirs(trace_dir)
        traced = rep_fn(run, 1, trace_dir)
        # an untraced repetition on each side of the traced one cancels slow
        # drift of the machine's speed out of the overhead
        if traced["measured"].wall * 1.2 < run.remaining():
            reps.append(rep_fn(run, 2, None))
        merged = tracer.merge(trace_dir)
        with open(run.path("trace.json"), "w") as fh:
            json.dump(merged, fh)
        untraced = statistics.mean(rep["measured"].wall for rep in reps)
        overhead = traced["measured"].wall / untraced - 1.0
        layers = layer_metrics(merged, traced["report_bytes"], overhead)
        reps.append(traced)
        return statistics.median(setups), reps, layers
    measured = 0.0
    while True:
        rep = rep_fn(run, len(reps), None)
        reps.append(rep)
        measured += rep["measured"].wall
        # stop at the repetition count that comes nearest to --seconds
        if measured + rep["measured"].wall / 2 >= run.seconds or rep["measured"].wall * 1.2 > run.remaining():
            break
    return statistics.median(setups), reps, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: grid 6-7 and witness orders <= 16")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zex", "__init__.py")):
        print(f"error: no zex sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    run = Run(args)
    facts = machine_facts(run)
    setup_s, reps, layers = measure(run, bool(args.trace))
    per_rep = [rep_metrics(rep) for rep in reps]
    attempted = sum(rep["attempted"] for rep in reps)
    failures = [f for rep in reps for f in rep["failures"]]
    failed = sum(check.failed_items(rep["failures"]) for rep in reps)

    summary = {"setup_s": setup_s}
    for name, _ in END_TO_END[1:]:
        summary[name] = statistics.median(r[name] for r in per_rep)
    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"repetitions={len(reps)}")
    for rep_no, (rep, r) in enumerate(zip(reps, per_rep)):
        print(f"rep {rep_no}: exit={rep['measured'].exit_code} "
              + " ".join(f"{k}={v:.6g}" for k, v in r.items()))
    # a traced run's last repetition is the traced one; its latencies include tracing
    timed = [r for r in (per_rep[:-1] if layers else per_rep) if "graph_p50_ms" in r]
    if timed:
        # per-graph latency: reported, but not an end-to-end metric, because
        # a sweep has no per-graph latency and every workload prints the same set
        print(f"graph_p50_ms = {statistics.median(r['graph_p50_ms'] for r in timed):.6g} ms, "
              f"graph_tail_ms = {statistics.median(r['graph_tail_ms'] for r in timed):.6g} ms "
              f"(p{timed[0]['graph_tail_pct']:.1f} of {timed[0]['graph_samples']} graphs, "
              f"median over {len(timed)} repetitions)")
    for key, message in failures:
        print(f"FAILED {key}: {message}")
    print(f"failed_frac={failed / attempted:.6g} ({failed} of {attempted} "
          f"{'cells' if run.kind == 'sweep' else 'graphs'})")
    if layers is None:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    with open(run.path("result.json"), "w") as fh:
        json.dump({"facts": facts, "setup_s": setup_s, "repetitions": per_rep,
                   "failures": failures, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
