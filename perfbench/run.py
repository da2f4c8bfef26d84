"""nosell benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload million_l2 --seed 1 --seconds 25 --trace 0

Workloads (closed loops, one client, ops one after another; see
workloads.py for the input distributions and why each was chosen):

* ``million_l2``    ContributionProblem + solve_l2 at n = 1e6
* ``many_accounts`` Portfolio + rebalance on many accounts of 2..200 assets
  (runs by hand; BENCHMARK.json leaves it out, see workloads.py)
* ``cli_files``     one ``rebalance`` command per CSV file, run in-process
* ``all``           each of the above in turn

A run is a fixed plan of distinct ops, each repeated over a number of
passes (workloads.py), so that two runs of one seed do the same work.
``--trace 0`` prints the end-to-end metrics: latency p50/p90 over the
distinct ops, each op at its fastest pass, the throughput those fastest
passes give, the share of ops whose answer passed its check (ok_rate),
set-up time (median of fresh processes timing ``import nosell`` plus a
first op) and peak resident memory of the process doing the work.
``--trace 1`` prints per-layer metrics from a traced run, per op of the
workload, plus the start-up floors of the CLI and the tracing overhead.

Every op's answer is checked outside the timed region.  Ops that raise,
exit non-zero or fail their check count as failed and are written, with
the inputs needed to rebuild them, to .bench_out/.  ``correct`` in the
last line says whether the benchmark's own checks held: the answer
checker rejects hand-made bad plans, equal seeds give equal input hashes
and the metric names match BENCHMARK.json.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKER = HERE / "worker.py"
WORKLOADS = ("million_l2", "many_accounts", "cli_files")

#: fresh processes timed for setup_s (median) and per start-up floor (fastest)
SETUP_PROBES = 9
FLOOR_PROBES = 7
TIMEOUT_S = 170

FLOORS = {
    "cli.floor.interpreter_ms": "pass",
    "cli.floor.import_numpy_ms": "import numpy",
    "cli.floor.import_nosell_ms": "import nosell",
}


def run_worker(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args],
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def floor_ms(code: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60,
                   stdout=subprocess.DEVNULL)
    return (time.perf_counter() - start) * 1e3


#: per-layer metrics read from the traced run, named <module>.<function>.<stat>
LAYER_METRICS = (
    "solvers.solve_l2.calls", "solvers.solve_l2.elements",
    "solvers.solve_l2.busy_ms", "solvers.solve_l2.self_ms",
    "kernels.threshold_scan.calls", "kernels.threshold_scan.busy_ms",
    "solvers.ContributionProblem.busy_ms", "solvers.solve_l1.busy_ms",
    "portfolio.Portfolio.busy_ms", "portfolio.naive_adjustments.busy_ms",
    "portfolio.round_to_cents.busy_ms", "portfolio.rebalance.busy_ms", "portfolio.rebalance.self_ms",
    "cli.parse_portfolio.busy_ms", "cli.render_table.busy_ms", "cli.render_json.busy_ms",
    "cli.run_rebalance_command.self_ms",
)


def layer_metrics(worker: dict, floors: dict) -> dict:
    layers = worker["layers"]

    def stat(layer, key):
        return layers.get(layer, {}).get(key, 0.0)

    out = {
        "trace.op_ms": (worker["traced_op_ms"], "ms/op"),
        "trace.overhead_pct": (worker["trace_overhead_pct"], "%"),
        "trace.errors": (sum(s["errors"] for s in layers.values()), "count"),
    }
    for name in LAYER_METRICS:
        layer, key = name.rsplit(".", 1)
        out[name] = (stat(layer, key), "ms/op" if key.endswith("_ms") else "count/op")
    # Asset objects are built next to the Portfolio that holds them, never inside it
    out["portfolio.Portfolio.busy_ms"] = (out["portfolio.Portfolio.busy_ms"][0] + stat("portfolio.Asset", "busy_ms"), "ms/op")
    out.update({name: (value, "ms") for name, value in floors.items()})
    return out


def run_one(name: str, seed: int, seconds: int, trace: int, expected_names: set) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    if trace:
        samples = {metric: [] for metric in FLOORS}
        for _ in range(FLOOR_PROBES):
            for metric, code in FLOORS.items():
                samples[metric].append(floor_ms(code))
        # start-up here takes either its floor or about 50 ms more, seemingly
        # at random, so the floor is the fastest probe, not the median
        floors = {metric: min(v) for metric, v in samples.items()}
        worker = run_worker(*common, "--seconds", str(seconds), "--trace", "1")
        metrics = layer_metrics(worker, floors)
    else:
        # the first probe after a pause runs with a cold file cache; it only warms it
        run_worker(*common, "--setup-probe")
        setup = [run_worker(*common, "--setup-probe")["setup_s"] for _ in range(SETUP_PROBES)]
        worker = run_worker(*common, "--seconds", str(seconds))
        attempted = worker["attempted"]
        metrics = {
            "latency_p50_ms": (worker["latency_p50_ms"], "ms"),
            "latency_p90_ms": (worker["latency_p90_ms"], "ms"),
            "throughput_ops_s": (worker["throughput_ops_s"], "ops/s"),
            "ok_rate": ((attempted - worker["failed"]) / attempted, "ratio"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        }

    errors = list(worker["selfcheck_errors"])
    if set(metrics) != expected_names:
        errors.append(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ expected_names)}")
    summary = {
        "correct": not errors,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{name}-seed{seed}-trace{trace}.json"
    record.write_text(json.dumps({**worker, "benchmark_errors": errors, "summary": summary}, indent=1))
    env = worker["env"]
    print(f"== {name} seed={seed} trace={trace} ops={worker['ops']} passes={worker['passes']}"
          f" attempted={worker['attempted']} failed={worker['failed']}"
          f" fail_rate={worker['failed'] / worker['attempted']:.4g}")
    print(f"   env: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']}"
          f" numpy={env['numpy']} numba={env['numba_imports']} backend={env['nosell_backend']}"
          f" commit={env['git_commit'][:12]}")
    print(f"   inputs sha256={worker['input_sha256']}")
    if not trace:
        print(f"   latency samples={worker['ops']} (each op's fastest of {worker['passes']} passes),"
              f" beyond p90={worker['beyond_p90']}; wall-clock throughput"
              f" {worker['wall_throughput_ops_s']:.6g} ops/s")
    else:
        print(f"   absent layers: {', '.join(worker['absent']) or 'none'}; spans in {worker['spans_file']}")
        print(f"   mean op: {worker['untraced_op_ms']:.6g} ms untraced, {worker['traced_op_ms']:.6g} ms traced"
              " less the calibrated wrapper cost")
    op_ms = worker.get("traced_op_ms")
    for k, (v, u) in metrics.items():
        share = f"  {v / op_ms:6.1%} of an op" if u == "ms/op" and op_ms else ""
        print(f"   {k:<38} {v:>14.6g} {u}{share}")
    for failure in worker["failures"][:3]:
        print(f"   failed op: {json.dumps(failure)}")
    for error in errors:
        print(f"   BENCHMARK ERROR: {error}")
    print(f"   full record: {record.relative_to(ROOT)}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "nosell" / "__init__.py").is_file() or not spec_file.is_file():
        print("error: src/nosell or BENCHMARK.json is missing; run from the root of a nosell checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_one(name, args.seed, args.seconds, args.trace, expected) for name in names]
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for summary in summaries:
        print(json.dumps(summary))
    return 0 if all(s["correct"] for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
