"""The measured process: one workload on one seed.

Started by run.py in a fresh interpreter, so that peak memory and
start-up belong to the work alone.  Two modes:

* ``--setup-probe``: time ``import nosell`` plus the first op (its input
  is generated between the two, untimed) and print ``{"setup_s": ...}``.
* otherwise: generate the inputs, warm up, run the workload's fixed plan
  for a run of about ``--seconds``, check every answer outside the timed
  region, and print one JSON object of raw results.  With ``--trace 1``
  the plan for half the time runs twice, untraced then traced, and the
  per-layer totals of the traced half are added.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: A run stops after the batch in which the loop has been busy this long,
#: whatever its plan, so that a run of a much slower program still ends
#: within the 180 s a run is given.
HARD_STOP_S = 120.0
#: Failed ops kept in full; the rest are only counted.
MAX_RECORDED_FAILURES = 200


def setup_probe(name: str, seed: int) -> dict:
    start = time.perf_counter()
    import nosell
    imported = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](nosell, seed)
    workload.prepare(1)
    first = time.perf_counter()
    workload.run(0)
    done = time.perf_counter()
    return {"setup_s": (imported - start) + (done - first)}


def measure(workload, ops: int, passes: int, tracer=None) -> dict:
    """Closed loop: ``passes`` passes over ops 0..ops-1, each op timed.

    An op's latency is its fastest pass: on a shared machine interference
    only ever adds time, so the minimum is the steadiest estimate of what
    the op costs (Chen and Revels, "Robust benchmarking in noisy
    environments", 2016).  Answers are checked between batches, untimed:
    in the first pass against the checker, in later passes against the
    first pass's answer, which they must repeat byte for byte.
    """
    best_ns = [float("inf")] * ops
    first = [None] * ops
    first_failed = [False] * ops
    failures = []
    failed = 0
    busy_ns = 0
    clock = time.perf_counter_ns

    for rep in range(passes):
        for start in range(0, ops, workload.batch):
            stop = min(start + workload.batch, ops)
            results = []
            if tracer is not None:
                tracer.active = True
            batch_start = clock()
            for j in range(start, stop):
                if tracer is not None:
                    tracer.op = j
                t0 = clock()
                try:
                    out = workload.run(j)
                except Exception as exc:  # an op that raises is a failed op, not a crash
                    out = exc
                elapsed = clock() - t0
                if elapsed < best_ns[j]:
                    best_ns[j] = elapsed
                results.append(out)
            busy_ns += clock() - batch_start
            if tracer is not None:
                tracer.active = False
            for j, out in enumerate(results, start=start):
                if isinstance(out, Exception):
                    reason = f"raised {type(out).__name__}: {out}"
                elif rep == 0:
                    if passes > 1:
                        first[j] = workload.answer(out)
                    reason = workload.check(j, out)
                    first_failed[j] = reason is not None
                elif workload.answer(out) != first[j]:
                    reason = "answer differs from the op's first pass"
                elif first_failed[j]:
                    reason = "repeats the first pass's failed answer"
                else:
                    reason = None
                if reason:
                    failed += 1
                    if len(failures) < MAX_RECORDED_FAILURES:
                        failures.append({"workload": workload.name, "seed": workload.seed, "op": j, "pass": rep,
                                         **workload.describe(j), "reason": reason})
            del results, out
            if busy_ns > HARD_STOP_S * 1e9:
                break
        if busy_ns > HARD_STOP_S * 1e9:
            break
    # a run cut inside its first pass reports the ops it timed
    timed = ops if rep else stop
    return {"best_ns": best_ns[:timed], "passes": rep + 1, "attempted": rep * ops + stop,
            "busy_ns": busy_ns, "failed": failed, "failures": failures}


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = ROOT / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(ns, seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "nosell_backend": getattr(ns, "BACKEND", None),
        "git_commit": git_commit(),
        "seed": seed,
    }


def input_selfcheck(workload_cls, ns, seed: int) -> list:
    """The same seed must give the same inputs, another seed other ones."""
    def first_digest(s):
        w = workload_cls(ns, s)
        w.prepare(1)
        return w.digest()

    a, b, c = first_digest(seed), first_digest(seed), first_digest(seed + 1)
    errors = []
    if a != b:
        errors.append("the same seed gave two different input hashes")
    if a == c:
        errors.append("seeds differ but the input hashes agree")
    return errors


def layer_totals(tracer, ops: int) -> dict:
    """Per-layer totals of the traced loop, per workload op."""
    return {
        name: {
            "calls": t["calls"] / ops,
            "elements": t["elements"] / ops,
            "busy_ms": t["busy_ns"] / ops / 1e6,
            "self_ms": t["self_ns"] / ops / 1e6,
            "errors": t["errors"],
        }
        for name, t in tracer.totals().items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args()

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0

    import nosell
    import workloads
    from checks import Checker, self_test

    workload_cls = workloads.WORKLOADS[args.workload]
    rss_before = current_rss_bytes()
    workload = workload_cls(nosell, args.seed)
    workload.prepare()
    digest = workload.digest()
    gc.collect()
    gc.freeze()
    input_rss = current_rss_bytes() - rss_before

    for j in range(workload.warmup):
        workload.run(j)

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "input_sha256": digest}
    if not args.trace:
        ops, passes = workload.plan(args.seconds)
        run = measure(workload, ops, passes)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - input_rss
        result["peak_rss_mb"] = peak / 2**20
    else:
        from tracer import Tracer

        ops, passes = workload.plan(args.seconds / 2)
        plain = measure(workload, ops, passes)
        tracer = Tracer()
        tracer.calibrate()
        tracer.install()
        try:
            run = measure(workload, ops, plain["passes"], tracer)
        finally:
            tracer.uninstall()
        # both halves ran the same ops, so their busy times compare directly
        result["trace_overhead_pct"] = 100.0 * (run["busy_ns"] / plain["busy_ns"] - 1.0)
        spans = sum(stat.calls for stat in tracer.stats.values())
        wrapper_ns = spans * (tracer.cost_in_ns + tracer.cost_out_ns)
        executed = run["attempted"]
        result["traced_op_ms"] = (run["busy_ns"] - wrapper_ns) / executed / 1e6
        result["untraced_op_ms"] = plain["busy_ns"] / plain["attempted"] / 1e6
        result["layers"] = layer_totals(tracer, executed)
        result["absent"] = tracer.absent
        spans_file = workloads.OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.dump()))
        result["spans_file"] = str(spans_file.relative_to(ROOT))
        run["attempted"] += plain["attempted"]
        run["failed"] += plain["failed"]
        run["failures"] = plain["failures"] + run["failures"]

    best_ms = [ns / 1e6 for ns in run["best_ns"]]
    deciles = statistics.quantiles(best_ms, n=10)
    result.update({
        "ops": ops,
        "passes": run["passes"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"],
        "latency_p50_ms": deciles[4],
        "latency_p90_ms": deciles[8],
        "beyond_p90": sum(x > deciles[8] for x in best_ms),
        "best_ms": best_ms,
        # each op once, at its fastest pass
        "throughput_ops_s": len(best_ms) / (sum(best_ms) / 1e3),
        "wall_throughput_ops_s": run["attempted"] / (run["busy_ns"] / 1e9) if not args.trace else None,
        "selfcheck_errors": self_test(Checker(nosell)) + input_selfcheck(workload_cls, nosell, args.seed),
        "env": environment(nosell, args.seed),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
