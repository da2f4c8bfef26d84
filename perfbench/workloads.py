"""The benchmark's workloads: seeded inputs, the timed op and its check.

Every input is a pure function of (seed, workload, item), so the inputs of
any single op can be rebuilt on their own, for a set-up probe or for a
regression test of a failed op.  Sizes and budgets walk a Weyl sequence
(offset by the seed) instead of being drawn independently, so any run of
consecutive ops holds the same mix of easy and hard inputs whatever the
seed; the seed moves the values.

All workloads are closed loops with one client: op i+1 starts when op i
has returned.  The program receives only the generated inputs.

A run is a fixed plan: ``ops`` distinct ops, each repeated ``passes``
times, pass after pass, so that two runs of one seed do exactly the same
work.  ``plan(seconds)`` sizes it with rates measured on the seed commit
on a 2-vCPU Xeon, so that a run takes about ``seconds`` there; a faster
program finishes sooner on the same plan.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from checks import Checker

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
#: distinct ops a run holds at least, so that ten of them lie beyond p90
MIN_OPS = 100

# Fractional parts of the golden ratio, sqrt(2) and sqrt(3): three Weyl
# sequences that stay equidistributed jointly.
_PHI, _SQRT2, _SQRT3 = 0.6180339887498949, 0.41421356237309515, 0.7320508075688772


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(key)


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


class Workload:
    name = ""
    #: ops run back to back before their answers are checked
    batch = 1
    #: untimed ops run before the timed loop
    warmup = 1
    tag = 0

    def __init__(self, ns, seed: int):
        self.ns = ns
        self.seed = seed
        self.checker = Checker(ns)
        self.offsets = _rng(seed, self.tag).random(3)
        self._items = {}

    def plan(self, seconds: float) -> tuple:
        """(distinct ops, passes over them) for a run of about ``seconds``."""
        raise NotImplementedError

    @staticmethod
    def answer(out) -> bytes:
        """The bytes a repeated op must reproduce exactly."""
        raise NotImplementedError

    def _weyl(self, k: int, i: int, alpha: float) -> float:
        return (self.offsets[k] + i * alpha) % 1.0

    def item(self, key):
        if key not in self._items:
            self._items[key] = self.make_item(key)
        return self._items[key]

    def prepare(self, ops: int | None = None) -> None:
        """Generate the inputs of the first ``ops`` ops (default: all)."""
        for key in self.keys(ops):
            self.item(key)

    def digest(self) -> str:
        """sha256 over every generated input, in key order."""
        h = hashlib.sha256(f"{self.name}:{self.offsets.tobytes().hex()}".encode())
        for key in sorted(self._items):
            h.update(repr(key).encode())
            h.update(self.item_bytes(self._items[key]))
        return h.hexdigest()


class MillionL2(Workload):
    """ContributionProblem + solve_l2 on n = 1e6 deltas.

    Three shapes take turns: uniform +-1e4, a negated exponential tail, and
    offset-clustered values 1000 +- 1e-3 (the clustered ones expose
    cancellation in the prefix sums).  Budgets are log-uniform over
    1e-3..1e6, so k*/n spans 1e-6..1.

    Why: here the sort and the threshold scan do nearly all the work and
    the portfolio and CLI layers none, and the easy and hard shapes set
    p50 and p90 apart.
    """

    name = "million_l2"
    tag = 1
    N = 1_000_000
    SHAPES = ("uniform", "exp_tail", "clustered")
    VECTORS_PER_SHAPE = 4
    #: ops per second of run; one pass, since an op is long enough to time alone
    OPS_PER_S = 4.0

    def plan(self, seconds):
        return max(MIN_OPS, round(self.OPS_PER_S * seconds)), 1

    @staticmethod
    def answer(solution):
        return solution.adjustments.tobytes()

    def keys(self, ops=None):
        if ops is None:
            return [(s, k) for s in range(len(self.SHAPES)) for k in range(self.VECTORS_PER_SHAPE)]
        return sorted({self._vector_key(i) for i in range(ops)})

    def _vector_key(self, i):
        return i % len(self.SHAPES), (i // len(self.SHAPES)) % self.VECTORS_PER_SHAPE

    def make_item(self, key):
        shape, k = key
        rng = _rng(self.seed, self.tag, shape, k)
        if shape == 0:
            return rng.uniform(-1e4, 1e4, self.N)
        if shape == 1:
            out = rng.exponential(1e3, self.N)
            return np.negative(out, out=out)
        out = rng.uniform(-1e-3, 1e-3, self.N)
        out += 1000.0
        return out

    @staticmethod
    def item_bytes(item):
        return item.tobytes()

    def op_input(self, i):
        return self.item(self._vector_key(i)), _log_uniform(self._weyl(0, i, _PHI), 1e-3, 1e6)

    def run(self, i):
        deltas, budget = self.op_input(i)
        return self.ns.solve_l2(self.ns.ContributionProblem(deltas, budget))

    def check(self, i, solution):
        deltas, budget = self.op_input(i)
        return self.checker.l2(deltas, budget, solution.adjustments, solution.threshold)

    def describe(self, i):
        shape, k = self._vector_key(i)
        return {"n": self.N, "budget": self.op_input(i)[1], "shape": self.SHAPES[shape], "vector": k}


class ManyAccounts(Workload):
    """Portfolio + rebalance on many small accounts built from plain lists.

    n is log-uniform over 2..200, values lognormal dollars, targets
    Dirichlet, budgets whole cents log-uniform over $10..$100k; one op in
    five uses l1.  A run's ops are POOL accounts.

    Why: per-call overhead (validation, naive deltas, cent rounding)
    dominates and the sort barely registers; l1 runs beside l2 through the
    same portfolio layer.  An op takes about a tenth of a millisecond, so
    each account is rebalanced once per pass over many passes, and its
    latency is its fastest pass.

    Not listed in BENCHMARK.json: a third workload would cut every run to
    25 s, too short for cli_files to be steady on a shared 2-vCPU machine,
    and cli_files reaches the same portfolio and solver layers.
    """

    name = "many_accounts"
    tag = 2
    POOL = 1024
    batch = 256
    warmup = 256
    PASSES_PER_S = 4.0

    def plan(self, seconds):
        return self.POOL, max(1, round(self.PASSES_PER_S * seconds))

    @staticmethod
    def answer(plan):
        return plan.adjustments.tobytes() + np.asarray(plan.rounded_cents).tobytes()

    def keys(self, ops=None):
        return range(self.POOL if ops is None else min(ops, self.POOL))

    def make_item(self, j):
        n = int(round(_log_uniform(self._weyl(0, j, _PHI), 2, 200)))
        rng = _rng(self.seed, self.tag, j)
        values = np.round(rng.lognormal(9.0, 1.5, n), 2)
        targets = rng.dirichlet(np.ones(n))
        budget = round(_log_uniform(self._weyl(1, j, _SQRT2), 1e3, 1e7)) / 100.0
        norm = "l1" if self._weyl(2, j, _SQRT3) < 0.2 else "l2"
        rows = [(f"a{k}", float(v), float(t)) for k, (v, t) in enumerate(zip(values, targets))]
        deltas = targets * (float(np.sum(values)) + budget) - values
        return rows, budget, norm, deltas

    @staticmethod
    def item_bytes(item):
        rows, budget, norm, _ = item
        return repr((rows, budget, norm)).encode()

    def run(self, i):
        ns = self.ns
        rows, budget, norm, _ = self.item(i % self.POOL)
        portfolio = ns.Portfolio(tuple(ns.Asset(a, v, t) for a, v, t in rows))
        return ns.rebalance(portfolio, budget, norm)

    def check(self, i, plan):
        _, budget, norm, deltas = self.item(i % self.POOL)
        if norm == "l2":
            reason = self.checker.l2(deltas, budget, plan.adjustments, plan.solution.threshold)
        else:
            reason = self.checker.l1(deltas, budget, plan.adjustments)
        return reason or self.checker.cents(plan.rounded_cents, budget, plan.adjustments)

    def describe(self, i):
        rows, budget, norm, _ = self.item(i % self.POOL)
        return {"n": len(rows), "budget": budget, "norm": norm, "pool_item": i % self.POOL}


class CliFiles(Workload):
    """One ``rebalance`` command per op on a pre-written CSV, run through
    run_rebalance_command in this process with stdout and stderr captured.

    Nine files in ten hold 5..50 rows; every tenth holds 1k..5k rows,
    sizes spaced evenly in log and taken in a seeded order.  Formats
    alternate table/json and about one file in four uses l1.  Each pass
    runs every file once; a file's latency is its fastest pass.

    Why: argument handling, CSV parsing and report rendering run only
    here.  With ten large files in a hundred, p90 lies nine tenths of the
    way from the slowest small file to the smallest large one (1k rows,
    table) on every seed, so it is set by parsing and rendering that file;
    the large files set the throughput.  Large files stop at 5k rows: parse
    and render cost grows linearly in rows, so 5k rows show a change to them
    as 20k would, while 20k-row files (half a second each) left room for so
    few passes that their fastest times spread by 20% from run to run on a
    shared 2-vCPU machine.  Ops do not start a fresh interpreter:
    process start-up on this kind of shared machine wanders by 20% from
    minute to minute, more than any bound could absorb, so start-up is
    measured by setup_s and the traced run's cli.floor.* probes instead.
    """

    name = "cli_files"
    tag = 3
    POOL = 100
    LARGE_EVERY = 10
    LARGE = POOL // LARGE_EVERY
    warmup = 10
    PASSES_PER_S = 1.4

    def plan(self, seconds):
        return self.POOL, max(2, round(self.PASSES_PER_S * seconds))

    @staticmethod
    def answer(result):
        code, out, err = result
        return f"{code}\0{out}\0{err}".encode()

    def __init__(self, ns, seed):
        super().__init__(ns, seed)
        self.dir = OUT / f"{self.name}-seed{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.large_order = _rng(seed, self.tag, self.POOL).permutation(self.LARGE)

    def keys(self, ops=None):
        return range(self.POOL if ops is None else min(ops, self.POOL))

    def make_item(self, j):
        rng = _rng(self.seed, self.tag, j)
        if j % self.LARGE_EVERY == self.LARGE_EVERY - 1:
            # A large file's size, format and norm follow its size stratum, so
            # that every seed has the same mix of large files.
            stratum = int(self.large_order[j // self.LARGE_EVERY])
            rows = int(round(_log_uniform(stratum / (self.LARGE - 1), 1000, 5000)))
            fmt = "json" if stratum % 2 else "table"
            norm = "l1" if stratum % 4 == 2 else "l2"
        else:
            rows = int(round(_log_uniform(self._weyl(0, j, _PHI), 5, 50)))
            fmt = "json" if j % 2 else "table"
            norm = "l1" if j % 4 == 3 else "l2"
        values = rng.lognormal(9.0, 1.5, rows)
        targets = rng.dirichlet(np.ones(rows))
        text = "id,value,target\n" + "".join(
            f"a{k},{v:.2f},{float(t)!r}\n" for k, (v, t) in enumerate(zip(values, targets)))
        path = self.dir / f"p{j:03d}.csv"
        path.write_text(text, encoding="utf-8")
        contribution = f"{round(_log_uniform(self._weyl(1, j, _SQRT2), 1e3, 1e7)) / 100.0:.2f}"
        args = ["--input", str(path), "--contribution", contribution, "--norm", norm, "--format", fmt]
        return args, rows, float(contribution), norm, fmt, text

    @staticmethod
    def item_bytes(item):
        args, _, _, _, _, text = item
        return repr(args[2:]).encode() + text.encode()

    def run(self, i):
        args = self.item(i % self.POOL)[0]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.ns.cli.run_rebalance_command(args)
        return code, out.getvalue(), err.getvalue()

    def check(self, i, result):
        code, out, err = result
        _, rows, budget, norm, fmt, _ = self.item(i % self.POOL)
        if code != 0:
            return f"exit status {code}: {err.strip()[-200:]}"
        if fmt == "json":
            return self.checker.cli_json(out, budget, norm, rows)
        return self.checker.cli_table(out, norm, rows)

    def describe(self, i):
        args, rows, budget, norm, fmt, _ = self.item(i % self.POOL)
        return {"n": rows, "budget": budget, "norm": norm, "format": fmt, "file": Path(args[1]).name}


WORKLOADS = {w.name: w for w in (MillionL2, ManyAccounts, CliFiles)}
