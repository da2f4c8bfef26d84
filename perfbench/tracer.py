"""Per-layer spans recorded from outside the program.

The tracer replaces every binding of a traced function inside the
``nosell`` modules (the defining module, the modules that imported the
name and the package namespace) with a wrapper that records a span, and
puts the originals back on ``uninstall``.  Classes are traced through
their ``__init__``, which every reference to the class shares.

A span has an id, the id of its parent span, the workload op it belongs
to, a name and its start and end in ns.  Totals per name are kept for
every span; the spans themselves are kept in memory up to ``limit`` and
written out by the caller at the end.  Self time is busy time minus the
time covered by direct child spans.

A wrapper costs about a microsecond, as much as some traced calls
(``Asset``) take, and that cost lands in the parent's time.  ``calibrate``
measures it on a traced no-op, and ``totals`` takes it back out of busy
and self times, so that per-layer shares match an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
from time import perf_counter_ns

#: (module, attribute) of every traced function, outermost layer first.
TARGETS = (
    ("cli", "run_rebalance_command"),
    ("cli", "parse_portfolio"),
    ("cli", "render_table"),
    ("cli", "render_json"),
    ("portfolio", "rebalance"),
    ("portfolio", "Asset"),
    ("portfolio", "Portfolio"),
    ("portfolio", "naive_adjustments"),
    ("portfolio", "round_to_cents"),
    ("solvers", "ContributionProblem"),
    ("solvers", "solve_l2"),
    ("solvers", "solve_l1"),
    ("kernels", "threshold_scan"),
)

#: Work counted per call, beyond the call itself: the problem size.
ELEMENTS = {"solvers.solve_l2": lambda problem, *_, **__: problem.n}


class Stat:
    __slots__ = ("calls", "busy_ns", "self_ns", "errors", "elements", "children", "descendants")

    def __init__(self):
        self.calls = self.busy_ns = self.self_ns = self.errors = 0
        self.elements = self.children = self.descendants = 0


class Tracer:
    def __init__(self, limit: int = 50_000):
        self.limit = limit
        self.active = False
        self.op = -1
        self.stats = {}
        self.spans = []
        self.dropped = 0
        self.absent = []
        self.cost_in_ns = self.cost_out_ns = 0.0
        self._stack = []
        self._ids = itertools.count()
        self._restore = []

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        count = ELEMENTS.get(name)
        stack = self._stack
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            # id, ns covered by direct children, direct children, all descendants
            frame = [next(ids), 0, 0, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                busy = t1 - t0
                stat.calls += 1
                stat.busy_ns += busy
                stat.self_ns += busy - frame[1]
                stat.children += frame[2]
                stat.descendants += frame[3]
                if count is not None:
                    stat.elements += count(*args, **kwargs)
                if stack:
                    up = stack[-1]
                    up[1] += busy
                    up[2] += 1
                    up[3] += frame[3] + 1
                if len(spans) < self.limit:
                    spans.append((frame[0], parent, self.op, name, t0, t1))
                else:
                    self.dropped += 1

        return traced

    def calibrate(self, calls: int = 20_000) -> None:
        """Measure a wrapper's cost inside its own span (``cost_in_ns``)
        and in its parent's span outside it (``cost_out_ns``)."""
        def noop():
            return None

        def plain_loop():
            for _ in range(calls):
                noop()

        inner = self.wrap("calibrate.inner", noop)

        def traced_loop():
            for _ in range(calls):
                inner()

        outer = self.wrap("calibrate.outer", traced_loop)
        start = perf_counter_ns()
        plain_loop()
        plain = perf_counter_ns() - start
        self.active = True
        outer()
        self.active = False
        cal_in, cal_out = self.stats.pop("calibrate.inner"), self.stats.pop("calibrate.outer")
        self.cost_in_ns = max(cal_in.busy_ns - plain, 0) / calls
        self.cost_out_ns = max(cal_out.self_ns - plain, 0) / calls
        self.spans.clear()
        self.dropped = 0

    def totals(self) -> dict:
        """Per name: calls, elements, errors, and busy and self ns with
        the calibrated wrapper cost removed."""
        cost_in, cost_all = self.cost_in_ns, self.cost_in_ns + self.cost_out_ns
        return {
            name: {
                "calls": s.calls,
                "elements": s.elements,
                "errors": s.errors,
                "busy_ns": s.busy_ns - s.calls * cost_in - s.descendants * cost_all,
                "self_ns": s.self_ns - s.calls * cost_in - s.children * self.cost_out_ns,
            }
            for name, s in self.stats.items()
        }

    def install(self) -> None:
        """Wrap every binding of every target that exists; note the rest
        as absent (a later version of the program may drop a layer)."""
        package = [m for key, m in list(sys.modules.items()) if key == "nosell" or key.startswith("nosell.")]
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"nosell.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            target = getattr(module, attr, None)
            if target is None:
                self.absent.append(name)
            elif isinstance(target, type):
                original = target.__dict__["__init__"]
                target.__init__ = self.wrap(name, original)
                self._restore.append((target, "__init__", original))
            else:
                traced = self.wrap(name, target)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is target:
                            setattr(mod, key, traced)
                            self._restore.append((mod, key, target))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        self.active = False

    def dump(self) -> dict:
        return {
            "fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "dropped": self.dropped,
            "wrapper_cost_ns": {"inside": self.cost_in_ns, "outside": self.cost_out_ns},
        }
