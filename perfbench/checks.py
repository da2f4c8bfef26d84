"""Answer checks for every benchmark op.

Each check returns None when the answer is right and a one-line reason
when it is not.  The checks lean on the library's own public
certificates and tolerances (``kkt_check_l2``, ``is_l1_optimal``,
``sum_tolerance``), so the benchmark never holds the program to a
looser or stricter standard than the program states for itself.
"""

from __future__ import annotations

import json
import re

import numpy as np

_TABLE_LAST_LINE = re.compile(
    r"contribution -?\$[\d,]+ allocated under (l1|l2); "
    r"(k\* = \d+, lambda\* = \S+|case = deficit, alpha = \S+|case = surplus, slack = \S+)"
)


class Checker:
    def __init__(self, ns):
        self.ns = ns

    def _feasibility(self, problem, adj) -> str:
        err = abs(float(np.sum(adj)) - problem.budget)
        return (
            f"sum error {err:.3g} (tolerance {self.ns.sum_tolerance(problem.budget):.3g}), "
            f"min entry {float(np.min(adj)):.3g}"
        )

    def l2(self, deltas, budget, adjustments, threshold):
        problem = self.ns.ContributionProblem(deltas, budget)
        adj = np.asarray(adjustments, dtype=np.float64)
        if adj.shape != (problem.n,):
            return f"l2 plan has shape {adj.shape}, expected ({problem.n},)"
        if not self.ns.kkt_check_l2(problem, adj, threshold):
            return "kkt_check_l2 rejects the l2 plan: " + self._feasibility(problem, adj)
        return None

    def l1(self, deltas, budget, adjustments):
        problem = self.ns.ContributionProblem(deltas, budget)
        adj = np.asarray(adjustments, dtype=np.float64)
        if adj.shape != (problem.n,):
            return f"l1 plan has shape {adj.shape}, expected ({problem.n},)"
        if not self.ns.is_l1_optimal(problem, adj):
            return "is_l1_optimal rejects the l1 plan: " + self._feasibility(problem, adj)
        return None

    @staticmethod
    def cents(cents, budget, adjustments):
        """Rounded plan: nonnegative integer cents summing exactly to
        round(100 * budget), each within one cent of the exact amount."""
        cents = np.asarray(cents)
        exact = np.asarray(adjustments, dtype=np.float64) * 100.0
        if cents.shape != exact.shape:
            return f"cents have shape {cents.shape}, expected {exact.shape}"
        if not np.issubdtype(cents.dtype, np.integer):
            return f"cents have dtype {cents.dtype}, expected integers"
        if np.any(cents < 0):
            return "negative cent entry"
        total, want = int(np.sum(cents)), round(100.0 * budget)
        if total != want:
            return f"cents sum to {total}, expected {want}"
        if np.any(np.abs(cents - exact) > 1.0 + 1e-6):
            return "a cent entry is more than one cent from the exact plan"
        return None

    def cli_json(self, text, budget, norm, rows):
        try:
            doc = json.loads(text)
            assets = doc["assets"]
            cents = np.array([a["adjustment_cents"] for a in assets])
            exact = np.array([a["adjustment"] for a in assets], dtype=np.float64)
        except (ValueError, KeyError, TypeError) as exc:
            return f"JSON report does not parse: {exc!r}"
        if doc.get("norm") != norm:
            return f"JSON report norm {doc.get('norm')!r}, expected {norm!r}"
        if len(assets) != rows:
            return f"JSON report has {len(assets)} assets, expected {rows}"
        if norm == "l2" and "certificate" not in doc or norm == "l1" and "case" not in doc:
            return "JSON report lacks its certificate"
        return self.cents(cents, budget, exact)

    @staticmethod
    def cli_table(text, norm, rows):
        lines = text.rstrip("\n").split("\n")
        match = _TABLE_LAST_LINE.fullmatch(lines[-1])
        if match is None:
            return f"table does not end in its certificate line: {lines[-1][:80]!r}"
        if match.group(1) != norm:
            return f"table certificate names norm {match.group(1)}, expected {norm}"
        # header, rule, one line per asset, rule, total, blank, certificate
        if len(lines) != rows + 6:
            return f"table has {len(lines)} lines, expected {rows + 6}"
        return None


def self_test(checker) -> list:
    """Feed the checker hand-made right and wrong plans; return the
    cases it judged wrongly (an empty list means the checker is sound)."""
    deltas = [900.0, 650.0, 250.0, -300.0, -500.0]
    good = [625.0, 375.0, 0.0, 0.0, 0.0]
    good_cents = [62500, 37500, 0, 0, 0]
    table = (
        "asset  buy\n-----  ---\n" + "".join(f"a{i}  $0\n" for i in range(5))
        + "-----  ---\ntotal  $1,000\n\n"
        "contribution $1,000 allocated under l2; k* = 2, lambda* = 275\n"
    )
    doc = {
        "norm": "l2",
        "certificate": {"k_star": 2, "lambda_star": 275.0},
        "assets": [{"adjustment": a, "adjustment_cents": c} for a, c in zip(good, good_cents)],
    }
    bad_doc = json.loads(json.dumps(doc))
    bad_doc["assets"][1]["adjustment_cents"] += 1
    cases = [
        ("right l2 plan", checker.l2(deltas, 1000.0, good, 275.0), True),
        ("l2 plan with a negative entry", checker.l2(deltas, 1000.0, [626.0, 375.0, 0.0, -1.0, 0.0], 275.0), False),
        ("l2 plan off the budget", checker.l2(deltas, 1000.0, [625.0, 376.0, 0.0, 0.0, 0.0], 275.0), False),
        ("right l1 plan", checker.l1(deltas, 1000.0, [500.0, 361.0, 139.0, 0.0, 0.0]), True),
        ("l1 plan with a negative entry", checker.l1(deltas, 1000.0, [500.0, 362.0, 139.0, -1.0, 0.0]), False),
        ("l1 plan off the budget", checker.l1(deltas, 1000.0, [500.0, 361.0, 140.0, 0.0, 0.0]), False),
        ("right cents", checker.cents(good_cents, 1000.0, good), True),
        ("wrong cent total", checker.cents([62500, 37501, 0, 0, 0], 1000.0, good), False),
        ("negative cent entry", checker.cents([62501, 37500, 0, -1, 0], 1000.0, good), False),
        ("right JSON report", checker.cli_json(json.dumps(doc), 1000.0, "l2", 5), True),
        ("JSON report with a wrong cent total", checker.cli_json(json.dumps(bad_doc), 1000.0, "l2", 5), False),
        ("right table", checker.cli_table(table, "l2", 5), True),
        ("table without its certificate line", checker.cli_table(table.rsplit("contribution", 1)[0], "l2", 5), False),
    ]
    return [
        f"checker {'rejects' if should_pass else 'accepts'} the {name}"
        for name, reason, should_pass in cases
        if (reason is None) != should_pass
    ]
