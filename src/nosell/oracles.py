"""Brute-force verification oracles.

These deliberately solve the same problems as :mod:`nosell.solvers` by
exhaustive search, so the fast closed-form paths can be checked against an
independent implementation.  Exponential or combinatorial cost is the
point; both oracles refuse sizes where that stops being practical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from .solvers import FEAS_TOL, ContributionProblem, sum_tolerance

#: Subset enumeration is 2^n; keep it under ~1M supports.
MAX_ACTIVE_SET_N = 20
#: Composition counts explode combinatorially in n.
MAX_GRID_N = 4


@dataclass(frozen=True)
class OracleReport:
    """Outcome of a brute-force search.

    ``best_objective`` is always recomputed from ``best_candidate`` so the
    two fields are consistent by construction.
    """

    best_candidate: np.ndarray
    best_objective: float
    candidates_examined: int
    feasible: bool


def iter_active_set_candidates(
    problem: ContributionProblem,
) -> Iterator[Tuple[int, float, np.ndarray, bool]]:
    """Yield ``(mask, lam, candidate, feasible)`` for every nonempty support.

    Pure-python reference used to validate the active-set scan and to drive
    KKT sweeps in tests.  For support S, ``lam = (sum_S d - budget)/|S|``
    and the candidate is ``d_i - lam`` on S (clamped at zero), 0 elsewhere.
    Feasible means ``min_S d - lam >= -FEAS_TOL``.
    """
    deltas = problem.deltas
    n = problem.n
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        sub = deltas[members]
        lam = (float(np.sum(sub)) - problem.budget) / len(members)
        candidate = np.zeros(n)
        candidate[members] = np.maximum(sub - lam, 0.0)
        feasible = bool(float(np.min(sub)) - lam >= -FEAS_TOL)
        yield mask, lam, candidate, feasible


def active_set_l2_oracle(problem: ContributionProblem) -> OracleReport:
    """Solve the l2 problem by enumerating all nonempty support sets.

    The full simplex {x >= 0, sum x = budget} is covered because the l2
    minimizer must be a stationary point of the equality-constrained
    problem restricted to its own support.  Raises ValueError above
    ``MAX_ACTIVE_SET_N`` assets.
    """
    if problem.n > MAX_ACTIVE_SET_N:
        raise ValueError(
            f"active-set oracle limited to n <= {MAX_ACTIVE_SET_N}, got {problem.n}"
        )
    deltas = np.ascontiguousarray(problem.deltas)
    best_mask, _ = _active_set_scan(deltas, problem.budget, FEAS_TOL)
    examined = (1 << problem.n) - 1
    if best_mask == 0:
        # cannot happen: the full support is always feasible
        return OracleReport(np.zeros(problem.n), math.inf, examined, False)
    members = [i for i in range(problem.n) if best_mask >> i & 1]
    lam = (float(np.sum(deltas[members])) - problem.budget) / len(members)
    candidate = np.zeros(problem.n)
    candidate[members] = np.maximum(deltas[members] - lam, 0.0)
    diff = candidate - deltas
    return OracleReport(candidate, float(np.dot(diff, diff)), examined, True)


def kkt_check_l2(problem: ContributionProblem, candidate, threshold: float) -> bool:
    """First-order optimality check for the l2 problem.

    A feasible candidate is optimal iff, with lam = threshold,
    every strictly positive entry sits exactly at ``deltas_i - lam`` and
    every zero entry has ``deltas_i <= lam`` (dual feasibility), all
    within FEAS_TOL.
    """
    cand = np.asarray(candidate, dtype=np.float64).reshape(-1)
    if cand.size != problem.n:
        raise ValueError("candidate length does not match problem size")
    if not np.all(np.isfinite(cand)):
        return False
    if np.any(cand < -FEAS_TOL):
        return False
    if abs(float(np.sum(cand)) - problem.budget) > sum_tolerance(problem.budget):
        return False
    positive = cand > FEAS_TOL
    if np.any(np.abs(cand[positive] - (problem.deltas[positive] - threshold)) > FEAS_TOL):
        return False
    return bool(np.all(problem.deltas[~positive] <= threshold + FEAS_TOL))


def grid_l1_oracle(problem: ContributionProblem, resolution: int) -> OracleReport:
    """Minimize the l1 objective over the budget simplex discretized into
    ``resolution`` cells of size budget/resolution.

    Enumerates every composition of the cells into n parts, i.e.
    C(resolution + n - 1, n - 1) candidates.  Raises ValueError above
    ``MAX_GRID_N`` assets or for resolution < 1.

    The returned minimum over-estimates the continuous optimum by at most
    n * budget / resolution (move each coordinate of a true solution to
    the nearest cell; the objective is 1-Lipschitz per coordinate).
    """
    if problem.n > MAX_GRID_N:
        raise ValueError(f"grid oracle limited to n <= {MAX_GRID_N}, got {problem.n}")
    resolution = int(resolution)
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    deltas = np.ascontiguousarray(problem.deltas)
    cells, _ = _grid_l1_scan(deltas, problem.budget, resolution)
    candidate = cells * (problem.budget / resolution)
    objective = float(np.sum(np.abs(candidate - deltas)))
    examined = math.comb(resolution + problem.n - 1, problem.n - 1)
    return OracleReport(candidate, objective, examined, True)


def _active_set_scan(deltas, budget, tol):
    """Return ``(best_mask, best_objective)`` over all 2^n - 1 nonempty
    support sets of the equality-constrained l2 problem.

    For support S the stationary point is ``y_i = d_i - lam_S`` on S and 0
    elsewhere, with ``lam_S = (sum_S d - budget) / |S|``.  It is feasible
    when ``min_S d - lam_S >= -tol``.  The objective at the stationary
    point collapses to ``|S| lam_S^2 + (sum d^2 - sum_S d^2)``, so the scan
    never materializes candidate vectors.  The masks are walked in chunks,
    each expanded into an (m, n) bit matrix so the per-support sums become
    matrix products.
    """
    n = deltas.shape[0]
    total_sq = float(np.dot(deltas, deltas))
    sq = deltas * deltas
    bit_positions = np.arange(n, dtype=np.int64)
    best_mask = 0
    best_obj = np.inf
    chunk = 1 << 16
    for start in range(1, 1 << n, chunk):
        stop = min(start + chunk, 1 << n)
        masks = np.arange(start, stop, dtype=np.int64)
        bits = (masks[:, None] >> bit_positions[None, :]) & 1
        on = bits.astype(bool)
        count = bits.sum(axis=1)
        s1 = bits @ deltas
        s2 = bits @ sq
        mn = np.where(on, deltas[None, :], np.inf).min(axis=1)
        lam = (s1 - budget) / count
        obj = count * lam * lam + (total_sq - s2)
        obj = np.where(mn - lam >= -tol, obj, np.inf)
        j = int(np.argmin(obj))
        if obj[j] < best_obj:
            best_obj = float(obj[j])
            best_mask = int(masks[j])
    return best_mask, best_obj


def _grid_l1_scan(deltas, budget, resolution):
    """Return ``(best_cells, best_objective)`` over every composition of
    ``resolution`` grid cells into n parts, for the l1 objective
    ``sum |c_i * step - d_i|`` with ``step = budget / resolution``.

    Literal enumeration does not vectorize well, so this solves the same
    minimization by dynamic programming over prefix budgets: ``f_j[r]`` is
    the best cost of the first j parts using exactly r cells.  The minimum
    (and a minimizing composition, recovered by backtracking) coincides
    with the enumerated one; tie-breaking between equal-cost compositions
    may differ.
    """
    n = deltas.shape[0]
    step = budget / resolution
    cells = np.arange(resolution + 1, dtype=np.int64)
    unit = np.abs(cells[None, :] * step - deltas[:, None])
    f = unit[0].copy()
    choices = np.empty((n - 1, resolution + 1), dtype=np.int64) if n > 1 else None
    shifted = cells[:, None] - cells[None, :]
    valid = shifted >= 0
    safe = np.where(valid, shifted, 0)
    for j in range(1, n):
        table = np.where(valid, f[safe] + unit[j][None, :], np.inf)
        choices[j - 1] = np.argmin(table, axis=1)
        f = table[cells, choices[j - 1]]
    best = np.zeros(n, dtype=np.int64)
    r = resolution
    for j in range(n - 1, 0, -1):
        c = int(choices[j - 1][r])
        best[j] = c
        r -= c
    best[0] = r
    return best, float(f[resolution])
