"""Closed-form solvers for budget-constrained, buy-only allocation.

Given per-asset shortfalls ``deltas`` (how far each asset sits below its
ideal post-contribution holding; negative entries mean the asset is
already overweight) and a cash budget ``y > 0``, the problem is

    minimize    ||x - deltas||           (l2 or l1 norm)
    subject to  x >= 0,  sum(x) = y.

Both norms admit closed-form answers.  The l2 minimizer is unique and has
water-filling form ``x_i = max(deltas_i - lam, 0)`` for a scalar threshold
``lam``.  The l1 problem has a whole polytope of minimizers, represented
here by :class:`L1SolutionFamily`.

The l2 solver doubles as a Euclidean projection onto the simplex of size
``y``; :func:`simplex_mle` exposes the unit-simplex case directly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

#: Absolute tolerance for feasibility checks (nonnegativity, stationarity).
FEAS_TOL = 1e-9


def sum_tolerance(budget: float) -> float:
    """Tolerance for budget-conservation checks, relative for large budgets."""
    return 1e-9 * max(1.0, abs(budget))


class Norm(enum.Enum):
    L1 = "l1"
    L2 = "l2"


class L1Case(enum.Enum):
    SURPLUS = "surplus"
    DEFICIT = "deficit"


def _as_norm(norm: Union[Norm, str]) -> Norm:
    if isinstance(norm, Norm):
        return norm
    return Norm(str(norm).lower())


def _check_budget(budget: float) -> float:
    budget = float(budget)
    if not math.isfinite(budget) or budget <= 0.0:
        raise ValueError("budget must be a positive finite number")
    return budget


def _plan_error(plan: np.ndarray, budget: float) -> Optional[str]:
    """The buy-only plan rule: every entry finite, none below -FEAS_TOL, and
    the sum within sum_tolerance(budget).  Returns why ``plan`` breaks it,
    or None.  A NaN or infinite entry makes the sum non-finite.
    """
    total = float(plan.sum())
    if not math.isfinite(total):
        return "an entry or the sum is not finite"
    if plan.size and plan.min() < -FEAS_TOL:
        return "an entry is negative"
    if abs(total - budget) > sum_tolerance(budget):
        return f"the entries sum to {total!r}, not to the budget {budget!r}"
    return None


def _check_plan(plan: np.ndarray, budget: float) -> None:
    reason = _plan_error(plan, budget)
    if reason is not None:
        raise ValueError(f"infeasible plan: {reason}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ContributionProblem:
    """A validated problem instance.

    Parameters
    ----------
    deltas:
        Per-asset shortfalls.  Any finite values, any order, length >= 1.
        Copied to an immutable float64 array.
    budget:
        Cash to allocate.  Must be finite and strictly positive.
    """

    deltas: np.ndarray
    budget: float

    def __post_init__(self):
        arr = np.array(self.deltas, dtype=np.float64, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("deltas must be non-empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("deltas must be finite")
        object.__setattr__(self, "deltas", _frozen(arr))
        object.__setattr__(self, "budget", _check_budget(self.budget))

    @property
    def n(self) -> int:
        return self.deltas.size

    def positive_parts(self) -> np.ndarray:
        """Elementwise max(deltas, 0)."""
        return np.maximum(self.deltas, 0.0)


@dataclass(frozen=True)
class ObjectiveValue:
    norm: Norm
    value: float


@dataclass(frozen=True)
class L2Solution:
    """Unique l2 minimizer plus its certificate.

    ``adjustments`` is in the original input order.  ``active_count`` is
    the number of assets that receive money, ``threshold`` the water level
    ``lam``: every funded asset ends exactly ``lam`` short of its ideal.
    """

    adjustments: np.ndarray
    threshold: float
    active_count: int

    def __post_init__(self):
        object.__setattr__(self, "adjustments", _frozen(np.asarray(self.adjustments, dtype=np.float64)))


@dataclass(frozen=True)
class L1SolutionFamily:
    """Generators of the (generally non-unique) l1 solution set.

    Exactly one of the two shapes occurs:

    * ``SURPLUS`` (budget > sum of positive parts): every solution is
      ``positive_parts + eps`` with ``eps >= 0`` summing to ``slack``.
      ``scale`` is None.
    * ``DEFICIT`` (budget <= sum of positive parts): every solution is an
      elementwise rescaling ``alpha_i * positive_parts_i`` with
      ``alpha_i in [0, 1]`` and total equal to the budget.  ``scale`` holds
      the uniform alpha of the particular solution; ``slack`` is 0.

    ``particular`` is one concrete member: uniform slack split in the
    surplus case, uniform scaling in the deficit case.
    """

    case: L1Case
    particular: np.ndarray
    positive_parts: np.ndarray
    slack: float
    scale: Optional[float]

    def __post_init__(self):
        object.__setattr__(self, "particular", _frozen(np.asarray(self.particular, dtype=np.float64)))
        object.__setattr__(self, "positive_parts", _frozen(np.asarray(self.positive_parts, dtype=np.float64)))


def solve_l2(problem: ContributionProblem) -> L2Solution:
    """Solve the l2 problem in closed form.

    Sorts the deltas descending and works in shifted coordinates
    ``e_i = max(deltas) - d_i``.  Every term the scan sums is then a gap
    between two deltas rather than a delta, so large, nearly equal deltas
    do not cancel away a small budget.  With ``E_k`` the sum of the k
    smallest gaps,

        k*  = max{k : k e_k - E_k < budget}     (strict inequality)
        t   = (E_{k*} + budget) / k*
        a_i = max(t - e_i, 0)                   (in original order)
        lam = max(deltas) - t

    which is the water-filling rule ``a_i = max(d_i - lam, 0)`` with
    k* = max{k : sum_{i<=k}(d_i - d_k) < budget}.

    O(n log n) time, dominated by the sort.  Raises ValueError rather
    than return a plan that breaks the buy-only plan rule.
    """
    ascending = np.sort(problem.deltas)
    d_max = ascending[-1]
    gaps = d_max - ascending[::-1]
    gap_sums = np.cumsum(gaps)
    lhs = np.arange(1, problem.n + 1, dtype=np.float64)
    lhs *= gaps
    lhs -= gap_sums
    # lhs is non-decreasing in exact arithmetic; take the last qualifying
    # index rather than counting, in case rounding breaks that order
    k_star = int(np.flatnonzero(lhs < problem.budget)[-1]) + 1
    t = (float(gap_sums[k_star - 1]) + problem.budget) / k_star
    adjustments = np.maximum(t - (d_max - problem.deltas), 0.0)
    _check_plan(adjustments, problem.budget)
    return L2Solution(
        adjustments=adjustments,
        threshold=float(d_max) - t,
        active_count=k_star,
    )


def solve_l1(problem: ContributionProblem) -> L1SolutionFamily:
    """Characterize the full l1 solution set.

    The case split compares the budget against the total positive
    shortfall exactly; a budget equal to the total is a deficit.  Raises
    ValueError rather than return a particular member that breaks the
    buy-only plan rule.
    """
    pos = problem.positive_parts()
    total_pos = float(np.sum(pos))
    if problem.budget > total_pos:
        case, slack, scale = L1Case.SURPLUS, problem.budget - total_pos, None
        particular = pos + slack / problem.n
    else:
        case, slack, scale = L1Case.DEFICIT, 0.0, problem.budget / total_pos
        particular = scale * pos
    _check_plan(particular, problem.budget)
    return L1SolutionFamily(
        case=case, particular=particular, positive_parts=pos, slack=slack, scale=scale
    )


def is_l1_optimal(problem: ContributionProblem, candidate) -> bool:
    """Membership test for the l1 solution set.

    Checks the buy-only plan rule (finite, nonnegative within FEAS_TOL,
    budget within sum_tolerance) plus the case-specific shape: in the
    surplus case the candidate must cover every positive part; in the
    deficit case it must not exceed any positive part (which also forces
    zeros wherever deltas <= 0).
    """
    cand = _check_length(problem, candidate)
    if _plan_error(cand, problem.budget) is not None:
        return False
    pos = problem.positive_parts()
    if problem.budget > float(np.sum(pos)):
        return bool(np.all(cand >= pos - FEAS_TOL))
    return bool(np.all(cand <= pos + FEAS_TOL))


def kkt_check_l2(problem: ContributionProblem, candidate, threshold: float) -> bool:
    """First-order optimality check for the l2 problem.

    A candidate that satisfies the buy-only plan rule is optimal iff, with
    a finite lam = threshold, every strictly positive entry sits at
    ``deltas_i - lam`` and every zero entry has ``deltas_i <= lam`` (dual
    feasibility).  Both are tested within max(FEAS_TOL, 4 ulp of the larger
    of max|deltas_i| and |lam|): float64 cannot place lam closer than that
    once the deltas pass 2^21.
    """
    cand = _check_length(problem, candidate)
    threshold = float(threshold)
    if _plan_error(cand, problem.budget) is not None or not math.isfinite(threshold):
        return False
    scale = max(float(np.max(np.abs(problem.deltas))), abs(threshold))
    tol = max(FEAS_TOL, 4.0 * float(np.spacing(scale)))
    positive = cand > FEAS_TOL
    if np.any(np.abs(cand[positive] - (problem.deltas[positive] - threshold)) > tol):
        return False
    return bool(np.all(problem.deltas[~positive] <= threshold + tol))


def l2_objective(problem: ContributionProblem, candidate) -> ObjectiveValue:
    """Squared Euclidean distance of a candidate from the shortfalls."""
    cand = _check_length(problem, candidate)
    diff = cand - problem.deltas
    return ObjectiveValue(Norm.L2, float(np.dot(diff, diff)))


def l1_objective(problem: ContributionProblem, candidate) -> ObjectiveValue:
    cand = _check_length(problem, candidate)
    return ObjectiveValue(Norm.L1, float(np.sum(np.abs(cand - problem.deltas))))


def l1_optimal_value(problem: ContributionProblem) -> ObjectiveValue:
    """Optimal l1 objective without materializing a solution.

    budget - sum(deltas) in the surplus case, sum|deltas| - budget in the
    deficit case; clamped at zero in case float cancellation dips below.
    """
    pos_total = float(np.sum(problem.positive_parts()))
    if problem.budget > pos_total:
        value = problem.budget - float(np.sum(problem.deltas))
    else:
        value = float(np.sum(np.abs(problem.deltas))) - problem.budget
    return ObjectiveValue(Norm.L1, max(value, 0.0))


def _check_length(problem: ContributionProblem, candidate) -> np.ndarray:
    cand = np.asarray(candidate, dtype=np.float64).reshape(-1)
    if cand.size != problem.n:
        raise ValueError("candidate length does not match problem size")
    return cand


def simplex_mle(observations) -> np.ndarray:
    """Euclidean projection of a finite observation vector onto the unit
    simplex: the same threshold rule with budget 1.

    A vector already on the simplex is its own projection.
    """
    problem = ContributionProblem(observations, 1.0)
    return solve_l2(problem).adjustments


def sample_l1_member(family: L1SolutionFamily, rng=None) -> np.ndarray:
    """Draw one member of the l1 solution set.

    ``rng`` is anything ``np.random.default_rng`` accepts (None, an int
    seed, or a Generator, which is advanced in place).  Surplus members
    spread the slack with Dirichlet weights on top of the positive parts.
    Deficit members mix the uniform-scaling particular solution with
    random greedy fills (vertices of the solution polytope); any convex
    combination of members is a member.
    """
    rng = np.random.default_rng(rng)
    n = family.particular.size
    if family.case is L1Case.SURPLUS:
        eps = family.slack * rng.dirichlet(np.ones(n))
        return family.positive_parts + eps
    budget = float(np.sum(family.particular))
    members = [family.particular]
    for _ in range(3):
        members.append(_greedy_fill(family.positive_parts, budget, rng))
    weights = rng.dirichlet(np.ones(len(members)))
    out = np.zeros(n)
    for w, member in zip(weights, members):
        out += w * member
    return out


def _greedy_fill(capacities: np.ndarray, budget: float, rng) -> np.ndarray:
    """Fill assets to capacity in random order until the budget runs out."""
    out = np.zeros_like(capacities)
    remaining = budget
    for i in rng.permutation(capacities.size):
        if remaining <= 0.0:
            break
        take = min(float(capacities[i]), remaining)
        out[i] = take
        remaining -= take
    return out
