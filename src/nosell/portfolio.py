"""Portfolio domain layer: assets, target weights, and rebalance plans.

Wraps the abstract solvers with the bookkeeping an investor actually
needs: computing shortfalls from market values and target weights,
picking a norm, and rounding the resulting adjustments to whole cents
without losing a cent of the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple, Union

import numpy as np

from .solvers import (
    ContributionProblem,
    L1SolutionFamily,
    L2Solution,
    Norm,
    _as_norm,
    _check_budget,
    _check_plan,
    _frozen,
    solve_l1,
    solve_l2,
)

#: Target weights must sum to 1 within this tolerance.
TARGET_SUM_TOL = 1e-6


@dataclass(frozen=True)
class Asset:
    """One holding: an identifier, its market value, and its target weight."""

    id: str
    value: float
    target: float

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("asset id must be a non-empty string")
        value = float(self.value)
        if not math.isfinite(value):
            raise ValueError(f"asset {self.id!r}: value must be finite")
        target = float(self.target)
        if not math.isfinite(target) or not 0.0 <= target <= 1.0:
            raise ValueError(f"asset {self.id!r}: target must lie in [0, 1]")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "target", target)


@dataclass(frozen=True)
class Portfolio:
    """A non-empty collection of assets with unique ids.

    Target weights must sum to 1 within TARGET_SUM_TOL.  Values must be
    nonnegative unless ``allow_short`` is set.
    """

    assets: Tuple[Asset, ...]
    allow_short: bool = False

    def __post_init__(self):
        assets = tuple(self.assets)
        if not assets:
            raise ValueError("portfolio must contain at least one asset")
        seen = set()
        for asset in assets:
            if asset.id in seen:
                raise ValueError(f"duplicate asset id {asset.id!r}")
            seen.add(asset.id)
        total_target = math.fsum(a.target for a in assets)
        if abs(total_target - 1.0) > TARGET_SUM_TOL:
            raise ValueError(
                f"target weights sum to {total_target:.10g}, expected 1"
            )
        if not self.allow_short:
            for asset in assets:
                if asset.value < 0.0:
                    raise ValueError(
                        f"asset {asset.id!r} has negative value "
                        f"{asset.value:.10g}; pass allow_short to permit this"
                    )
        object.__setattr__(self, "assets", assets)

    @property
    def n(self) -> int:
        return len(self.assets)

    @property
    def ids(self) -> Tuple[str, ...]:
        return tuple(a.id for a in self.assets)

    # Built on first access and kept, read-only: the instance is frozen.
    @cached_property
    def values(self) -> np.ndarray:
        return _frozen(np.array([a.value for a in self.assets], dtype=np.float64))

    @cached_property
    def targets(self) -> np.ndarray:
        return _frozen(np.array([a.target for a in self.assets], dtype=np.float64))

    @cached_property
    def total(self) -> float:
        return float(np.sum(self.values))


@dataclass(frozen=True)
class RebalancePlan:
    """Everything the rebalance computed, in portfolio asset order."""

    norm: Norm
    budget: float
    naive: np.ndarray
    adjustments: np.ndarray
    final_allocations: np.ndarray
    rounded_cents: np.ndarray
    solution: Union[L2Solution, L1SolutionFamily]


def naive_adjustments(portfolio: Portfolio, budget: float) -> np.ndarray:
    """Signed shortfalls against the post-contribution ideal.

    delta_i = target_i * (total + budget) - value_i.  Negative entries
    mark assets already above their ideal share; the vector always sums
    to the budget (up to float rounding) because targets sum to 1.
    Raises ValueError unless total + budget (the wealth to split) is positive.
    """
    budget = _check_budget(budget)
    wealth = portfolio.total + budget
    if not wealth > 0.0:
        raise ValueError(f"portfolio total plus budget must be positive, got {wealth!r}")
    return portfolio.targets * wealth - portfolio.values


def rebalance(portfolio: Portfolio, budget: float, norm: Union[Norm, str] = Norm.L2) -> RebalancePlan:
    """Compute a buy-only rebalance plan for a cash contribution.

    ``norm`` selects the distance measure: l2 (default) gives the unique
    water-filling allocation; l1 gives the particular member of the
    solution family (the full family travels along in ``solution``).
    """
    norm = _as_norm(norm)
    naive = naive_adjustments(portfolio, budget)
    problem = ContributionProblem(naive, budget)
    budget = problem.budget
    if norm is Norm.L2:
        solution: Union[L2Solution, L1SolutionFamily] = solve_l2(problem)
        adjustments = solution.adjustments
    else:
        solution = solve_l1(problem)
        adjustments = solution.particular
    final = (portfolio.values + adjustments) / (portfolio.total + budget)
    return RebalancePlan(
        norm=norm,
        budget=budget,
        naive=naive,
        adjustments=adjustments,
        final_allocations=final,
        rounded_cents=round_to_cents(adjustments, budget),
        solution=solution,
    )


def round_to_cents(adjustments, budget: float) -> np.ndarray:
    """Round dollar adjustments to integer cents, preserving the total.

    Largest-remainder method: floor every entry to cents, then hand the
    leftover cents (total budget in cents minus the floored sum) to the
    entries with the largest fractional remainders, ties broken by index.
    Requires the adjustments to satisfy the buy-only plan rule: finite,
    nonnegative within FEAS_TOL, and summing to the budget within
    sum_tolerance.
    """
    adj = np.asarray(adjustments, dtype=np.float64).reshape(-1)
    budget = _check_budget(budget)
    _check_plan(adj, budget)
    cents = adj * 100.0
    floors = np.floor(cents).astype(np.int64)
    remainders = cents - floors
    target_cents = round(budget * 100.0)
    leftover = int(target_cents - floors.sum())
    if leftover < 0 or leftover > adj.size:
        raise ValueError("rounding leftover out of range; inputs inconsistent")
    if leftover:
        order = np.lexsort((np.arange(adj.size), -remainders))
        floors[order[:leftover]] += 1
    return floors
