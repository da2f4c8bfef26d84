"""Portfolio domain layer: assets, target weights, and rebalance plans.

Wraps the abstract solvers with the bookkeeping an investor actually
needs: computing shortfalls from market values and target weights,
picking a norm, and rounding the resulting adjustments to whole cents
without losing a cent of the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

import numpy as np

from .solvers import (
    ContributionProblem,
    L1SolutionFamily,
    L2Solution,
    Norm,
    _as_norm,
    _check_budget,
    _frozen,
    _plan_error,
    _refuse,
    _to_float,
    _to_floats,
    _total,
    solve_l1,
    solve_l2,
)

#: Target weights must sum to 1 within this tolerance.
TARGET_SUM_TOL = 1e-6

#: The most cents a budget may hold: float64 holds every integer up to 2**53.
_MAX_CENTS = 2.0**53


class _RowError(ValueError):
    """A rule broken by one asset; ``row`` is its index in the portfolio."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _asset_error(asset_id: str, value: float, target: float) -> Optional[str]:
    """Why one asset breaks a rule on its own fields, or None."""
    if not isinstance(asset_id, str) or not asset_id:
        return "asset id must be a non-empty string"
    if not math.isfinite(value):
        return f"asset {asset_id!r}: value must be finite"
    if not 0.0 <= target <= 1.0:
        return f"asset {asset_id!r}: target must lie in [0, 1]"
    return None


@dataclass(frozen=True)
class Asset:
    """One holding: an identifier, its market value, and its target weight."""

    id: str
    value: float
    target: float

    def __post_init__(self):
        value, target = _to_float(self.value), _to_float(self.target)
        error = _asset_error(self.id, value, target)
        if error is not None:
            raise ValueError(error)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "target", target)


@dataclass(frozen=True, init=False, eq=False)
class Portfolio:
    """A non-empty portfolio held as three columns: ids, values, targets.

    Ids must be non-empty and unique, values finite with a finite
    ``total``, and targets in [0, 1] with a sum within TARGET_SUM_TOL of
    1.  Values must be nonnegative unless ``allow_short`` is set.  A rule
    broken by one asset raises a ValueError that names it and carries its
    index as ``row``.  ``values`` and ``targets`` are read-only float64
    arrays.
    """

    ids: Tuple[str, ...]
    values: np.ndarray
    targets: np.ndarray
    allow_short: bool
    total: float

    def __init__(self, assets: Iterable[Asset], allow_short: bool = False):
        assets = tuple(assets)
        values = np.array([asset.value for asset in assets], dtype=np.float64)
        targets = np.array([asset.target for asset in assets], dtype=np.float64)
        self._hold(tuple(asset.id for asset in assets), values, targets, allow_short)

    @classmethod
    def _from_columns(cls, ids: Tuple[str, ...], values: np.ndarray, targets: np.ndarray, allow_short: bool) -> Portfolio:
        """A portfolio on float64 arrays that the caller hands over: they
        are frozen in place, not copied."""
        portfolio = cls.__new__(cls)
        portfolio._hold(ids, values, targets, allow_short)
        return portfolio

    def _hold(self, ids, values, targets, allow_short) -> None:
        """Check every rule once, over whole columns, then keep the columns."""
        if not ids:
            raise ValueError("portfolio must contain at least one asset")
        if "" in ids or not np.isfinite(values).all() or not ((targets >= 0.0) & (targets <= 1.0)).all():
            # name the first asset that breaks a rule of its own
            errors = map(_asset_error, ids, values.tolist(), targets.tolist())
            raise _RowError(*next((row, error) for row, error in enumerate(errors) if error))
        if len(set(ids)) < len(ids):
            seen: set = set()
            row = next(i for i, asset_id in enumerate(ids) if asset_id in seen or seen.add(asset_id))
            raise _RowError(row, f"duplicate asset id {ids[row]!r}")
        # the targets lie in [0, 1], so sum|t| = sum(t), and numpy's sum s
        # of n of them errs by at most (n - 1)u sum(t) / (1 - (n - 1)u), u =
        # 2**-53 (Higham 2002, §4.2), and fsum's rounded sum by u sum(t):
        # together below n * 2**-52 * s.  So s decides the check unless it
        # lies that close to the edge, or the check fails and its message
        # needs fsum's value
        total_target = float(np.add.reduce(targets))
        if abs(total_target - 1.0) - TARGET_SUM_TOL > -targets.size * 2.0**-52 * total_target:
            total_target = math.fsum(targets.tolist())
            if abs(total_target - 1.0) > TARGET_SUM_TOL:
                raise ValueError(f"target weights sum to {total_target:.10g}, expected 1")
        if not allow_short and values.min() < 0.0:
            row = int((values < 0.0).argmax())
            raise _RowError(row, f"asset {ids[row]!r} has negative value {values[row]:.10g}; pass allow_short to permit this")
        total = _total(values)
        if not math.isfinite(total):
            # numpy's partial sums passed the float64 maximum; the exact total may not
            # fractions (with decimal and numbers) is imported here alone:
            # it would cost every start-up about 4 ms
            from fractions import Fraction

            try:
                total = float(sum(map(Fraction, values.tolist())))
            except OverflowError:
                raise ValueError("the asset values are each finite, but their total passes the float64 maximum") from None
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "targets", _frozen(targets))
        object.__setattr__(self, "allow_short", allow_short)
        object.__setattr__(self, "total", total)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.ids == other.ids
            and self.allow_short == other.allow_short
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.targets, other.targets)
        )

    def __hash__(self):
        return hash((self.ids, self.allow_short))

    @property
    def n(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, eq=False)
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
    Raises ValueError unless total + budget (the wealth to split) is
    positive and finite, or if an entry passes the float64 maximum, which
    only a short position can make happen: long-only entries lie in
    [-total, wealth].
    """
    budget = _check_budget(budget)
    wealth = portfolio.total + budget
    if not (wealth > 0.0 and math.isfinite(wealth)):
        raise ValueError(f"portfolio total plus budget must be positive and finite, got {wealth!r}")
    with np.errstate(over="ignore"):
        naive = portfolio.targets * wealth - portfolio.values
    if not np.isfinite(naive).all():
        row = int(np.isinf(naive).argmax())
        raise ValueError(f"asset {portfolio.ids[row]!r}: its naive adjustment passes the float64 maximum")
    return naive


def rebalance(portfolio: Portfolio, budget: float, norm: Union[Norm, str] = Norm.L2) -> RebalancePlan:
    """Compute a buy-only rebalance plan for a cash contribution.

    ``norm`` selects the distance measure: l2 (default) gives the unique
    water-filling allocation; l1 gives the particular member of the
    solution family (the full family travels along in ``solution``).
    Raises ValueError when the final allocations are not finite: a
    total plus budget so small that dividing the holdings by it overflows.
    Each rule is checked once: the budget and the naive vector by
    naive_adjustments, which the problem owns uncopied, the plan rule by
    the solver, and the 2**53-cent limit by the rounding.  Every array of
    the plan is read-only.
    """
    norm = _as_norm(norm)
    naive = naive_adjustments(portfolio, budget)
    budget = _to_float(budget)
    problem = ContributionProblem._own(naive, budget)
    if norm is Norm.L2:
        solution: Union[L2Solution, L1SolutionFamily] = solve_l2(problem)
        adjustments = solution.adjustments
    else:
        solution = solve_l1(problem)
        adjustments = solution.particular
    wealth = portfolio.total + budget
    with np.errstate(over="ignore"):
        final = (portfolio.values + adjustments) / wealth
    if not np.isfinite(final).all():
        raise ValueError(f"the final allocations are non-finite: total plus budget {wealth!r} is too small")
    return RebalancePlan(
        norm=norm,
        budget=budget,
        naive=problem.deltas,
        adjustments=adjustments,
        final_allocations=_frozen(final),
        rounded_cents=_frozen(_cents(adjustments, budget)),
        solution=solution,
    )


def round_to_cents(adjustments, budget: float) -> np.ndarray:
    """Round dollar adjustments to integer cents, preserving the total.

    Largest-remainder method: floor every entry to cents, then hand the
    leftover cents (total budget in cents minus the floored sum) to the
    entries with the largest fractional remainders, ties broken by index.
    Requires the adjustments to satisfy the buy-only plan rule: finite,
    nonnegative within FEAS_TOL (a negative entry rounds as zero), and
    summing to the budget within sum_tolerance.  The budget may hold at
    most 2**53 cents (about $9.0e13), the whole cents float64 holds.
    """
    adj = _to_floats(adjustments)
    budget = _check_budget(budget)
    _refuse(_plan_error(adj, budget))
    return _cents(adj, budget)


def _cents(adj: np.ndarray, budget: float) -> np.ndarray:
    """round_to_cents on a plan that already meets the buy-only plan rule."""
    if budget * 100.0 > _MAX_CENTS:
        raise ValueError(f"budget {budget!r} exceeds 2**53 cents, too large to round to whole cents")
    cents = adj * 100.0
    np.maximum(cents, 0.0, out=cents)
    floors = np.floor(cents).astype(np.int64)
    remainders = cents - floors
    target_cents = round(budget * 100.0)
    leftover = int(target_cents - floors.sum())
    if leftover < 0 or leftover > adj.size:
        raise ValueError("rounding leftover out of range; inputs inconsistent")
    if leftover:
        order = np.argsort(-remainders, kind="stable")
        floors[order[:leftover]] += 1
    return floors
