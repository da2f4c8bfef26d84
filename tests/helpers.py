"""Shared test helpers: seeded random instances with reproducible failure
messages.  Every random assertion should carry describe(...) so a failure
prints the seed and the exact instance."""

import math

import numpy as np

from nosell import Asset, ContributionProblem, Portfolio, solve_l2
from nosell.solvers import _total

MASTER_SEED = 20260819

#: The tolerances of the split and monotone properties of the l2 plan, in
#: ulps of the largest |value| or budget: the worst measured were 3 and 1.4
#: ulps at up to 12 assets, 5.1 and 0.5 at up to 400, 2.1 and 0 at 2**19 + 1.
SPLIT_ULPS = 8
MONOTONE_ULPS = 4


def random_problem(rng, max_n: int = 8) -> ContributionProblem:
    """n in 1..max_n, deltas uniform in [-10, 10], budget in (0, 20]."""
    n = int(rng.integers(1, max_n + 1))
    deltas = rng.uniform(-10.0, 10.0, n)
    budget = float(20.0 * (1.0 - rng.random()))
    return ContributionProblem(deltas, budget)


def instance_stream(count: int, seed: int = MASTER_SEED, max_n: int = 8):
    rng = np.random.default_rng(seed)
    for i in range(count):
        yield i, random_problem(rng, max_n)


def describe(i: int, problem: ContributionProblem, seed: int = MASTER_SEED) -> str:
    return (
        f"seed={seed} instance={i} n={problem.n} "
        f"budget={problem.budget!r} deltas={problem.deltas.tolist()!r}"
    )


def random_portfolio(rng, max_n: int = 6) -> Portfolio:
    n = int(rng.integers(1, max_n + 1))
    values = np.round(rng.uniform(0.0, 10000.0, n), 2)
    targets = rng.dirichlet(np.ones(n))
    assets = tuple(
        Asset(id=f"a{i}", value=float(values[i]), target=float(targets[i]))
        for i in range(n)
    )
    return Portfolio(assets=assets)


def assets_of(portfolio: Portfolio):
    """The portfolio's rows as Asset objects."""
    return tuple(map(Asset, portfolio.ids, portfolio.values.tolist(), portfolio.targets.tolist()))


def l2_adjustments(values: np.ndarray, targets: np.ndarray, budget: float) -> np.ndarray:
    """rebalance's l2 adjustments without its cents, on holdings that may
    be short: the l2 plan of the naive vector as naive_adjustments computes
    it, without a Portfolio's checks, which cost far more at 2**19 assets."""
    naive = targets * (_total(values) + budget) - values
    return solve_l2(ContributionProblem(naive, budget)).adjustments


def assert_split(values, targets, first: float, second: float):
    """Rebalancing ``first``, then ``second`` on the first step's final
    values, gives the one-step l2 plan for ``first + second``, to
    SPLIT_ULPS ulps.  Returns the first step's plan and the one-step plan."""
    step = l2_adjustments(values, targets, first)
    both = step + l2_adjustments(values + step, targets, second)
    whole = l2_adjustments(values, targets, first + second)
    unit = math.ulp(max(float(np.abs(values).max()), first + second))
    assert float(np.abs(both - whole).max()) <= SPLIT_ULPS * unit
    return step, whole


def assert_monotone(values, low: np.ndarray, high: np.ndarray, budget: float) -> None:
    """No entry of the l2 plan ``high``, for ``budget``, lies below the one
    of ``low``, for a smaller budget, by more than MONOTONE_ULPS ulps."""
    unit = math.ulp(max(float(np.abs(values).max()), budget))
    assert float((low - high).max()) <= MONOTONE_ULPS * unit
