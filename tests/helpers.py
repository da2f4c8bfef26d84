"""Shared test helpers: seeded random instances with reproducible failure
messages.  Every random assertion should carry describe(...) so a failure
prints the seed and the exact instance."""

import numpy as np

from nosell import Asset, ContributionProblem, Portfolio

MASTER_SEED = 20260819


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
