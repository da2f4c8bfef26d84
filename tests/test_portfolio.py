"""Domain layer: portfolio validation, naive adjustments, plans, rounding."""

import numpy as np
import pytest

import nosell as ns

from helpers import MASTER_SEED, random_portfolio

GOLDEN_ASSETS = (
    ns.Asset("growth", 1850.0, 0.25),
    ns.Asset("income", 2100.0, 0.25),
    ns.Asset("intl", 2500.0, 0.25),
    ns.Asset("bonds", 1675.0, 0.125),
    ns.Asset("cash", 1875.0, 0.125),
)


@pytest.fixture
def golden_portfolio():
    # values and targets exactly representable in binary, so the naive
    # adjustments are exactly (900, 650, 250, -300, -500) at budget 1000
    return ns.Portfolio(GOLDEN_ASSETS)


# -- validation --------------------------------------------------------------

def test_asset_rejects_bad_fields():
    with pytest.raises(ValueError, match="id"):
        ns.Asset("", 1.0, 0.5)
    with pytest.raises(ValueError, match="finite"):
        ns.Asset("a", np.inf, 0.5)
    with pytest.raises(ValueError, match="target"):
        ns.Asset("a", 1.0, -0.1)
    with pytest.raises(ValueError, match="target"):
        ns.Asset("a", 1.0, 1.5)
    with pytest.raises(ValueError, match="target"):
        ns.Asset("a", 1.0, np.nan)


def test_portfolio_rejects_duplicates_and_empty():
    with pytest.raises(ValueError, match="at least one"):
        ns.Portfolio(())
    dup = (ns.Asset("a", 1.0, 0.5), ns.Asset("a", 2.0, 0.5))
    with pytest.raises(ValueError, match="duplicate"):
        ns.Portfolio(dup)


def test_portfolio_target_sum_tolerance():
    off = (ns.Asset("a", 1.0, 0.5), ns.Asset("b", 1.0, 0.47))
    with pytest.raises(ValueError, match="0.97"):
        ns.Portfolio(off)
    nearly = (ns.Asset("a", 1.0, 0.5), ns.Asset("b", 1.0, 0.5 + 5e-7))
    ns.Portfolio(nearly)  # within 1e-6


def test_portfolio_short_positions():
    short = (ns.Asset("a", -100.0, 0.5), ns.Asset("b", 300.0, 0.5))
    with pytest.raises(ValueError, match="allow_short"):
        ns.Portfolio(short)
    portfolio = ns.Portfolio(short, allow_short=True)
    assert portfolio.total == 200.0
    plan = ns.rebalance(portfolio, 100.0)
    assert np.all(plan.adjustments >= 0)


def test_rebalance_rejects_nonpositive_wealth():
    # total + budget == 0 leaves no ideal holdings to divide by
    short = ns.Portfolio((ns.Asset("a", -100.0, 0.5), ns.Asset("b", 0.0, 0.5)), allow_short=True)
    for budget in (100.0, 50.0):
        with pytest.raises(ValueError, match="total plus budget"):
            ns.rebalance(short, budget)


def test_portfolio_new_asset_zero_value():
    assets = (ns.Asset("old", 1000.0, 0.5), ns.Asset("new", 0.0, 0.5))
    plan = ns.rebalance(ns.Portfolio(assets), 500.0)
    # the new asset is 750 short, the old one 250 under target
    np.testing.assert_allclose(plan.naive, [-250.0, 750.0], atol=1e-9)
    np.testing.assert_allclose(plan.adjustments, [0.0, 500.0], atol=1e-9)


# -- naive adjustments -------------------------------------------------------

def test_naive_at_target_portfolio():
    assets = (
        ns.Asset("a", 5000.0, 0.5),
        ns.Asset("b", 3000.0, 0.3),
        ns.Asset("c", 2000.0, 0.2),
    )
    naive = ns.naive_adjustments(ns.Portfolio(assets), 1000.0)
    np.testing.assert_allclose(naive, [500.0, 300.0, 200.0], atol=1e-9)


def test_naive_two_asset():
    assets = (ns.Asset("a", 4000.0, 0.5), ns.Asset("b", 6000.0, 0.5))
    naive = ns.naive_adjustments(ns.Portfolio(assets), 2000.0)
    assert naive.tolist() == [2000.0, 0.0]


def test_naive_single_asset():
    naive = ns.naive_adjustments(ns.Portfolio((ns.Asset("a", 10000.0, 1.0),)), 7.0)
    assert naive.tolist() == [7.0]


def test_naive_budget_guard(golden_portfolio):
    for bad in (0.0, -5.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="budget"):
            ns.naive_adjustments(golden_portfolio, bad)


def test_naive_sums_to_budget_randomized():
    rng = np.random.default_rng(MASTER_SEED + 30)
    for trial in range(300):
        portfolio = random_portfolio(rng)
        budget = float(rng.uniform(0.01, 5000.0))
        naive = ns.naive_adjustments(portfolio, budget)
        assert abs(float(np.sum(naive)) - budget) <= ns.sum_tolerance(budget), (
            f"seed={MASTER_SEED + 30} trial={trial}"
        )


# -- rebalance ---------------------------------------------------------------

def test_rebalance_at_target_is_fixed_point():
    assets = (
        ns.Asset("a", 5000.0, 0.5),
        ns.Asset("b", 3000.0, 0.3),
        ns.Asset("c", 2000.0, 0.2),
    )
    plan = ns.rebalance(ns.Portfolio(assets), 1000.0, ns.Norm.L2)
    np.testing.assert_allclose(plan.adjustments, [500.0, 300.0, 200.0], atol=1e-9)
    np.testing.assert_allclose(plan.final_allocations, [0.5, 0.3, 0.2], atol=1e-12)


def test_rebalance_concentrated_shortfall():
    assets = (ns.Asset("a", 4000.0, 0.5), ns.Asset("b", 6000.0, 0.5))
    plan = ns.rebalance(ns.Portfolio(assets), 2000.0)
    np.testing.assert_allclose(plan.adjustments, [2000.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(plan.final_allocations, [0.5, 0.5], atol=1e-12)


def test_rebalance_l1_worked_scenario_to_the_cent(golden_portfolio):
    plan = ns.rebalance(golden_portfolio, 1000.0, "l1")
    assert plan.rounded_cents.tolist() == [50000, 36111, 13889, 0, 0]
    assert plan.norm is ns.Norm.L1
    assert isinstance(plan.solution, ns.L1SolutionFamily)


def test_rebalance_l2_golden(golden_portfolio):
    plan = ns.rebalance(golden_portfolio, 1000.0)
    assert plan.naive.tolist() == [900.0, 650.0, 250.0, -300.0, -500.0]
    np.testing.assert_allclose(plan.adjustments, [625.0, 375.0, 0.0, 0.0, 0.0], atol=1e-9)
    assert plan.rounded_cents.tolist() == [62500, 37500, 0, 0, 0]
    assert plan.solution.active_count == 2
    assert plan.solution.threshold == 275.0


def test_rebalance_norm_accepts_strings(golden_portfolio):
    assert ns.rebalance(golden_portfolio, 10.0, "l2").norm is ns.Norm.L2
    assert ns.rebalance(golden_portfolio, 10.0, "L1").norm is ns.Norm.L1
    with pytest.raises(ValueError):
        ns.rebalance(golden_portfolio, 10.0, "l3")


def test_rebalance_plan_invariants_randomized():
    rng = np.random.default_rng(MASTER_SEED + 31)
    for trial in range(200):
        portfolio = random_portfolio(rng)
        budget = float(rng.uniform(0.01, 5000.0))
        norm = ns.Norm.L1 if rng.random() < 0.5 else ns.Norm.L2
        plan = ns.rebalance(portfolio, budget, norm)
        msg = f"seed={MASTER_SEED + 31} trial={trial} norm={norm}"
        assert np.all(plan.adjustments >= 0.0), msg
        assert abs(float(np.sum(plan.adjustments)) - budget) <= ns.sum_tolerance(budget), msg
        assert abs(float(np.sum(plan.final_allocations)) - 1.0) <= ns.sum_tolerance(budget), msg
        assert int(plan.rounded_cents.sum()) == round(budget * 100.0), msg


def test_rebalance_l2_optimal_in_allocation_space():
    # minimizing over final allocations is the same problem scaled by
    # (x + y)^2, so the plan must match the oracle on the naive deltas
    rng = np.random.default_rng(MASTER_SEED + 32)
    for trial in range(60):
        portfolio = random_portfolio(rng, max_n=6)
        budget = float(rng.uniform(10.0, 3000.0))
        plan = ns.rebalance(portfolio, budget)
        problem = ns.ContributionProblem(plan.naive, budget)
        report = ns.active_set_l2_oracle(problem)
        scale = max(1.0, float(np.max(np.abs(plan.naive))))
        np.testing.assert_allclose(
            plan.adjustments,
            report.best_candidate,
            atol=1e-9 * scale,
            err_msg=f"seed={MASTER_SEED + 32} trial={trial}",
        )


# -- rounding ----------------------------------------------------------------

def test_round_to_cents_thirds():
    cents = ns.round_to_cents(np.full(3, 1000.0 / 3.0), 1000.0)
    assert cents.tolist() == [33334, 33333, 33333]


def test_round_to_cents_deficit_split():
    cents = ns.round_to_cents(
        np.array([500.0, 3250.0 / 9.0, 1250.0 / 9.0, 0.0, 0.0]), 1000.0
    )
    assert cents.tolist() == [50000, 36111, 13889, 0, 0]


def test_round_to_cents_single():
    assert ns.round_to_cents(np.array([1000.0]), 1000.0).tolist() == [100000]


def test_round_to_cents_precondition():
    cases = [([1.0, 2.0], 4.0, "sum"), ([-0.5, 1.5], 1.0, "negative"), ([np.nan, 1.0], 1.0, "finite")]
    for adjustments, budget, reason in cases:
        with pytest.raises(ValueError, match=reason):
            ns.round_to_cents(np.array(adjustments), budget)


def test_round_to_cents_randomized():
    rng = np.random.default_rng(MASTER_SEED + 33)
    for trial in range(300):
        n = int(rng.integers(1, 12))
        parts = rng.dirichlet(np.ones(n))
        budget = float(np.round(rng.uniform(1.0, 10000.0), 2))
        adjustments = parts * budget
        adjustments[-1] = budget - float(np.sum(adjustments[:-1]))
        if adjustments[-1] < 0:
            continue
        cents = ns.round_to_cents(adjustments, budget)
        msg = f"seed={MASTER_SEED + 33} trial={trial}"
        assert int(cents.sum()) == round(budget * 100.0), msg
        assert np.all(np.abs(cents - adjustments * 100.0) < 1.0), msg
        # zero entries never receive a cent
        assert np.all(cents[adjustments == 0.0] == 0), msg
