"""Domain layer: portfolio validation, naive adjustments, plans, rounding."""

import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest

import nosell as ns

from helpers import MASTER_SEED, random_portfolio
from oracles import active_set_l2_oracle

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


_HUGE = 10**400  # a Python int beyond the float64 range


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ns.ContributionProblem([_HUGE, 1.0], 1.0), "deltas must be finite"),
        (lambda: ns.ContributionProblem([1.0], _HUGE), "budget must be a positive finite number"),
        (lambda: ns.rebalance(ns.Portfolio(GOLDEN_ASSETS), _HUGE), "budget must be a positive finite number"),
        (lambda: ns.round_to_cents([1.0], _HUGE), "budget must be a positive finite number"),
        (lambda: ns.round_to_cents([_HUGE], 1.0), "infeasible plan"),
        (lambda: ns.Asset("a", _HUGE, 1.0), "value must be finite"),
    ],
    ids=["deltas", "budget", "rebalance", "round_to_cents", "round_to_cents_plan", "asset_value"],
)
def test_int_beyond_float64_reads_as_non_finite(call, message):
    # float() raises OverflowError on such an int; each entry point gives
    # the message it gives for inf instead
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "check",
    [
        lambda problem: ns.is_l1_optimal(problem, [_HUGE, 0.0]),
        lambda problem: ns.kkt_check_l2(problem, [_HUGE, 0.0], 1.0),
        lambda problem: ns.kkt_check_l2(problem, [0.0, 1.0], _HUGE),
    ],
    ids=["l1_candidate", "l2_candidate", "l2_threshold"],
)
def test_certificates_read_int_beyond_float64_as_inf(check):
    assert check(ns.ContributionProblem([1.0, 2.0], 1.0)) is False
    assert ns.sum_tolerance(_HUGE) == ns.sum_tolerance(math.inf)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ns.ContributionProblem([1.0, 2.0], 1.0),
        lambda: ns.solve_l2(ns.ContributionProblem([1.0, 2.0], 1.0)),
        lambda: ns.solve_l1(ns.ContributionProblem([1.0, 2.0], 1.0)),
        lambda: ns.rebalance(ns.Portfolio(GOLDEN_ASSETS), 1000.0),
    ],
    ids=["problem", "l2_solution", "l1_family", "rebalance_plan"],
)
def test_array_holders_compare_and_hash_by_identity(make):
    # an array field makes a generated == raise for n >= 2
    a, b = make(), make()
    assert (a == b) is False
    assert (a == a) is True
    assert isinstance(hash(a), int)


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


def test_portfolio_rejects_overflowing_total():
    # each value is finite but their total is not: the portfolio says so,
    # with no overflow warning, instead of failing later on its deltas
    seed = MASTER_SEED + 100
    rng = np.random.default_rng(seed)
    for trial in range(5):
        values = rng.uniform(0.9e308, 1.7e308, 2).tolist()
        assets = (ns.Asset("a", values[0], 0.5), ns.Asset("b", values[1], 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="total passes the float64 maximum"):
                ns.Portfolio(assets)
        # a total that fits is kept
        assert ns.Portfolio(assets[:1] + (ns.Asset("b", -values[1], 0.5),), allow_short=True).total == values[0] - values[1], f"seed={seed} trial={trial}"
    # a float64 sum that passes the maximum on the way to a total that fits
    assets = (ns.Asset("a", 1e308, 0.5), ns.Asset("b", 1e308, 0.5), ns.Asset("c", -1e308, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ns.Portfolio(assets, allow_short=True).total == 1e308


def test_portfolio_arrays_built_once(golden_portfolio):
    values, targets = golden_portfolio.values, golden_portfolio.targets
    assert golden_portfolio.values is values and golden_portfolio.targets is targets
    assert values.tolist() == [1850.0, 2100.0, 2500.0, 1675.0, 1875.0]
    assert golden_portfolio.total == 10000.0
    for arr in (values, targets):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the cached arrays are not fields: equality and repr are unchanged
    fresh = ns.Portfolio(GOLDEN_ASSETS)
    assert fresh == golden_portfolio
    assert repr(fresh) == repr(golden_portfolio)


def test_portfolio_equality_compares_every_column(golden_portfolio):
    def variant(i, **fields):
        assets = list(GOLDEN_ASSETS)
        assets[i] = dataclasses.replace(assets[i], **fields)
        return tuple(assets)

    # numbers compare as numbers, as the Asset fields did
    assert ns.Portfolio((ns.Asset("a", -0.0, 1.0),)) == ns.Portfolio((ns.Asset("a", 0.0, 1.0),))
    targets_swapped = variant(2, target=0.125)[:3] + variant(3, target=0.25)[3:]
    for other in (
        ns.Portfolio(variant(0, id="value")),
        ns.Portfolio(variant(1, value=2100.5)),
        ns.Portfolio(targets_swapped),
        ns.Portfolio(GOLDEN_ASSETS, allow_short=True),
    ):
        assert other != golden_portfolio
    assert hash(ns.Portfolio(GOLDEN_ASSETS)) == hash(golden_portfolio)
    # another type is not equal, by way of NotImplemented
    assert (golden_portfolio == "x") is False


def test_rebalance_rejects_nonpositive_wealth():
    # total + budget == 0 leaves no ideal holdings to divide by
    short = ns.Portfolio((ns.Asset("a", -100.0, 0.5), ns.Asset("b", 0.0, 0.5)), allow_short=True)
    for budget in (100.0, 50.0):
        with pytest.raises(ValueError, match="total plus budget"):
            ns.rebalance(short, budget)
    # a total plus budget that passes the float64 maximum is refused too,
    # and so is an entry of a short portfolio that does so with finite wealth
    huge = ns.Portfolio((ns.Asset("a", 1.7e308, 0.5), ns.Asset("b", 0.0, 0.5)))
    spread = ns.Portfolio(
        (ns.Asset("a", -1.7e308, 1.0), ns.Asset("b", 1.7e308, 0.0), ns.Asset("c", 1e308, 0.0)),
        allow_short=True,
    )
    cases = ((huge, 1e308, "total plus budget"),
             (spread, 1.0, "asset 'a': its naive adjustment passes the float64 maximum"))
    for portfolio, budget, match in cases:
        for call in (ns.naive_adjustments, ns.rebalance):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=match):
                    call(portfolio, budget)


def test_rebalance_refuses_non_finite_final_allocations():
    # short and long holdings that cancel exactly, plus a subnormal budget:
    # the wealth is positive but dividing the holdings by it overflows
    rng = np.random.default_rng(MASTER_SEED + 34)
    for trial in range(60):
        held = rng.integers(1, 10**6, int(rng.integers(1, 4))).astype(float)
        values = np.ravel(np.column_stack([held, -held]))
        targets = rng.dirichlet(np.ones(values.size))
        portfolio = ns.Portfolio(
            tuple(ns.Asset(f"a{i}", v, t) for i, (v, t) in enumerate(zip(values, targets))),
            allow_short=True,
        )
        budget = float(rng.integers(1, 2**20)) * 5e-324
        norm = "l1" if trial % 2 else "l2"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                ns.rebalance(portfolio, budget, norm)


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


def _certificate(solution):
    if isinstance(solution, ns.L2Solution):
        return solution.threshold, solution.active_count
    return solution.case, solution.slack, solution.scale, solution.positive_parts.tobytes()


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
        # the same bytes as the public steps, each of which checks its inputs
        naive = ns.naive_adjustments(portfolio, budget)
        problem = ns.ContributionProblem(naive, budget)
        solution = ns.solve_l2(problem) if norm is ns.Norm.L2 else ns.solve_l1(problem)
        adjustments = solution.adjustments if norm is ns.Norm.L2 else solution.particular
        assert plan.naive.tobytes() == naive.tobytes(), msg
        assert plan.adjustments.tobytes() == adjustments.tobytes(), msg
        assert _certificate(plan.solution) == _certificate(solution), msg
        assert plan.rounded_cents.tobytes() == ns.round_to_cents(adjustments, budget).tobytes(), msg
        arrays = (plan.naive, plan.adjustments, plan.final_allocations, plan.rounded_cents)
        assert not any(array.flags.writeable for array in arrays), msg


@pytest.mark.parametrize("norm", ["l2", "l1"])
def test_rebalance_checks_each_rule_once(golden_portfolio, norm, monkeypatch):
    # naive_adjustments checks the budget and the naive vector, and the
    # solver the plan: the problem does not copy the vector (a copy is
    # checked block by block with _finite_max), and the rounding does not
    # check the plan again
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[f"{module.__name__}.{name}"] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    for module in (ns.portfolio, ns.solvers):
        count(module, "_plan_error")
        count(module, "_check_budget")
    count(ns.solvers, "_finite_max")
    plan = ns.rebalance(golden_portfolio, 1000.0, norm)
    assert calls == {"nosell.portfolio._check_budget": 1}
    # the counters see the public steps, which do check
    ns.ContributionProblem(plan.naive, 1000.0)
    ns.round_to_cents(plan.adjustments, 1000.0)
    assert calls == {
        "nosell.portfolio._check_budget": 2,
        "nosell.portfolio._plan_error": 1,
        "nosell.solvers._check_budget": 1,
        "nosell.solvers._finite_max": 1,
    }


def test_rebalance_l2_optimal_in_allocation_space():
    # minimizing over final allocations is the same problem scaled by
    # (x + y)^2, so the plan must match the oracle on the naive deltas
    rng = np.random.default_rng(MASTER_SEED + 32)
    for trial in range(60):
        portfolio = random_portfolio(rng, max_n=6)
        budget = float(rng.uniform(10.0, 3000.0))
        plan = ns.rebalance(portfolio, budget)
        problem = ns.ContributionProblem(plan.naive, budget)
        report = active_set_l2_oracle(problem)
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
    assert ns.round_to_cents(np.array([9e13]), 9e13).tolist() == [9 * 10**15]


def test_round_to_cents_precondition():
    cases = [
        ([1.0, 2.0], 4.0, "sum"),
        ([-0.5, 1.5], 1.0, "negative"),
        ([np.nan, 1.0], 1.0, "finite"),
        # finite entries whose sum overflows, refused without an overflow warning
        ([1.7e308, 1.7e308], 1.0, "finite"),
        # float64 holds whole cents only up to 2**53 of them
        ([1e14], 1e14, r"2\*\*53"),
        # 900 over the budget passes the plan rule (sum_tolerance(1e12) is
        # 1000) but leaves a leftover of -90000 cents
        ([1e12 + 900.0], 1e12, "leftover out of range"),
    ]
    for adjustments, budget, reason in cases:
        with pytest.raises(ValueError, match=reason):
            ns.round_to_cents(np.array(adjustments), budget)


def test_round_to_cents_never_returns_a_negative_cent():
    # -1e-10 passes the plan rule and rounds as zero, so the cent over the
    # budget is a leftover out of range, not a sale of one cent
    with pytest.raises(ValueError, match="leftover out of range"):
        ns.round_to_cents([1e7 + 0.01, -1e-10], 1e7)
    assert ns.round_to_cents([1e7, -1e-10], 1e7).tolist() == [10**9, 0]


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
