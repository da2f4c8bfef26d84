"""Seeded regression tests for defects that are known and not yet mended.

Each test asserts the behaviour the mended code must have, and is marked
``xfail(strict=True)`` with ``raises=`` set to what it fails with today,
so it reports as xfailed until the defect is mended.  A change that mends
one makes its test pass, which strict xfail turns into a failure: that
change drops the marker.  Each test names the CHANGES.md line that reports
its defect (FOUND and the line's number) and the ROADMAP item that plans
the fix.
"""

import pytest

import nosell as ns


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FOUND 39, ROADMAP item 3: sum_tolerance's absolute 1e-9 floor")
def test_certificates_refuse_a_plan_over_a_tiny_budget():
    # 0.05% over a 1e-6 budget
    assert not ns.is_l1_optimal(ns.ContributionProblem([1e-6, 0.0], 1e-6), [1.0005e-6, 0.0])
    assert not ns.kkt_check_l2(ns.ContributionProblem([2e-6, 0.0], 1e-6), [1.0005e-6, 0.0], 1e-6)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FOUND 47, ROADMAP item 3: each entry is checked against the absolute FEAS_TOL")
def test_certificates_refuse_a_plan_that_sells():
    # the plan sells 500 times the budget
    problem = ns.ContributionProblem([1e-12, 0.0], 1e-12)
    plan = [1e-12 + 5e-10, -5e-10]
    assert not ns.is_l1_optimal(problem, plan)
    assert not ns.kkt_check_l2(problem, plan, 0.0)


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="FOUND 45, ROADMAP item 4: round_to_cents raises below its 2**53-cent limit")
def test_rebalance_rounds_a_large_budget_to_whole_cents():
    values = [1903026772336.32, 5015217001839.11, 9266192075346.23, 9088984472096.34, 215045292002.35]
    targets = [0.32803797738590645, 0.1581064659532825, 0.04167468186240584, 0.09032979517793045,
               0.3818510796204747]
    portfolio = ns.Portfolio(map(ns.Asset, "abcde", values, targets))
    cents = ns.rebalance(portfolio, 74194829904874.34).rounded_cents
    assert (cents >= 0).all()
    assert int(cents.sum()) == 7419482990487434


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="FOUND 100, ROADMAP item 20: the threshold d - budget passes the float64 minimum")
def test_solve_l2_funds_one_asset_near_the_float64_minimum():
    budget = 2.9937604643020797e292
    solution = ns.solve_l2(ns.ContributionProblem([-1.7976931348623155e308], budget))
    # the plan is exact and feasible; its threshold may be -inf
    assert solution.adjustments.tolist() == [budget]
