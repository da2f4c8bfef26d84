"""Brute-force oracle behavior: pinned examples, guard rails, and the
uniqueness sweep that pits the KKT checker against every enumerated
candidate."""

import math
import sys

import numpy as np
import pytest

import nosell as ns

from helpers import MASTER_SEED, describe, instance_stream
from oracles import (
    active_set_l2_oracle,
    grid_l1_oracle,
    iter_active_set_candidates,
    l1_objective,
    l1_optimal_value,
    l2_objective,
)

WORKED_DELTAS = (900.0, 650.0, 250.0, -300.0, -500.0)


@pytest.fixture
def worked_problem():
    return ns.ContributionProblem(WORKED_DELTAS, 1000.0)


# -- active-set oracle -------------------------------------------------------

def test_active_set_worked_example(worked_problem):
    report = active_set_l2_oracle(worked_problem)
    np.testing.assert_allclose(report.best_candidate, [625.0, 375.0, 0.0, 0.0, 0.0], atol=1e-9)
    assert report.candidates_examined == 2**5 - 1


def test_active_set_single_asset():
    report = active_set_l2_oracle(ns.ContributionProblem([7.0], 5.0))
    assert report.best_candidate.tolist() == [5.0]
    assert report.candidates_examined == 1


def test_active_set_hand_enumerated():
    # all 7 subsets of (3, 1, -2) with budget 2; the winner is {1} with
    # candidate (2, 0, 0) and objective 1 + 1 + 4 = 6
    report = active_set_l2_oracle(ns.ContributionProblem([3.0, 1.0, -2.0], 2.0))
    np.testing.assert_allclose(report.best_candidate, [2.0, 0.0, 0.0], atol=1e-12)
    assert report.best_objective == pytest.approx(6.0, abs=1e-12)
    assert report.candidates_examined == 7


def test_active_set_size_guard():
    with pytest.raises(ValueError, match="n <= 20"):
        active_set_l2_oracle(ns.ContributionProblem(np.ones(21), 1.0))


def test_active_set_report_consistency():
    # best_objective always equals the objective of best_candidate, and a
    # feasible candidate is returned for every instance
    for i, problem in instance_stream(150, seed=MASTER_SEED + 20):
        report = active_set_l2_oracle(problem)
        msg = describe(i, problem, MASTER_SEED + 20)
        assert np.all(report.best_candidate >= -ns.FEAS_TOL), msg
        assert abs(float(np.sum(report.best_candidate)) - problem.budget) <= ns.sum_tolerance(
            problem.budget
        ), msg
        recomputed = l2_objective(problem, report.best_candidate)
        assert report.best_objective == pytest.approx(recomputed, abs=1e-9), msg


def test_iter_candidates_matches_oracle():
    # explicit min over the generator agrees with the kernel-backed oracle
    for i, problem in instance_stream(60, seed=MASTER_SEED + 21, max_n=6):
        best_obj = math.inf
        best = None
        for _, _, candidate, feasible in iter_active_set_candidates(problem):
            if not feasible:
                continue
            obj = l2_objective(problem, candidate)
            if obj < best_obj:
                best_obj = obj
                best = candidate
        report = active_set_l2_oracle(problem)
        msg = describe(i, problem, MASTER_SEED + 21)
        np.testing.assert_allclose(report.best_candidate, best, atol=1e-9, err_msg=msg)
        assert report.best_objective == pytest.approx(best_obj, abs=1e-9), msg


# -- KKT checker -------------------------------------------------------------

def test_kkt_accepts_worked_solution(worked_problem):
    assert ns.kkt_check_l2(worked_problem, [625.0, 375.0, 0.0, 0.0, 0.0], 275.0)


def test_kkt_rejects_lump_allocation_for_any_threshold(worked_problem):
    # no threshold can satisfy stationarity: 1000 = 900 - lam needs
    # lam = -100, but then the zero entry 650 > lam violates dual feasibility
    candidate = [1000.0, 0.0, 0.0, 0.0, 0.0]
    for threshold in np.linspace(-1500.0, 1500.0, 3001):
        assert not ns.kkt_check_l2(worked_problem, candidate, float(threshold))
    assert not ns.kkt_check_l2(worked_problem, candidate, -100.0)


def test_kkt_single_asset():
    problem = ns.ContributionProblem([7.0], 5.0)
    assert ns.kkt_check_l2(problem, [5.0], 7.0 - 5.0)


def test_kkt_rejects_a_wrong_plan_at_the_float_maximum():
    # lam is the float64 maximum, whose np.spacing is inf: a slack of 4
    # ulps must stay finite, or every plan passes
    problem = ns.ContributionProblem([sys.float_info.max, 0.0], 1.0)
    solution = ns.solve_l2(problem)
    assert solution.adjustments.tolist() == [1.0, 0.0]
    assert ns.kkt_check_l2(problem, solution.adjustments, solution.threshold)
    assert not ns.kkt_check_l2(problem, [0.0, 1.0], solution.threshold)


def test_kkt_guards(worked_problem):
    with pytest.raises(ValueError, match="length"):
        ns.kkt_check_l2(worked_problem, [1.0], 0.0)
    assert not ns.kkt_check_l2(worked_problem, [np.nan] * 5, 275.0)
    # infeasible sums and negative entries fail fast
    assert not ns.kkt_check_l2(worked_problem, [626.0, 375.0, 0.0, 0.0, 0.0], 275.0)
    assert not ns.kkt_check_l2(worked_problem, [1625.0, 375.0, 0.0, 0.0, -1000.0], 275.0)
    # finite entries whose sum overflows fail without an overflow warning
    assert not ns.kkt_check_l2(ns.ContributionProblem([1.0, 0.0], 1.0), [1.7e308, 1.7e308], 0.0)


def test_kkt_rejects_a_threshold_a_float64_range_below_the_deltas():
    # 1.7e308 - (-1.7e308) passes the float64 maximum: False, with no
    # overflow warning
    problem = ns.ContributionProblem([1.7e308, 0.0], 1.0)
    assert not ns.kkt_check_l2(problem, [1.0, 0.0], -1.7e308)


def test_kkt_uniqueness_among_enumerated_candidates():
    # Across every feasible stationary candidate of every support, the KKT
    # checker accepts exactly the optimum: optimality is unique
    for i, problem in instance_stream(80, seed=MASTER_SEED + 22, max_n=6):
        report = active_set_l2_oracle(problem)
        msg = describe(i, problem, MASTER_SEED + 22)
        accepted = 0
        for _, lam, candidate, feasible in iter_active_set_candidates(problem):
            if not feasible:
                continue
            verdict = ns.kkt_check_l2(problem, candidate, lam)
            is_best = bool(
                np.max(np.abs(candidate - report.best_candidate)) <= 1e-9
            )
            assert verdict == is_best, f"{msg} lam={lam!r} candidate={candidate.tolist()!r}"
            accepted += verdict
        assert accepted >= 1, msg


# -- grid oracle -------------------------------------------------------------

def test_grid_surplus_instance():
    report = grid_l1_oracle(ns.ContributionProblem([1.0, -1.0], 3.0), 300)
    assert abs(report.best_objective - 3.0) <= 0.02
    assert report.candidates_examined == 301


def test_grid_flat_instance():
    # every feasible point has objective exactly 2
    for resolution in (1, 7, 64):
        report = grid_l1_oracle(ns.ContributionProblem([0.0, 0.0], 2.0), resolution)
        assert report.best_objective == pytest.approx(2.0, abs=1e-12)


def test_grid_four_asset_truncation():
    problem = ns.ContributionProblem([900.0, 650.0, 250.0, -300.0], 1000.0)
    report = grid_l1_oracle(problem, 200)
    assert abs(report.best_objective - 1100.0) <= 10.0
    assert report.candidates_examined == math.comb(203, 3)


def test_grid_guards():
    with pytest.raises(ValueError, match="n <= 4"):
        grid_l1_oracle(ns.ContributionProblem(np.ones(5), 1.0), 10)
    with pytest.raises(ValueError, match="resolution"):
        grid_l1_oracle(ns.ContributionProblem([1.0], 1.0), 0)


def test_grid_never_beats_true_optimum():
    for i, problem in instance_stream(120, seed=MASTER_SEED + 23, max_n=4):
        resolution = 50
        report = grid_l1_oracle(problem, resolution)
        optimum = l1_optimal_value(problem)
        msg = describe(i, problem, MASTER_SEED + 23)
        assert report.best_objective >= optimum - ns.FEAS_TOL, msg
        slack = 2.0 * problem.n * problem.budget / resolution
        assert report.best_objective <= optimum + slack, msg
        # report consistency
        recomputed = l1_objective(problem, report.best_candidate)
        assert report.best_objective == pytest.approx(recomputed, abs=1e-9), msg
        assert abs(float(np.sum(report.best_candidate)) - problem.budget) <= 1e-9 * max(
            1.0, problem.budget
        ) * problem.n, msg
