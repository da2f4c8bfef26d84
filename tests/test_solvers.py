"""Closed-form solver behavior on pinned examples and targeted properties.

The heavy randomized sweeps (1000-instance oracle equivalence, the full
property suite) live in test_acceptance.py; this file covers the exact
worked examples and the edge semantics.
"""

import numpy as np
import pytest

import nosell as ns

from helpers import MASTER_SEED, instance_stream, describe
from reference_kernels import water_fill_exact

WORKED_DELTAS = (900.0, 650.0, 250.0, -300.0, -500.0)


@pytest.fixture
def worked_problem():
    return ns.ContributionProblem(WORKED_DELTAS, 1000.0)


# -- construction ------------------------------------------------------------

def test_problem_rejects_empty():
    with pytest.raises(ValueError, match="non-empty"):
        ns.ContributionProblem([], 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_deltas(bad):
    with pytest.raises(ValueError, match="finite"):
        ns.ContributionProblem([1.0, bad], 1.0)


@pytest.mark.parametrize("budget", [0.0, -1.0, np.nan, np.inf])
def test_problem_rejects_bad_budget(budget):
    with pytest.raises(ValueError, match="budget"):
        ns.ContributionProblem([1.0], budget)


def test_problem_copies_and_freezes_input():
    raw = np.array([3.0, 1.0])
    problem = ns.ContributionProblem(raw, 2.0)
    raw[0] = 99.0
    assert problem.deltas[0] == 3.0
    with pytest.raises(ValueError):
        problem.deltas[0] = 0.0


# -- solve_l2 ----------------------------------------------------------------

def test_l2_worked_example(worked_problem):
    solution = ns.solve_l2(worked_problem)
    assert solution.active_count == 2
    assert solution.threshold == 275.0  # (900 + 650 - 1000) / 2, exact in float64
    np.testing.assert_allclose(solution.adjustments, [625.0, 375.0, 0.0, 0.0, 0.0], atol=1e-9)


def test_l2_single_asset():
    solution = ns.solve_l2(ns.ContributionProblem([7.0], 5.0))
    assert solution.adjustments.tolist() == [5.0]
    assert solution.threshold == 2.0
    assert solution.active_count == 1


def test_l2_feasible_pair():
    solution = ns.solve_l2(ns.ContributionProblem([2.0, 2.0], 4.0))
    assert solution.adjustments.tolist() == [2.0, 2.0]
    assert solution.threshold == 0.0


def test_l2_strict_inequality_at_boundary():
    # k = 2 gives sum(d_i - d_2) = 2, not < 2, so the scan stops at k* = 1
    solution = ns.solve_l2(ns.ContributionProblem([3.0, 1.0, -2.0], 2.0))
    assert solution.active_count == 1
    assert solution.threshold == 1.0
    np.testing.assert_allclose(solution.adjustments, [2.0, 0.0, 0.0], atol=1e-12)


def test_l2_unsorted_input_and_permutation():
    problem = ns.ContributionProblem([-300.0, 650.0, 900.0, -500.0, 250.0], 1000.0)
    solution = ns.solve_l2(problem)
    np.testing.assert_allclose(solution.adjustments, [0.0, 375.0, 625.0, 0.0, 0.0], atol=1e-9)
    assert solution.active_count == 2


def test_l2_stable_tie_permutation():
    problem = ns.ContributionProblem([5.0, 5.0, 5.0], 3.0)
    solution = ns.solve_l2(problem)
    np.testing.assert_allclose(solution.adjustments, [1.0, 1.0, 1.0], atol=1e-12)
    assert solution.active_count == 3


def test_l2_clustered_deltas_pass_kkt():
    # deltas 1000 +- 1e-3: sums of the raw deltas lose the gaps between
    # them, which are all the scan needs when the budget is small
    seed = MASTER_SEED + 7
    rng = np.random.default_rng(seed)
    for i in range(20):
        deltas = 1000.0 + rng.uniform(-1e-3, 1e-3, 10_000)
        budget = float(10.0 ** rng.uniform(-3.0, 3.0))
        problem = ns.ContributionProblem(deltas, budget)
        solution = ns.solve_l2(problem)
        msg = f"seed={seed} instance={i} budget={budget!r}"
        assert ns.kkt_check_l2(problem, solution.adjustments, solution.threshold), msg


def test_l2_tiny_budget_is_spent():
    solution = ns.solve_l2(ns.ContributionProblem([1.0, 1.0, 1.0], 1e-300))
    assert solution.active_count == 3
    np.testing.assert_allclose(solution.adjustments, [1e-300 / 3] * 3, rtol=1e-15)
    assert float(np.sum(solution.adjustments)) == pytest.approx(1e-300, rel=1e-15)


def test_l2_large_deltas_match_exact_and_pass_kkt():
    # deltas near 1e9 are 1.2e-7 apart in float64, so no threshold can
    # satisfy stationarity to an absolute 1e-9; the certificate must
    # accept the exact plan and still reject a plan moved by 1e-3
    seed = MASTER_SEED + 8
    rng = np.random.default_rng(seed)
    for i in range(20):
        deltas = 1e9 + rng.uniform(-1e4, 1e4, 50)
        budget = float(10.0 ** rng.uniform(0.0, 4.0))
        problem = ns.ContributionProblem(deltas, budget)
        solution = ns.solve_l2(problem)
        msg = f"seed={seed} instance={i} budget={budget!r}"
        exact, _ = water_fill_exact(deltas, budget)
        error = np.abs(solution.adjustments - np.array([float(x) for x in exact]))
        assert float(np.max(error)) <= 4 * np.spacing(budget), msg
        assert ns.kkt_check_l2(problem, solution.adjustments, solution.threshold), msg
        moved = solution.adjustments.copy()
        j, k = rng.choice(deltas.size, 2, replace=False)
        moved[j] += 1e-3
        moved[k] -= 1e-3
        assert not ns.kkt_check_l2(problem, moved, solution.threshold), msg


# -- solve_l1 ----------------------------------------------------------------

def test_l1_worked_example(worked_problem):
    family = ns.solve_l1(worked_problem)
    assert family.case is ns.L1Case.DEFICIT
    assert family.scale == pytest.approx(5.0 / 9.0, abs=1e-12)
    np.testing.assert_allclose(
        family.particular, [500.0, 3250.0 / 9.0, 1250.0 / 9.0, 0.0, 0.0], atol=1e-9
    )
    assert family.slack == 0.0


def test_l1_surplus_example():
    family = ns.solve_l1(ns.ContributionProblem([1.0, -1.0], 3.0))
    assert family.case is ns.L1Case.SURPLUS
    np.testing.assert_allclose(family.particular, [2.0, 1.0], atol=1e-12)
    assert family.scale is None
    assert family.slack == pytest.approx(2.0, abs=1e-12)
    assert ns.l1_objective(ns.ContributionProblem([1.0, -1.0], 3.0), [2.0, 1.0]).value == pytest.approx(3.0)


def test_l1_all_nonpositive_deltas():
    family = ns.solve_l1(ns.ContributionProblem([0.0, 0.0], 2.0))
    assert family.case is ns.L1Case.SURPLUS
    np.testing.assert_allclose(family.particular, [1.0, 1.0], atol=1e-12)


def test_l1_boundary_is_deficit():
    # budget exactly equal to the positive mass: deficit with alpha = 1
    family = ns.solve_l1(ns.ContributionProblem([2.0, 2.0, -1.0], 4.0))
    assert family.case is ns.L1Case.DEFICIT
    assert family.scale == 1.0
    assert family.particular.tolist() == [2.0, 2.0, 0.0]


def test_l1_overflowing_positive_mass_raises():
    # the positive parts sum to inf, so the uniform scale is 1/inf = 0 and
    # the particular member would spend nothing
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="infeasible"):
            ns.solve_l1(ns.ContributionProblem([1e308, 1e308], 1.0))


# -- is_l1_optimal -----------------------------------------------------------

def test_is_l1_optimal_particular(worked_problem):
    family = ns.solve_l1(worked_problem)
    assert ns.is_l1_optimal(worked_problem, family.particular)


def test_is_l1_optimal_rejects_overshoot(worked_problem):
    candidate = [1000.0, 0.0, 0.0, 0.0, 0.0]
    assert not ns.is_l1_optimal(worked_problem, candidate)
    # and indeed its objective is strictly worse than the optimum 1600
    assert ns.l1_objective(worked_problem, candidate).value == pytest.approx(1800.0)
    assert ns.l1_optimal_value(worked_problem).value == pytest.approx(1600.0)


def test_is_l1_optimal_accepts_other_member(worked_problem):
    # alpha = (1, 100/650, 0, 0, 0) lies in the hyperplane: 900 + 100 = 1000
    candidate = [900.0, 100.0, 0.0, 0.0, 0.0]
    assert ns.is_l1_optimal(worked_problem, candidate)
    assert ns.l1_objective(worked_problem, candidate).value == pytest.approx(1600.0)


def test_is_l1_optimal_guards(worked_problem):
    with pytest.raises(ValueError, match="length"):
        ns.is_l1_optimal(worked_problem, [1.0, 2.0])
    assert not ns.is_l1_optimal(worked_problem, [np.nan, 0.0, 0.0, 0.0, 1000.0])
    # tolerance behavior around zero
    member = [500.0, 3250.0 / 9.0, 1250.0 / 9.0, -1e-12, 1e-12]
    assert ns.is_l1_optimal(worked_problem, member)
    bad = [500.0, 3250.0 / 9.0, 1250.0 / 9.0, -1e-6, 1e-6]
    assert not ns.is_l1_optimal(worked_problem, bad)


def test_is_l1_optimal_surplus_shape():
    problem = ns.ContributionProblem([1.0, -1.0], 3.0)
    assert ns.is_l1_optimal(problem, [2.0, 1.0])
    assert ns.is_l1_optimal(problem, [1.0, 2.0])  # eps = (0, 2)
    assert ns.is_l1_optimal(problem, [3.0, 0.0])  # eps = (2, 0)
    assert not ns.is_l1_optimal(problem, [0.5, 2.5])  # fails to cover delta_1+
    assert not ns.is_l1_optimal(problem, [2.0, 2.0])  # wrong total


# -- objectives --------------------------------------------------------------

def test_l2_objective_examples():
    problem = ns.ContributionProblem([3.0, 1.0, -2.0], 2.0)
    assert ns.l2_objective(problem, [2.0, 0.0, 0.0]).value == pytest.approx(6.0, abs=1e-12)
    assert ns.l2_objective(problem, problem.deltas).value == 0.0
    worked = ns.ContributionProblem(WORKED_DELTAS, 1000.0)
    # 2 * 275^2 + 250^2 + 300^2 + 500^2
    assert ns.l2_objective(worked, [625.0, 375.0, 0.0, 0.0, 0.0]).value == pytest.approx(
        553750.0, abs=1e-6
    )
    assert ns.l2_objective(worked, [625.0, 375.0, 0.0, 0.0, 0.0]).norm is ns.Norm.L2


def test_l1_objective_examples(worked_problem):
    problem = ns.ContributionProblem([1.0, -1.0], 3.0)
    assert ns.l1_objective(problem, [2.0, 1.0]).value == pytest.approx(3.0, abs=1e-12)
    nonneg = ns.ContributionProblem([4.0, 2.0], 6.0)
    assert ns.l1_objective(nonneg, nonneg.positive_parts()).value == 0.0
    assert ns.l1_objective(
        worked_problem, [500.0, 3250.0 / 9.0, 1250.0 / 9.0, 0.0, 0.0]
    ).value == pytest.approx(1600.0, abs=1e-9)


def test_objective_length_guard(worked_problem):
    with pytest.raises(ValueError, match="length"):
        ns.l2_objective(worked_problem, [1.0])
    with pytest.raises(ValueError, match="length"):
        ns.l1_objective(worked_problem, [1.0])


def test_l1_optimal_value_examples(worked_problem):
    assert ns.l1_optimal_value(ns.ContributionProblem([1.0, -1.0], 3.0)).value == pytest.approx(
        3.0, abs=1e-12
    )
    assert ns.l1_optimal_value(worked_problem).value == pytest.approx(1600.0, abs=1e-9)
    # all-nonnegative deltas summing to the budget: optimum 0
    deltas = np.array([3.0, 2.0, 1.0])
    problem = ns.ContributionProblem(deltas, float(np.sum(deltas)))
    assert ns.l1_optimal_value(problem).value == 0.0


def test_norm_ordering_zero_iff_feasible():
    # feasible naive adjustments: both optima are exactly zero
    deltas = np.array([3.0, 2.0, 1.0])
    feasible = ns.ContributionProblem(deltas, float(np.sum(deltas)))
    l2_solution = ns.solve_l2(feasible)
    assert ns.l2_objective(feasible, l2_solution.adjustments).value == 0.0
    assert ns.l1_optimal_value(feasible).value == 0.0
    # infeasible: both strictly positive
    for i, problem in instance_stream(100, seed=MASTER_SEED + 10):
        naive_feasible = np.all(problem.deltas >= 0) and float(
            np.sum(problem.deltas)
        ) == problem.budget
        if naive_feasible:
            continue  # vanishing probability under continuous sampling
        l2_val = ns.l2_objective(problem, ns.solve_l2(problem).adjustments).value
        l1_val = ns.l1_optimal_value(problem).value
        assert l2_val > 0.0, describe(i, problem, MASTER_SEED + 10)
        assert l1_val > 0.0, describe(i, problem, MASTER_SEED + 10)


# -- simplex_mle -------------------------------------------------------------

LAVA = (
    0.4631, 0.1418, 0.1232, 0.1274, 0.0962, 0.0251,
    0.0034, 0.0153, 0.0016, 0.0018, 0.0011,
)


def test_simplex_mle_lava_identity():
    theta = ns.simplex_mle(np.array(LAVA))
    np.testing.assert_allclose(theta, LAVA, atol=1e-12)
    assert abs(float(np.sum(theta)) - 1.0) < 1e-12


def test_simplex_mle_symmetry():
    np.testing.assert_allclose(ns.simplex_mle([0.5, 0.5, 0.5]), [1 / 3] * 3, atol=1e-12)


def test_simplex_mle_clips_negative():
    # k* = 1 because 1.2 - (-0.1) = 1.3 >= 1; lambda* = 0.2
    np.testing.assert_allclose(ns.simplex_mle([1.2, -0.1]), [1.0, 0.0], atol=1e-12)


def test_simplex_mle_validation():
    with pytest.raises(ValueError):
        ns.simplex_mle([])
    with pytest.raises(ValueError):
        ns.simplex_mle([np.nan, 0.5])


# -- sampling ----------------------------------------------------------------

def test_sample_l1_member_seed_reproducible(worked_problem):
    family = ns.solve_l1(worked_problem)
    a = ns.sample_l1_member(family, 42)
    b = ns.sample_l1_member(family, 42)
    np.testing.assert_array_equal(a, b)
    c = ns.sample_l1_member(family, 43)
    assert not np.array_equal(a, c)


def test_sample_l1_member_advances_generator(worked_problem):
    family = ns.solve_l1(worked_problem)
    rng = np.random.default_rng(7)
    members = [ns.sample_l1_member(family, rng) for _ in range(10)]
    for i, member in enumerate(members):
        assert ns.is_l1_optimal(worked_problem, member), f"member {i}: {member}"
    stacked = np.array(members)
    assert np.ptp(stacked[:, 1]) > 0  # distinct members, not one repeated point


def test_sample_l1_member_surplus():
    problem = ns.ContributionProblem([1.0, -1.0, 0.5], 5.0)
    family = ns.solve_l1(problem)
    assert family.case is ns.L1Case.SURPLUS
    rng = np.random.default_rng(3)
    for _ in range(20):
        member = ns.sample_l1_member(family, rng)
        assert ns.is_l1_optimal(problem, member)
        assert np.all(member >= family.positive_parts - 1e-12)


def test_sample_l1_member_single_asset():
    problem = ns.ContributionProblem([4.0], 2.0)
    family = ns.solve_l1(problem)
    member = ns.sample_l1_member(family, 0)
    np.testing.assert_allclose(member, [2.0], atol=1e-12)


# -- misc invariants ---------------------------------------------------------

def test_translation_invariance_small():
    base = ns.ContributionProblem([3.0, 1.0, -2.0], 2.0)
    base_solution = ns.solve_l2(base)
    for shift in (-7.5, -0.25, 0.25, 1024.0):
        shifted = ns.ContributionProblem(np.asarray(base.deltas) + shift, 2.0)
        solution = ns.solve_l2(shifted)
        np.testing.assert_allclose(solution.adjustments, base_solution.adjustments, atol=1e-9)
        assert solution.threshold == pytest.approx(base_solution.threshold + shift, abs=1e-9)


def test_solution_arrays_immutable(worked_problem):
    solution = ns.solve_l2(worked_problem)
    with pytest.raises(ValueError):
        solution.adjustments[0] = 1.0
    family = ns.solve_l1(worked_problem)
    with pytest.raises(ValueError):
        family.particular[0] = 1.0
