"""Closed-form solver behavior on pinned examples and targeted properties.

The heavy randomized sweeps (1000-instance oracle equivalence, the full
property suite) live in test_acceptance.py; this file covers the exact
worked examples and the edge semantics.
"""

import math
import warnings

import numpy as np
import pytest

import nosell as ns
from nosell import solvers

from helpers import MASTER_SEED, instance_stream, describe
from oracles import l1_objective, l1_optimal_value, l2_objective
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


def _is_pooled(arr):
    """From _empty's pool, which takes arrays of 4 MiB up to 16 MiB: a
    buffer that numpy sees as a memoryview, starting on a 2 MiB boundary."""
    return isinstance(arr.base, memoryview) and arr.ctypes.data % (1 << 21) == 0


def test_large_arrays_get_their_own_map(monkeypatch, worked_problem):
    # from 4 MiB up to 16 MiB, the problem's copy and the l2 plan live in
    # 2 MiB-aligned buffers from the pool; the answers are the same bits as
    # with heap arrays.  Budget 1e3 funds a few hundred of the 524288
    # assets (the sparse route, whose plan is zeros with the funded entries
    # written in), budget 1e8 tens of thousands (the dense route, whose plan
    # is the gap buffer)
    raw = np.random.default_rng(MASTER_SEED + 10).uniform(-1e4, 1e4, (512, 2048))[:, ::2]
    expected = raw.flatten()
    problem = ns.ContributionProblem(raw, 1e3)
    raw[:] = 0.0
    np.testing.assert_array_equal(problem.deltas, expected)
    with pytest.raises(ValueError):
        problem.deltas[0] = 0.0
    assert _is_pooled(problem.deltas)
    problems = (problem, ns.ContributionProblem(expected, 1e8))
    solutions = [ns.solve_l2(p) for p in problems]
    for p, solution, sparse in zip(problems, solutions, (True, False)):
        assert ns.kkt_check_l2(p, solution.adjustments, solution.threshold)
        assert (64 * solution.active_count <= p.n) == sparse
        with pytest.raises(ValueError):
            solution.adjustments[0] = 1.0
        assert _is_pooled(solution.adjustments)
    assert not _is_pooled(worked_problem.deltas)
    assert not _is_pooled(ns.solve_l2(worked_problem).adjustments)

    monkeypatch.setattr(solvers, "_POOLED_BYTES", 1 << 62)
    for p, solution in zip(problems, solutions):
        heap_problem = ns.ContributionProblem(expected, p.budget)
        heap_solution = ns.solve_l2(heap_problem)
        assert not _is_pooled(heap_problem.deltas) and not _is_pooled(heap_solution.adjustments)
        assert heap_solution.adjustments.tobytes() == solution.adjustments.tobytes()
        assert (heap_solution.threshold, heap_solution.active_count) == (solution.threshold, solution.active_count)


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


@pytest.mark.parametrize("deltas, funded", [([1.0, 1.0], 2), ([0.0, 0.0, 0.0, -5e-324], 3)])
def test_l2_subnormal_budget(deltas, funded):
    # budget / k rounds to 0: every tied largest delta is still funded
    solution = ns.solve_l2(ns.ContributionProblem(deltas, 5e-324))
    assert solution.active_count == funded
    assert solution.adjustments.tolist() == [0.0] * len(deltas)


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


@pytest.mark.parametrize(
    "deltas, plan",
    [
        ([1e308, 1e308, -1e308], [0.5, 0.5, 0.0]),
        ([1e308, -1e308], [1.0, 0.0]),
        ([-1e308, 1e308, 5.0], [0.0, 1.0, 0.0]),
    ],
)
def test_l2_opposite_sign_extreme_deltas(deltas, plan):
    # max(deltas) - d_i overflows to inf for deltas of opposite sign near
    # 1e308; such a gap is never funded and must not warn or leak a NaN
    problem = ns.ContributionProblem(deltas, 1.0)
    solution = ns.solve_l2(problem)
    assert solution.adjustments.tolist() == plan
    assert ns.kkt_check_l2(problem, solution.adjustments, solution.threshold)


def test_kkt_slack_ignores_a_far_negative_unfunded_delta():
    # the slack scales by the funded side, max(deltas) and lam, so a delta
    # at -1e300 that no plan funds leaves it at 1e-9 plus ulps of 2: plans
    # 0.5 off pass no more here than beside a delta at -1
    for far in (-1e300, -1.0):
        problem = ns.ContributionProblem([1.0, 2.0, far], 1.0)
        solution = ns.solve_l2(problem)
        assert solution.adjustments.tolist() == [0.0, 1.0, 0.0] and solution.threshold == 1.0
        assert ns.kkt_check_l2(problem, solution.adjustments, solution.threshold)
        assert not ns.kkt_check_l2(problem, [0.5, 0.5, 0.0], 1.5), far
        assert not ns.kkt_check_l2(problem, [1.0, 0.0, 0.0], 0.0), far


@pytest.mark.parametrize("n", [2, 2 * solvers._SAMPLE + 3])
def test_l2_budget_near_float_max_with_large_gaps(n):
    # k e_k, the prefix sums and sum + budget pass the float64 maximum
    # although the plan does not: [1e308, 0] at budget 1.5e308 is
    # [1.25e308, 2.5e307].  n = 2 is the whole-vector scan; the larger n
    # (the same input padded with zeros) runs the sampled cut and Michelot.
    seed = MASTER_SEED + 11
    rng = np.random.default_rng(seed)
    cases = [(np.pad([1e308, 0.0], (0, n - 2)), 1.5e308)]
    for _ in range(4):
        deltas = rng.uniform(-0.7e308, 0.3e308, n)
        deltas[rng.integers(n)] = 1e308
        cases.append((deltas, float(rng.uniform(1e308, 1.7e308))))
    for i, (deltas, budget) in enumerate(cases):
        msg = f"seed={seed} n={n} case={i} budget={budget!r}"
        problem = ns.ContributionProblem(deltas, budget)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = ns.solve_l2(problem)
            assert ns.kkt_check_l2(problem, solution.adjustments, solution.threshold), msg
        exact, _ = water_fill_exact(deltas, budget)
        error = np.abs(solution.adjustments - np.array([float(x) for x in exact]))
        assert float(np.max(error)) <= 1e-12 * budget, msg
        assert solution.active_count == sum(x > 0 for x in exact), msg
        if n == 2 and i == 0:
            assert solution.adjustments.tolist() == [1.25e308, 2.5e307]


def test_l2_sorts_no_more_than_the_sample(monkeypatch, worked_problem):
    # np.sort sees the whole vector up to _SAMPLE assets and a strided
    # sample of at most _SAMPLE gaps above; only the fallback past the
    # round cap sorts more
    sizes = []
    sort = np.sort

    def recorded(a, *args, **kwargs):
        sizes.append(np.size(a))
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", recorded)
    rng = np.random.default_rng(MASTER_SEED + 9)
    problems = [
        worked_problem,
        ns.ContributionProblem(rng.uniform(-1e4, 1e4, 100_000), 1e3),
        ns.ContributionProblem(-rng.exponential(1e3, 1_000_000), 1e6),
    ]
    for problem in problems:
        sizes.clear()
        solution = ns.solve_l2(problem)
        assert ns.kkt_check_l2(problem, solution.adjustments, solution.threshold)
        assert len(sizes) == 1 and sizes[0] <= min(problem.n, solvers._SAMPLE)


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
    assert l1_objective(ns.ContributionProblem([1.0, -1.0], 3.0), [2.0, 1.0]) == pytest.approx(3.0)


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


@pytest.mark.parametrize(
    "deltas, budget, particular",
    [
        ([1e308, 1e308], 1.0, [0.5, 0.5]),
        ([1.5e308, -1e308, 1.5e308, 3e307], 6.6, [3.0, 0.0, 3.0, 0.6]),
    ],
    ids=["two-at-1e308", "mixed-signs"],
)
def test_l1_overflowing_positive_mass_scales(deltas, budget, particular):
    # the positive parts sum to inf; the uniform scale must not become
    # 1/inf = 0, and no overflow warning escapes
    problem = ns.ContributionProblem(deltas, budget)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        family = ns.solve_l1(problem)
    assert family.case is ns.L1Case.DEFICIT
    np.testing.assert_allclose(family.particular, particular, rtol=1e-14)
    assert family.scale == pytest.approx(budget / sum(d / 1e308 for d in deltas if d > 0) / 1e308, rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ns.is_l1_optimal(problem, family.particular)
        assert ns.is_l1_optimal(problem, ns.sample_l1_member(family, 0))
        assert l1_optimal_value(problem) == np.inf


@pytest.mark.parametrize(
    "deltas, budget",
    [([1e308, 1e308], 1.5e308), ([0.003, 1e8], 0.01)],
    ids=["running-sum-overflows", "shortfall-1e10-times-budget"],
)
def test_l1_sampled_members_spend_the_budget(deltas, budget):
    # a greedy fill owes each asset what the earlier ones left of the
    # budget, not the budget less a capacity sum that overflowed or lost
    # the small capacities to rounding
    problem = ns.ContributionProblem(deltas, budget)
    family = ns.solve_l1(problem)
    assert family.case is ns.L1Case.DEFICIT
    for seed in range(8):
        member = ns.sample_l1_member(family, seed)
        assert ns.is_l1_optimal(problem, member), (seed, member)


@pytest.mark.parametrize(
    "deltas, budget, seeds",
    [([2.0], 5e-324, range(20)), ([809771476.0], 1e-300, [0])],
    ids=["scale-rounds-to-zero", "scale-loses-bits"],
)
def test_l1_particular_at_a_subnormal_scale(deltas, budget, seeds):
    # budget / total_pos is subnormal: scale * pos spent nothing of the
    # budget, or missed it by 6 eps; the shares times the budget spend it.
    # At 5e-324 a sampled member's Dirichlet mix spent nothing for some
    # seeds; at 1e-300 other seeds miss by an ordinary ulp
    problem = ns.ContributionProblem(deltas, budget)
    family = ns.solve_l1(problem)
    assert family.case is ns.L1Case.DEFICIT
    assert family.particular.tolist() == [budget]
    assert ns.is_l1_optimal(problem, family.particular)
    for seed in seeds:
        member = ns.sample_l1_member(family, seed)
        assert ns.is_l1_optimal(problem, member)
        assert float(np.sum(member)) == budget, seed


@pytest.mark.parametrize(
    "deltas, budget, case",
    [
        ([1.5e308, 1.131e308], 8.4e-323, ns.L1Case.DEFICIT),
        ([1.5e308, 6.255e307, 1.107e308, 1.338e308], 2e-323, ns.L1Case.DEFICIT),
        ([3.0, 3.0], 5e-324, ns.L1Case.DEFICIT),
        ([0.0, 0.0], 5e-324, ns.L1Case.SURPLUS),
        ([0.0, -1.0, 0.0, 0.0], 1.2e-320, ns.L1Case.SURPLUS),
    ],
    ids=["two-parts", "four-parts", "even-deficit", "even-surplus", "uneven-surplus"],
)
def test_l1_overflowing_parts_at_a_subnormal_share(deltas, budget, case):
    # the positive parts overflow when summed and budget / sum is
    # subnormal: the rescaled parts' shares times the budget spend it
    # exactly, where the subnormal share times the parts missed it by
    # whole ulps of zero.  The sampled members spend it too.  An even
    # split of a few ulps rounds each share on its own (half of 5e-324
    # is 0, and 1.2e-320 / 4 is not on the grid): one entry takes what
    # the shares miss, in both cases
    problem = ns.ContributionProblem(deltas, budget)
    family = ns.solve_l1(problem)
    assert family.case is case
    assert math.fsum(family.particular.tolist()) == budget
    assert ns.is_l1_optimal(problem, family.particular)
    for seed in range(20):
        assert math.fsum(ns.sample_l1_member(family, seed).tolist()) == budget, seed


@pytest.mark.parametrize(
    "deltas, budget",
    [([1.5e308, 6.255e307, 1.107e308, 1.338e308], 2e-323), ([3e-323, 2e-323, 1e-323, 4e-323], 7e-323)],
    ids=["overflowing-parts", "subnormal-parts"],
)
def test_sampled_deficit_members_spend_a_subnormal_budget(deltas, budget):
    # with more than two nonzero entries, each mixed entry rounds to the
    # subnormal grid on its own, so what the rounding loses or gains must
    # land on an entry that stays within [0, positive part]
    family = ns.solve_l1(ns.ContributionProblem(deltas, budget))
    assert family.case is ns.L1Case.DEFICIT
    for seed in range(20):
        member = ns.sample_l1_member(family, seed)
        assert math.fsum(member.tolist()) == budget, seed
        assert (member >= 0.0).all() and (member <= family.positive_parts).all(), seed


def test_l1_optimal_value_past_an_overflowing_sum():
    # sum|deltas| overflows but the optimal value sum|deltas| - budget fits
    problem = ns.ContributionProblem([1e308, 1e308, -1.0], 1.5e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = l1_optimal_value(problem)
    assert value == pytest.approx(5e307, rel=1e-15)
    assert l1_objective(problem, ns.solve_l1(problem).particular) == pytest.approx(value, rel=1e-15)


# -- refusal -----------------------------------------------------------------

def _skew_level(monkeypatch):
    # every water level 1% high: the plan overspends the budget
    level = solvers._level
    monkeypatch.setattr(solvers, "_level", lambda *args: 1.01 * level(*args))


def _skew_first_total(monkeypatch):
    # the positive mass 1% high: the deficit scale underspends the budget
    total = solvers._total
    factors = iter([1.01])
    monkeypatch.setattr(solvers, "_total", lambda parts: total(parts) * next(factors, 1.0))


@pytest.mark.parametrize(
    "solve, n, budget, route, skew",
    [
        (ns.solve_l2, 50, 1e3, "scan", _skew_level),
        (ns.solve_l2, 50, 1e8, "scan", _skew_level),
        (ns.solve_l2, 1 << 19, 1e3, "sparse", _skew_level),
        (ns.solve_l2, 1 << 19, 1e8, "dense", _skew_level),
        (ns.solve_l1, 50, 1e3, "deficit", _skew_first_total),
    ],
    ids=["l2-scan-1e3", "l2-scan-1e8", "l2-sparse", "l2-dense", "l1-deficit"],
)
def test_solvers_refuse_a_plan_that_breaks_the_rule(monkeypatch, solve, n, budget, route, skew):
    problem = ns.ContributionProblem(np.random.default_rng((MASTER_SEED, 17, n)).uniform(-1e4, 1e4, n), budget)
    answer = solve(problem)
    if route == "deficit":
        assert answer.case is ns.L1Case.DEFICIT
    elif route != "scan":
        # the sparse route takes at most one asset in 64 (see solve_l2)
        assert (64 * answer.active_count <= n) == (route == "sparse")
    skew(monkeypatch)
    with pytest.raises(ValueError, match="infeasible plan"):
        solve(problem)


@pytest.mark.parametrize("n", [2, 5000], ids=["scan", "sampled"])
def test_l2_refuses_a_threshold_past_the_float64_range(n):
    # lambda = max(deltas) - t lies below -1.7976931348623157e308: at n = 2
    # the plan [5e299, 5e299] spends the budget, but lambda rounds to -inf,
    # which kkt_check_l2 rejects
    problem = ns.ContributionProblem([-1.7976931348623157e308] * n, 1e300)
    with pytest.raises(ValueError, match="infeasible plan: the threshold -inf"):
        ns.solve_l2(problem)


# -- is_l1_optimal -----------------------------------------------------------

def test_is_l1_optimal_particular(worked_problem):
    family = ns.solve_l1(worked_problem)
    assert ns.is_l1_optimal(worked_problem, family.particular)


def test_is_l1_optimal_rejects_overshoot(worked_problem):
    candidate = [1000.0, 0.0, 0.0, 0.0, 0.0]
    assert not ns.is_l1_optimal(worked_problem, candidate)
    # and indeed its objective is strictly worse than the optimum 1600
    assert l1_objective(worked_problem, candidate) == pytest.approx(1800.0)
    assert l1_optimal_value(worked_problem) == pytest.approx(1600.0)


def test_is_l1_optimal_accepts_other_member(worked_problem):
    # alpha = (1, 100/650, 0, 0, 0) lies in the hyperplane: 900 + 100 = 1000
    candidate = [900.0, 100.0, 0.0, 0.0, 0.0]
    assert ns.is_l1_optimal(worked_problem, candidate)
    assert l1_objective(worked_problem, candidate) == pytest.approx(1600.0)


def test_is_l1_optimal_guards(worked_problem):
    with pytest.raises(ValueError, match="length"):
        ns.is_l1_optimal(worked_problem, [1.0, 2.0])
    assert not ns.is_l1_optimal(worked_problem, [np.nan, 0.0, 0.0, 0.0, 1000.0])
    # finite entries whose sum overflows fail without an overflow warning
    assert not ns.is_l1_optimal(ns.ContributionProblem([1.0, 0.0], 1.0), [1.7e308, 1.7e308])
    # tolerance behavior around zero
    member = [500.0, 3250.0 / 9.0, 1250.0 / 9.0, -1e-12, 1e-12]
    assert ns.is_l1_optimal(worked_problem, member)
    bad = [500.0, 3250.0 / 9.0, 1250.0 / 9.0, -1e-6, 1e-6]
    assert not ns.is_l1_optimal(worked_problem, bad)


def test_is_l1_optimal_allows_4_ulps():
    # one ulp of 1.06e14 is 0.0156, far above FEAS_TOL: sample_l1_member
    # (seed 0) makes this member one ulp above its positive part.  The
    # slack is 4 ulps of the larger of the largest part and the budget.
    x = 106124857117813.0
    problem = ns.ContributionProblem([x], x)
    assert ns.is_l1_optimal(problem, [math.nextafter(x, math.inf)])
    assert not ns.is_l1_optimal(problem, [x + 8 * math.ulp(x)])
    surplus = ns.ContributionProblem([x, 0.0], 2 * x)
    assert ns.is_l1_optimal(surplus, [math.nextafter(x, 0.0), x + math.ulp(x)])
    assert not ns.is_l1_optimal(surplus, [x - 16 * math.ulp(x), x + 16 * math.ulp(x)])


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
    assert l2_objective(problem, [2.0, 0.0, 0.0]) == pytest.approx(6.0, abs=1e-12)
    assert l2_objective(problem, problem.deltas) == 0.0
    worked = ns.ContributionProblem(WORKED_DELTAS, 1000.0)
    # 2 * 275^2 + 250^2 + 300^2 + 500^2
    assert l2_objective(worked, [625.0, 375.0, 0.0, 0.0, 0.0]) == pytest.approx(
        553750.0, abs=1e-6
    )


def test_l1_objective_examples(worked_problem):
    problem = ns.ContributionProblem([1.0, -1.0], 3.0)
    assert l1_objective(problem, [2.0, 1.0]) == pytest.approx(3.0, abs=1e-12)
    nonneg = ns.ContributionProblem([4.0, 2.0], 6.0)
    assert l1_objective(nonneg, nonneg.positive_parts()) == 0.0
    assert l1_objective(
        worked_problem, [500.0, 3250.0 / 9.0, 1250.0 / 9.0, 0.0, 0.0]
    ) == pytest.approx(1600.0, abs=1e-9)


def test_objective_length_guard(worked_problem):
    with pytest.raises(ValueError, match="length"):
        l2_objective(worked_problem, [1.0])
    with pytest.raises(ValueError, match="length"):
        l1_objective(worked_problem, [1.0])


def test_l1_optimal_value_examples(worked_problem):
    assert l1_optimal_value(ns.ContributionProblem([1.0, -1.0], 3.0)) == pytest.approx(
        3.0, abs=1e-12
    )
    assert l1_optimal_value(worked_problem) == pytest.approx(1600.0, abs=1e-9)
    # all-nonnegative deltas summing to the budget: optimum 0
    deltas = np.array([3.0, 2.0, 1.0])
    problem = ns.ContributionProblem(deltas, float(np.sum(deltas)))
    assert l1_optimal_value(problem) == 0.0


def test_norm_ordering_zero_iff_feasible():
    # feasible naive adjustments: both optima are exactly zero
    deltas = np.array([3.0, 2.0, 1.0])
    feasible = ns.ContributionProblem(deltas, float(np.sum(deltas)))
    l2_solution = ns.solve_l2(feasible)
    assert l2_objective(feasible, l2_solution.adjustments) == 0.0
    assert l1_optimal_value(feasible) == 0.0
    # infeasible: both strictly positive
    for i, problem in instance_stream(100, seed=MASTER_SEED + 10):
        naive_feasible = np.all(problem.deltas >= 0) and float(
            np.sum(problem.deltas)
        ) == problem.budget
        if naive_feasible:
            continue  # vanishing probability under continuous sampling
        l2_val = l2_objective(problem, ns.solve_l2(problem).adjustments)
        l1_val = l1_optimal_value(problem)
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


def test_sample_l1_member_refuses_a_fill_that_overspends(monkeypatch, worked_problem):
    family = ns.solve_l1(worked_problem)
    fill = solvers._greedy_fill
    monkeypatch.setattr(solvers, "_greedy_fill", lambda *args: 1.01 * fill(*args))
    with pytest.raises(ValueError, match="infeasible plan"):
        ns.sample_l1_member(family, 0)


def test_sample_l1_member_refuses_an_inconsistent_family():
    # a surplus family whose slack does not match its particular: the
    # member sums to 6.0 against the particular's 3.0
    family = ns.L1SolutionFamily(
        case=ns.L1Case.SURPLUS, particular=[2.0, 1.0], positive_parts=[1.0, 0.0], slack=5.0, scale=None
    )
    with pytest.raises(ValueError, match="infeasible plan"):
        ns.sample_l1_member(family, 0)


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
