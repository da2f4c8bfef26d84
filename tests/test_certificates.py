"""The optimality certificates on large arrays.

kkt_check_l2 and is_l1_optimal test a candidate a block at a time
(solvers._blocks), from 2^19 entries on with a worker thread beside the
caller where more than one CPU is usable.  Their verdicts must be those of
the whole-array forms in reference_kernels, just below, at and above that
bound and well past it: on solve_l2 plans of both routes, on l1
particulars and members, and on plans broken by one entry at the block
edges.  Each block works in its own scratch, so neither certificate holds
a temporary of the plan's size.
"""

import tracemalloc

import numpy as np
import pytest

import nosell as ns
from nosell import solvers

from helpers import MASTER_SEED
from reference_kernels import is_l1_optimal_whole, kkt_check_l2_whole

N = solvers._THREADED
SIZES = (N - 1, N, N + 1, 2 * N + 12_345)
LARGE = SIZES[-1]
#: l2 budgets that fund about one asset in 700 of uniform +-1e4 deltas
#: (the sparse route) and one in seven (the dense route)
SPARSE, DENSE = 1e4, 1e8


def _edges(n):
    """The entries a broken plan breaks: the first block's ends, the
    second block's start and the last entry, in a partial block unless n
    is a whole number of blocks."""
    return 0, solvers._BLOCK - 1, solvers._BLOCK, n - 1


def _deltas(n, k):
    return np.random.default_rng((MASTER_SEED, 29, n, k)).uniform(-1e4, 1e4, n)


def _kkt(problem, candidate, threshold):
    """The blocked verdict, once it is checked against the whole-array one."""
    verdict = ns.kkt_check_l2(problem, candidate, threshold)
    assert verdict is kkt_check_l2_whole(problem, candidate, threshold)
    return verdict


def _l1(problem, candidate):
    """The blocked verdict, once it is checked against the whole-array one."""
    verdict = ns.is_l1_optimal(problem, candidate)
    assert verdict is is_l1_optimal_whole(problem, candidate)
    return verdict


def _broken(candidate, i, by):
    """``candidate`` moved by ``by`` at entry i, still within the plan rule
    that both certificates test first."""
    out = np.array(candidate)
    out[i] += by
    return out


def _l2_edges_funded(n, budget, monkeypatch):
    """A problem whose plan funds each edge entry by about 1e-6: the edges
    start at the smallest delta, then move 1e-6 above the water level."""
    deltas = _deltas(n, int(budget))
    edges = list(_edges(n))
    deltas[edges] = -1e4
    deltas[edges] = ns.solve_l2(ns.ContributionProblem(deltas, budget)).threshold + 1e-6
    problem = ns.ContributionProblem(deltas, budget)
    sparse = []
    scattered = solvers._scattered
    monkeypatch.setattr(solvers, "_scattered", lambda *args: sparse.append(True) or scattered(*args))
    solution = ns.solve_l2(problem)
    assert bool(sparse) is (budget == SPARSE)
    assert np.all(solution.adjustments[edges] > 1e-7)
    return problem, solution


@pytest.mark.parametrize("budget", [SPARSE, DENSE], ids=["sparse", "dense"])
@pytest.mark.parametrize("n", SIZES)
def test_kkt_matches_whole_array_verdicts(n, budget, monkeypatch):
    problem, solution = _l2_edges_funded(n, budget, monkeypatch)
    plan, lam = solution.adjustments, solution.threshold
    assert _kkt(problem, plan, lam)
    for i in _edges(n):
        # stationarity: a funded entry 1e-7 off d - lam
        moved = _broken(plan, i, 1e-7)
        assert solvers._plan_error(moved, budget) is None
        assert not _kkt(problem, moved, lam), i
        # dual feasibility: an entry 1e-6 above the water level, unfunded
        unfunded = _broken(plan, i, -plan[i])
        assert solvers._plan_error(unfunded, budget) is None
        assert not _kkt(problem, unfunded, lam), i


@pytest.mark.parametrize("n", SIZES)
def test_kkt_matches_whole_array_verdicts_at_the_float_range(n):
    # one funded delta at the float64 maximum in a late block, every other
    # at its negative: d - lam passes the float64 maximum for the false
    # lam, and is 1 for the true one
    late = n - 3 * solvers._BLOCK // 2
    deltas = np.full(n, -1.7e308)
    deltas[late] = 1.7e308
    problem = ns.ContributionProblem(deltas, 1.0)
    plan = np.zeros(n)
    plan[late] = 1.0
    assert _kkt(problem, plan, 1.7e308 - 1.0)
    with np.errstate(over="raise"):
        assert not _kkt(problem, plan, -1.7e308)
    # the tolerance is 4 ulps of the funded side, max(d) and lam, not of
    # the unfunded -1e300: a plan that is 0.5 off at two edges fails
    deltas = np.full(n, -1e300)
    edges = list(_edges(n))
    deltas[edges] = 1.0
    problem = ns.ContributionProblem(deltas, 4.0)
    solution = ns.solve_l2(problem)
    assert solution.adjustments[edges].tolist() == [1.0] * 4 and solution.threshold == 0.0
    shifted = _broken(_broken(solution.adjustments, edges[0], 0.5), edges[-1], -0.5)
    assert not _kkt(problem, shifted, 0.0)


@pytest.mark.parametrize("budget", [SPARSE, DENSE], ids=["sparse", "dense"])
def test_kkt_makes_one_blocked_pass(budget, monkeypatch):
    # the slack comes from the problem's max(deltas) and lam, so no pass
    # looks for another extreme before the test
    problem = ns.ContributionProblem(_deltas(LARGE, 0), budget)
    solution = ns.solve_l2(problem)
    passes = []
    blocks = solvers._blocks
    monkeypatch.setattr(solvers, "_blocks", lambda *args: passes.append(True) or blocks(*args))
    assert ns.kkt_check_l2(problem, solution.adjustments, solution.threshold)
    assert len(passes) == 1


@pytest.mark.parametrize("n", SIZES)
def test_is_l1_optimal_matches_whole_array_verdicts(n):
    # budgets a hair past and short of the positive parts' total, so that
    # moving one entry by 1e-4 breaks the case's shape but not the plan rule
    deltas = _deltas(n, 1)
    deltas[list(_edges(n))] = 1.0
    total = solvers._total(np.maximum(deltas, 0.0))
    for budget, case, by in ((total * (1 + 1e-12), ns.L1Case.SURPLUS, -1e-4), (total * (1 - 1e-12), ns.L1Case.DEFICIT, 1e-4)):
        problem = ns.ContributionProblem(deltas, budget)
        family = ns.solve_l1(problem)
        assert family.case is case
        assert _l1(problem, family.particular)
        assert _l1(problem, ns.sample_l1_member(family, n))
        for i in _edges(n):
            broken = _broken(family.particular, i, by)
            assert solvers._plan_error(broken, budget) is None
            assert not _l1(problem, broken), (case, i)


def _peak_bytes(check, *args):
    tracemalloc.start()
    try:
        assert check(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("budget", [SPARSE, DENSE], ids=["sparse", "dense"])
def test_kkt_keeps_no_full_size_temporary(budget):
    problem = ns.ContributionProblem(_deltas(LARGE, 0), budget)
    solution = ns.solve_l2(problem)
    assert _peak_bytes(ns.kkt_check_l2, problem, solution.adjustments, solution.threshold) < 2 * 2**20


@pytest.mark.parametrize("budget", [1e8, 1e12], ids=["deficit", "surplus"])
def test_is_l1_optimal_keeps_one_full_size_array(budget):
    # the positive parts, which the case split sums as solve_l1 does
    problem = ns.ContributionProblem(_deltas(LARGE, 0), budget)
    particular = ns.solve_l1(problem).particular
    assert _peak_bytes(ns.is_l1_optimal, problem, particular) < 8 * LARGE + 2 * 2**20
