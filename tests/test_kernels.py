"""The solvers, the oracles and the vectorized grid scan must agree with
the pure-Python reference loops in ``reference_kernels``."""

import warnings

import numpy as np
import pytest

from nosell import ContributionProblem, kkt_check_l2, solve_l2, solvers

from helpers import MASTER_SEED
from oracles import _grid_l1_scan, active_set_l2_oracle
from reference_kernels import active_set_scan_loop, grid_l1_scan_loop, threshold_scan_loop, water_fill_exact


def _random_case(rng, max_n=8):
    n = int(rng.integers(1, max_n + 1))
    deltas = rng.uniform(-10.0, 10.0, n)
    budget = float(20.0 * (1.0 - rng.random()))
    return deltas, budget


def _assert_threshold_scan_agreement():
    rng = np.random.default_rng(MASTER_SEED)
    for trial in range(300):
        deltas, budget = _random_case(rng)
        sorted_desc = np.ascontiguousarray(np.sort(deltas)[::-1])
        k_loop, lam_loop = threshold_scan_loop(sorted_desc, budget)
        solution = solve_l2(ContributionProblem(deltas, budget))
        msg = f"seed={MASTER_SEED} trial={trial} deltas={deltas.tolist()} budget={budget!r}"
        assert solution.active_count == k_loop, msg
        assert solution.threshold == pytest.approx(lam_loop, abs=1e-12), msg


def test_threshold_scan_pair_agreement():
    _assert_threshold_scan_agreement()


@pytest.mark.parametrize("max_rounds", [0, 1])
def test_threshold_scan_fallback_agreement(monkeypatch, max_rounds):
    # up to _SAMPLE assets one sorted scan is the whole solve, whatever the
    # round cap (test_threshold_scan_capped_fallback_above_the_sample
    # reaches the cap)
    scans = []
    prefix_scan = solvers._prefix_scan

    def counted(*args):
        scans.append(1)
        return prefix_scan(*args)

    monkeypatch.setattr(solvers, "_MAX_ROUNDS", max_rounds)
    monkeypatch.setattr(solvers, "_prefix_scan", counted)
    _assert_threshold_scan_agreement()
    if max_rounds == 0:
        assert len(scans) == 300
    else:
        assert scans


def _assert_matches_loop(deltas, budget, msg):
    problem = ContributionProblem(deltas, budget)
    solution = solve_l2(problem)
    k_loop, lam_loop = threshold_scan_loop(np.ascontiguousarray(np.sort(deltas)[::-1]), budget)
    assert solution.active_count == k_loop, msg
    assert solution.threshold == pytest.approx(lam_loop, rel=1e-12, abs=1e-12), msg
    assert kkt_check_l2(problem, solution.adjustments, solution.threshold), msg


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_threshold_scan_at_the_sample_size(offset):
    # up to _SAMPLE assets the sorted sample is the whole vector and its
    # scan is the answer; one asset more and it samples every second gap
    n = solvers._SAMPLE + offset
    seed = MASTER_SEED + 110 + offset
    rng = np.random.default_rng(seed)
    deltas = rng.uniform(-10.0, 10.0, n)
    for budget in 10.0 ** rng.uniform(-6.0, 6.0, 8):
        _assert_matches_loop(deltas, float(budget), f"seed={seed} n={n} budget={budget!r}")


@pytest.mark.parametrize("max_rounds", [0, 1])
def test_threshold_scan_capped_fallback_above_the_sample(monkeypatch, max_rounds):
    # above _SAMPLE assets _prefix_scan runs only in the fallback past the
    # round cap, on the sorted live gaps
    scans = []
    prefix_scan = solvers._prefix_scan

    def counted(ascending, budget):
        scans.append(ascending.size)
        return prefix_scan(ascending, budget)

    monkeypatch.setattr(solvers, "_MAX_ROUNDS", max_rounds)
    monkeypatch.setattr(solvers, "_prefix_scan", counted)
    seed = MASTER_SEED + 114
    rng = np.random.default_rng(seed)
    n = 3 * solvers._SAMPLE + 7
    for trial in range(6):
        deltas = rng.uniform(-10.0, 10.0, n)
        budget = float(10.0 ** rng.uniform(-3.0, 5.0))
        _assert_matches_loop(deltas, budget, f"seed={seed} trial={trial} budget={budget!r}")
    if max_rounds == 0:
        assert len(scans) == 6
    else:
        assert scans


@pytest.mark.parametrize("top", ["sampled", "unsampled"])
def test_threshold_scan_sample_placement(monkeypatch, top):
    # every sampled (step-th) gap lies in [0, 10], every other one in
    # [9, 20], or the other way round.  When the sample holds the small
    # gaps it sees more of them than the vector has, so its cut falls
    # short of t and the subset bound cuts again; when it misses them, its
    # cut is too high, which the bound accepts at once.  Budget 51200
    # funds about half of the gaps, and the cuts take the dense route;
    # budget 5 funds a few dozen, and the sample predicts the sparse
    # route.  That holds when the sample holds the small gaps; when it
    # misses them, nine gaps in ten lie below its cut, and the sparse route
    # still answers at that cut: the sample's route is final
    cuts = []

    def spy(name):
        helper = getattr(solvers, name)

        def recorded(*args):
            found = helper(*args)
            cuts.append((name, args[-1], found is not None))
            return found

        monkeypatch.setattr(solvers, name, recorded)

    spy("_candidates")
    spy("_below")
    seed = MASTER_SEED + 115
    rng = np.random.default_rng(seed)
    step = 10
    n = step * solvers._SAMPLE
    small, large = rng.uniform(0.0, 10.0, n), rng.uniform(9.0, 20.0, n)
    gaps = large.copy() if top == "sampled" else small.copy()
    gaps[::step] = (small if top == "sampled" else large)[::step]
    for budget, route in ((51200.0, "_below"), (5.0, "_candidates")):
        cuts.clear()
        _assert_matches_loop(-gaps, budget, f"seed={seed} top={top} budget={budget!r}")
        routes = [(name, found) for name, _, found in cuts]
        if top == "sampled":
            assert routes == [(route, True)] * 2, cuts
            assert cuts[0][1] < cuts[1][1], cuts
        elif route == "_below":
            assert routes == [(route, True)], cuts
        else:
            assert routes == [("_candidates", True)], cuts


@pytest.mark.parametrize("n", [solvers._SAMPLE // 2, 2 * solvers._SAMPLE + 3])
def test_threshold_scan_huge_gaps_warn_nothing(n):
    # gaps between deltas of opposite sign near 1e308 overflow to inf, in
    # the sorted sample and in the scan of the whole vector
    seed = MASTER_SEED + 116
    rng = np.random.default_rng(seed)
    for budget in (1.0, 1e300):
        deltas = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5e308, 1.7e308, n)
        problem = ContributionProblem(deltas, budget)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = solve_l2(problem)
            assert kkt_check_l2(problem, solution.adjustments, solution.threshold), f"seed={seed} n={n}"
        assert solution.active_count == np.count_nonzero(solution.adjustments), f"seed={seed} n={n}"


@pytest.mark.parametrize("kind", ["near_2_53", "near_float_max", "clustered"])
def test_threshold_scan_sparse_cuts_at_rounding_boundaries(kind):
    # budgets that fund a few dozen of n assets, so the sample places its
    # cut among the smallest gaps.  Near 2^53 the deltas are integers (even
    # ones above 2^53), so max(d) - cut rounds for a fractional budget or an
    # odd gap; near +-1e308 the gaps between deltas of opposite sign
    # overflow; clustered deltas 1000 +- 1e-3 have gaps near 1e-7
    seed = MASTER_SEED + 117
    rng = np.random.default_rng(seed)
    n = 3 * solvers._SAMPLE + 7
    if kind == "near_2_53":
        deltas = 2.0**53 + rng.uniform(-3000.0, 3000.0, n)
        budgets = [0.3, 1.5, 2.5] + list(10.0 ** rng.uniform(0.0, 3.0, 3))
    elif kind == "near_float_max":
        deltas = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5e308, 1.7e308, n)
        budgets = [1.0] + list(10.0 ** rng.uniform(300.0, 307.0, 5))
    else:
        deltas = 1000.0 + rng.uniform(-1e-3, 1e-3, n)
        budgets = list(10.0 ** rng.uniform(-9.0, -4.0, 6))
    for budget in budgets:
        msg = f"seed={seed} kind={kind} budget={budget!r}"
        problem = ContributionProblem(deltas, budget)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = solve_l2(problem)
            assert kkt_check_l2(problem, solution.adjustments, solution.threshold), msg
        exact, _ = water_fill_exact(deltas, budget)
        exact = np.array([float(x) for x in exact])
        assert solution.active_count == np.count_nonzero(exact) <= n // 64, msg
        assert float(np.max(np.abs(solution.adjustments - exact))) <= 1e-12 * budget, msg


@pytest.mark.parametrize("kind", ["uniform", "all_equal", "integers"])
def test_threshold_scan_sample_budget_rounds_to_zero(monkeypatch, kind):
    # above _SAMPLE assets the sample scan takes the budget times the
    # sample's share; here 5e-324 scales to 0 and 1e-320 stays subnormal
    budgets = []
    prefix_count = solvers._prefix_count

    def recorded(ascending, budget):
        budgets.append(budget)
        return prefix_count(ascending, budget)

    monkeypatch.setattr(solvers, "_prefix_count", recorded)
    seed = MASTER_SEED + 118
    rng = np.random.default_rng(seed)
    n = 3 * solvers._SAMPLE + 7
    if kind == "uniform":
        deltas = rng.uniform(-10.0, 10.0, n)
    elif kind == "all_equal":
        deltas = np.full(n, 3.0)
    else:
        deltas = rng.integers(-50, 50, n).astype(np.float64)
    for budget in (5e-324, 1e-320):
        msg = f"seed={seed} kind={kind} budget={budget!r}"
        problem = ContributionProblem(deltas, budget)
        solution = solve_l2(problem)
        assert kkt_check_l2(problem, solution.adjustments, solution.threshold), msg
        exact, _ = water_fill_exact(deltas, budget)
        assert solution.adjustments.tolist() == [float(x) for x in exact], msg
    assert budgets[0] == 0.0 < budgets[-1], budgets


def _starving_levels(count, unit, bump=1e-12):
    """``count`` gap levels, the first 0, each set just above the point at
    which a Michelot round over levels 1..m would drop level m - 1 as well
    as level m; every level repeated the same number of times, with
    ``unit`` the budget per repeat.  Without the t* <= budget cut, Michelot
    drops one level per round."""
    levels, total, t = [0.0], 0.0, unit
    for m in range(2, count + 1):
        level = max(t, m * levels[-1] - (m - 1) * t) * (1.0 + bump)
        levels.append(level)
        total += level
        t = (total + unit) / m
    return np.array(levels)


def _adversarial_case(name):
    if name == "levels_one_each":
        return -_starving_levels(171, 1.0), 1.0
    if name == "levels_5847_each":
        return -np.repeat(_starving_levels(171, 1.0), 5847), 5847.0
    geometric = -np.repeat(2.0 ** np.arange(40), 25_000)
    if name == "geometric_budget_1":
        return geometric, 1.0
    if name == "geometric_budget_1e9":
        return geometric, 1e9
    if name == "ramp":
        return np.arange(1e6), 1e9
    return np.full(1_000_000, 7.0), 1e-300


@pytest.mark.parametrize(
    "name",
    [
        "levels_one_each",
        "levels_5847_each",
        "geometric_budget_1",
        "geometric_budget_1e9",
        "ramp",
        "all_equal",
    ],
)
def test_threshold_scan_adversarial_shapes(name):
    deltas, budget = _adversarial_case(name)
    problem = ContributionProblem(deltas, budget)
    solution = solve_l2(problem)
    assert kkt_check_l2(problem, solution.adjustments, solution.threshold), name
    k_loop, _ = threshold_scan_loop(np.ascontiguousarray(np.sort(deltas)[::-1]), budget)
    assert solution.active_count == k_loop, name


def test_threshold_scan_prefix_structure():
    # the satisfying k form a prefix: lhs(k) is non-decreasing
    rng = np.random.default_rng(MASTER_SEED + 1)
    for _ in range(100):
        deltas, budget = _random_case(rng)
        sorted_desc = np.ascontiguousarray(np.sort(deltas)[::-1])
        prefix = np.cumsum(sorted_desc)
        ks = np.arange(1, deltas.size + 1)
        lhs = prefix - ks * sorted_desc
        assert np.all(np.diff(lhs) >= -1e-9)
        k_star = solve_l2(ContributionProblem(deltas, budget)).active_count
        assert bool(lhs[k_star - 1] < budget)
        if k_star < deltas.size:
            assert not bool(lhs[k_star] < budget)


def _support_candidate(deltas, budget, mask):
    members = [i for i in range(deltas.size) if mask >> i & 1]
    lam = (float(np.sum(deltas[members])) - budget) / len(members)
    candidate = np.zeros(deltas.size)
    candidate[members] = np.maximum(deltas[members] - lam, 0.0)
    return candidate


def test_active_set_pair_agreement():
    rng = np.random.default_rng(MASTER_SEED + 2)
    for trial in range(300):
        deltas, budget = _random_case(rng)
        m_loop, o_loop = active_set_scan_loop(deltas, budget, 1e-9)
        report = active_set_l2_oracle(ContributionProblem(deltas, budget))
        msg = f"seed={MASTER_SEED + 2} trial={trial} deltas={deltas.tolist()} budget={budget!r}"
        assert o_loop == pytest.approx(report.best_objective, abs=1e-9), msg
        np.testing.assert_allclose(
            _support_candidate(deltas, budget, m_loop), report.best_candidate, atol=1e-9, err_msg=msg
        )


def test_active_set_small_exact():
    deltas = np.array([3.0, 1.0, -2.0])
    m, o = active_set_scan_loop(deltas, 2.0, 1e-9)
    # mask 1 (only the largest delta active) wins with objective 6
    assert m == 0b001
    assert o == pytest.approx(6.0, abs=1e-12)
    report = active_set_l2_oracle(ContributionProblem(deltas, 2.0))
    assert report.best_candidate.tolist() == _support_candidate(deltas, 2.0, m).tolist()
    assert report.best_objective == pytest.approx(o, abs=1e-12)


def test_active_set_oracle_matches_solver_at_n17():
    # 131071 supports, the largest enumeration in the suite: the oracle's
    # winner must match the closed-form solver
    rng = np.random.default_rng(MASTER_SEED + 4)
    deltas = rng.uniform(-10.0, 10.0, 17)
    budget = 12.5
    report = active_set_l2_oracle(ContributionProblem(deltas, budget))
    solution = solve_l2(ContributionProblem(deltas, budget))
    np.testing.assert_allclose(report.best_candidate, solution.adjustments, atol=1e-9)


def test_grid_pair_agreement():
    rng = np.random.default_rng(MASTER_SEED + 3)
    for trial in range(200):
        deltas, budget = _random_case(rng, max_n=4)
        resolution = int(rng.integers(1, 60))
        c_loop, o_loop = grid_l1_scan_loop(deltas, budget, resolution)
        c_np, o_np = _grid_l1_scan(deltas, budget, resolution)
        msg = (
            f"seed={MASTER_SEED + 3} trial={trial} deltas={deltas.tolist()} "
            f"budget={budget!r} resolution={resolution}"
        )
        # tie-breaking between equal-cost compositions may differ; the
        # minima must not
        assert o_loop == pytest.approx(o_np, abs=1e-9), msg
        step = budget / resolution
        for cells, obj in ((c_loop, o_loop), (c_np, o_np)):
            assert cells.sum() == resolution, msg
            assert np.all(cells >= 0), msg
            recomputed = float(np.sum(np.abs(cells * step - deltas)))
            assert obj == pytest.approx(recomputed, abs=1e-9), msg


def test_grid_single_asset():
    cells, obj = grid_l1_scan_loop(np.array([4.0]), 2.0, 17)
    assert cells.tolist() == [17]
    assert obj == pytest.approx(2.0, abs=1e-12)
    cells, obj = _grid_l1_scan(np.array([4.0]), 2.0, 17)
    assert cells.tolist() == [17]
    assert obj == pytest.approx(2.0, abs=1e-12)


def test_grid_candidate_count_matches_compositions():
    # count candidates via a shim around the loop's odometer
    import math

    deltas = np.array([0.3, -0.2, 0.1])
    resolution = 9
    seen = set()
    n = deltas.size
    head = [0] * (n - 1)
    used = 0
    while True:
        seen.add(tuple(head) + (resolution - used,))
        j = n - 2
        while j >= 0:
            if used < resolution:
                head[j] += 1
                used += 1
                break
            used -= head[j]
            head[j] = 0
            j -= 1
        if j < 0:
            break
    assert len(seen) == math.comb(resolution + n - 1, n - 1)
