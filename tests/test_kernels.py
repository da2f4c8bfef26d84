"""The solvers, the oracles and the vectorized grid scan must agree with
the pure-Python reference loops in ``reference_kernels``."""

import numpy as np
import pytest

from nosell import ContributionProblem, active_set_l2_oracle, solve_l2
from nosell.oracles import _grid_l1_scan

from helpers import MASTER_SEED
from reference_kernels import active_set_scan_loop, grid_l1_scan_loop, threshold_scan_loop


def _random_case(rng, max_n=8):
    n = int(rng.integers(1, max_n + 1))
    deltas = rng.uniform(-10.0, 10.0, n)
    budget = float(20.0 * (1.0 - rng.random()))
    return deltas, budget


def test_threshold_scan_pair_agreement():
    rng = np.random.default_rng(MASTER_SEED)
    for trial in range(300):
        deltas, budget = _random_case(rng)
        sorted_desc = np.ascontiguousarray(np.sort(deltas)[::-1])
        k_loop, lam_loop = threshold_scan_loop(sorted_desc, budget)
        solution = solve_l2(ContributionProblem(deltas, budget))
        msg = f"seed={MASTER_SEED} trial={trial} deltas={deltas.tolist()} budget={budget!r}"
        assert solution.active_count == k_loop, msg
        assert solution.threshold == pytest.approx(lam_loop, abs=1e-12), msg


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
