"""The vectorized numpy scans must agree with the pure-Python reference
loops in ``reference_kernels``."""

import numpy as np
import pytest

from nosell import ContributionProblem, solve_l2
from nosell.oracles import _active_set_scan, _grid_l1_scan

from helpers import MASTER_SEED
from reference_kernels import active_set_scan_loop, grid_l1_scan_loop, threshold_scan_loop

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


def test_active_set_pair_agreement():
    rng = np.random.default_rng(MASTER_SEED + 2)
    for trial in range(300):
        deltas, budget = _random_case(rng)
        m_loop, o_loop = active_set_scan_loop(deltas, budget, 1e-9)
        m_np, o_np = _active_set_scan(deltas, budget, 1e-9)
        msg = f"seed={MASTER_SEED + 2} trial={trial} deltas={deltas.tolist()} budget={budget!r}"
        assert m_loop == m_np, msg
        assert o_loop == pytest.approx(o_np, abs=1e-9), msg


def test_active_set_small_exact():
    deltas = np.array([3.0, 1.0, -2.0])
    m1, o1 = _active_set_scan(deltas, 2.0, 1e-9)
    m2, o2 = active_set_scan_loop(deltas, 2.0, 1e-9)
    assert (m1, o1) == (m2, o2)
    # mask 1 (only the largest delta active) wins with objective 6
    assert m1 == 0b001
    assert o1 == pytest.approx(6.0, abs=1e-12)


def test_active_set_numpy_chunk_boundary():
    # 17 assets -> 131071 masks -> more than one 2^16 chunk; the winning
    # support must match the closed-form solver
    rng = np.random.default_rng(MASTER_SEED + 4)
    deltas = rng.uniform(-10.0, 10.0, 17)
    budget = 12.5
    mask, _ = _active_set_scan(deltas, budget, 1e-9)
    members = [i for i in range(17) if mask >> i & 1]
    lam = (float(np.sum(deltas[members])) - budget) / len(members)
    candidate = np.zeros(17)
    candidate[members] = np.maximum(deltas[members] - lam, 0.0)
    solution = solve_l2(ContributionProblem(deltas, budget))
    np.testing.assert_allclose(candidate, solution.adjustments, atol=1e-9)


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
