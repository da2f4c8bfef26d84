"""Pure-Python reference forms of the solvers' and the oracles' scans.

Plain scalar loops, written independently of the vectorized code in
``nosell.solvers`` and in the tests' ``oracles`` module so the tests can
cross-check the two.  They take contiguous float64 arrays.

Last, the two optimality certificates in their whole-array form, which
the blocked ones must match verdict for verdict.
"""

import math
from fractions import Fraction

import numpy as np

from nosell.solvers import FEAS_TOL, _check_length, _plan_error, _to_float, _total


def threshold_scan_loop(sorted_desc, budget):
    """Scan a descending delta vector for the largest prefix length k with

        sum_{i<=k} (d_i - d_k) < budget            (strict inequality)

    and return ``(k, lam)`` where ``lam = (sum_{i<=k} d_i - budget) / k``.

    The left-hand side is non-decreasing in k, so the qualifying set is a
    prefix; we keep the last index that qualifies.  The comparison is exact
    on purpose: no tolerance is involved in selecting k.
    """
    n = sorted_desc.shape[0]
    running = sorted_desc[0]
    best_k = 1
    best_sum = running
    for k in range(2, n + 1):
        d = sorted_desc[k - 1]
        running += d
        if running - k * d < budget:
            best_k = k
            best_sum = running
    return best_k, (best_sum - budget) / best_k


def active_set_scan_loop(deltas, budget, tol):
    """Enumerate all 2^n - 1 nonempty support sets for the equality-
    constrained l2 problem and return ``(best_mask, best_objective)``.

    For support S the stationary point is ``y_i = d_i - lam_S`` on S and 0
    elsewhere, with ``lam_S = (sum_S d - budget) / |S|``.  It is feasible
    when ``min_S d - lam_S >= -tol``.  The objective at the stationary
    point collapses to ``|S| lam_S^2 + (sum d^2 - sum_S d^2)``, so the scan
    never materializes candidate vectors.
    """
    n = deltas.shape[0]
    total_sq = 0.0
    for i in range(n):
        total_sq += deltas[i] * deltas[i]
    best_mask = 0
    best_obj = np.inf
    for mask in range(1, 1 << n):
        s1 = 0.0
        s2 = 0.0
        mn = np.inf
        count = 0
        m = mask
        i = 0
        while m:
            if m & 1:
                d = deltas[i]
                s1 += d
                s2 += d * d
                if d < mn:
                    mn = d
                count += 1
            m >>= 1
            i += 1
        lam = (s1 - budget) / count
        if mn - lam < -tol:
            continue
        obj = count * lam * lam + (total_sq - s2)
        if obj < best_obj:
            best_obj = obj
            best_mask = mask
    return best_mask, best_obj


def grid_l1_scan_loop(deltas, budget, resolution):
    """Enumerate every composition of ``resolution`` grid cells into n parts
    and return ``(best_cells, best_objective)`` for the l1 objective
    ``sum |c_i * step - d_i|`` with ``step = budget / resolution``.

    The odometer walks the first n-1 counts; the last part absorbs the
    remainder, so every candidate satisfies the budget exactly in grid
    units.
    """
    n = deltas.shape[0]
    step = budget / resolution
    best = np.zeros(n, dtype=np.int64)
    if n == 1:
        best[0] = resolution
        return best, abs(resolution * step - deltas[0])
    head = np.zeros(n - 1, dtype=np.int64)
    used = 0
    best_obj = np.inf
    while True:
        obj = abs((resolution - used) * step - deltas[n - 1])
        for j in range(n - 1):
            obj += abs(head[j] * step - deltas[j])
        if obj < best_obj:
            best_obj = obj
            for j in range(n - 1):
                best[j] = head[j]
            best[n - 1] = resolution - used
        j = n - 2
        while j >= 0:
            # invariant: head[j+1:] is zero, so used == sum(head[:j+1])
            if used < resolution:
                head[j] += 1
                used += 1
                break
            used -= head[j]
            head[j] = 0
            j -= 1
        if j < 0:
            return best, best_obj


def water_fill_exact(deltas, budget):
    """Exact l2 plan in rational arithmetic: ``(plan, lam)`` as lists of
    ``fractions.Fraction``.

    Same threshold rule as ``threshold_scan_loop``, over the exact values
    of the float64 inputs, so no step rounds: k is the largest prefix of
    the descending deltas with ``sum_{i<=k} (d_i - d_k) < budget``,
    ``lam = (sum_{i<=k} d_i - budget) / k`` and ``plan_i = max(d_i - lam, 0)``.
    """
    exact = [Fraction(float(d)) for d in deltas]
    y = Fraction(float(budget))
    running = Fraction(0)
    best_k, best_sum = 0, Fraction(0)
    for k, d in enumerate(sorted(exact, reverse=True), start=1):
        running += d
        if running - k * d < y:
            best_k, best_sum = k, running
    lam = (best_sum - y) / best_k
    return [max(d - lam, Fraction(0)) for d in exact], lam


def kkt_check_l2_whole(problem, candidate, threshold):
    """``solvers.kkt_check_l2`` as it tested whole arrays: the same
    verdicts, from full-size masks and gathers, with the slack scaled by
    the funded side: |max(deltas)| and |threshold|."""
    cand = _check_length(problem, candidate)
    threshold = _to_float(threshold)
    if _plan_error(cand, problem.budget) is not None or not math.isfinite(threshold):
        return False
    scale = max(abs(float(np.max(problem.deltas))), abs(threshold))
    tol = FEAS_TOL + 4.0 * math.ulp(scale)
    positive = cand > FEAS_TOL
    with np.errstate(over="ignore"):
        if np.any(np.abs(cand[positive] - (problem.deltas[positive] - threshold)) > tol):
            return False
    return bool(np.all(problem.deltas[~positive] <= threshold + tol))


def is_l1_optimal_whole(problem, candidate):
    """``solvers.is_l1_optimal`` as it tested whole arrays: the same
    verdicts, from a full-size difference and mask."""
    cand = _check_length(problem, candidate)
    if _plan_error(cand, problem.budget) is not None:
        return False
    pos = problem.positive_parts()
    tol = FEAS_TOL + 4.0 * math.ulp(max(float(pos.max()), problem.budget))
    if problem.budget > _total(pos):
        return bool(np.all(pos - cand <= tol))
    return bool(np.all(cand - pos <= tol))
