"""Property-based differential tests over the whole float64 range.

hypothesis draws short delta lists anywhere in +-1e300, subnormals
included, and budgets from 1e-300 to 1e300.  Every l2 plan must match the
exact water-filling plan (Fraction arithmetic) and pass kkt_check_l2.
Runs are derandomized, so tier-1 stays deterministic.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nosell as ns
from nosell import solvers

from reference_kernels import water_fill_exact

EPS = 2.0 ** -52
MAX_N = 12

DELTAS = st.lists(st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True), min_size=1, max_size=MAX_N)
BUDGETS = st.floats(min_value=1e-300, max_value=1e300)


@pytest.mark.parametrize("sample", [solvers._SAMPLE, 2, 4])
def test_l2_matches_exact_water_filling(monkeypatch, sample):
    # a sample of 2 or 4 sends short lists through the sparse and dense
    # routes; the default sends them through the one scan
    monkeypatch.setattr(solvers, "_SAMPLE", sample)
    routes = {"sparse": 0, "dense": 0}
    for route, name in (("sparse", "_candidates"), ("dense", "_below")):
        monkeypatch.setattr(solvers, name, _counted(routes, route, getattr(solvers, name)))

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(deltas=DELTAS, budget=BUDGETS)
    def check(deltas, budget):
        problem = ns.ContributionProblem(deltas, budget)
        solution = ns.solve_l2(problem)
        exact, _ = water_fill_exact(deltas, budget)
        bound = 8 * len(deltas) * Fraction(EPS) * Fraction(budget)
        assert max(abs(Fraction(float(a)) - x) for a, x in zip(solution.adjustments, exact)) <= bound
        assert ns.kkt_check_l2(problem, solution.adjustments, solution.threshold)

    check()
    if sample >= MAX_N:
        assert routes == {"sparse": 0, "dense": 0}
    else:
        assert routes["sparse"] and routes["dense"], routes


def _counted(routes, route, cut_at):
    def counted(*args):
        routes[route] += 1
        return cut_at(*args)

    return counted
