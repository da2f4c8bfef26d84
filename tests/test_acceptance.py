"""Acceptance gate.

One test per acceptance criterion, named test_c<N>_*; run

    pytest tests/test_acceptance.py -v

to get one PASS/FAIL line per criterion.  Criterion 7 (the property
suite) is itemized as test_c7a..test_c7g, one line per property.
Tolerances are pinned here and must not be loosened: 1e-9 for solver vs
oracle agreement, 1e-12 for the fixed-point and alpha checks, exact
comparisons where stated.
"""

import json
import time

import numpy as np
import pytest

import nosell as ns

from helpers import MASTER_SEED, describe, instance_stream
from oracles import active_set_l2_oracle, grid_l1_oracle, l1_objective, l1_optimal_value, l2_objective

WORKED_HEAD = (900.0, 650.0, 250.0)
INSTANCE_COUNT = 1000
PROPERTY_COUNT = 500


def _timed_best(func, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def instances():
    # the shared >= 1000 seeded instances used by criteria 4, 5 and 6
    return list(instance_stream(INSTANCE_COUNT, seed=MASTER_SEED))


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # pull first-call costs (imports, numpy dispatch setup) out of the timed sections
    problem = ns.ContributionProblem([3.0, 1.0, -2.0], 2.0)
    ns.solve_l2(problem)
    active_set_l2_oracle(problem)
    grid_l1_oracle(problem, 4)
    ns.solve_l2(ns.ContributionProblem(np.arange(1000.0) - 500.0, 10.0))


# criterion 1: worked five-asset l2 example, exact certificate, < 1 ms -------------------

def test_c1_worked_l2_exact_and_fast():
    tails = [(-300.0, -500.0), (-400.0, -400.0), (0.0, -800.0), (200.0, -1000.0), (274.0, -1074.0)]
    for tail in tails:
        deltas = WORKED_HEAD + tail
        problem = ns.ContributionProblem(deltas, 1000.0)
        solution = ns.solve_l2(problem)
        assert solution.active_count == 2, f"tail={tail}"
        assert solution.threshold == 275.0, f"tail={tail}"  # exact: (900+650-1000)/2
        np.testing.assert_allclose(
            solution.adjustments, [625.0, 375.0, 0.0, 0.0, 0.0], atol=1e-9,
            err_msg=f"tail={tail}",
        )
    problem = ns.ContributionProblem(WORKED_HEAD + (-300.0, -500.0), 1000.0)
    runtime = _timed_best(lambda: ns.solve_l2(problem))
    assert runtime < 1e-3, f"solve_l2 took {runtime * 1e6:.1f} us"
    print(f"PASS c1: k*=2, lambda*=275.0 exact for all tails; {runtime * 1e6:.1f} us/solve")


# criterion 2: worked five-asset l1 example ----------------------------------------------

def test_c2_worked_l1_exact_and_fast():
    problem = ns.ContributionProblem(WORKED_HEAD + (-300.0, -500.0), 1000.0)
    family = ns.solve_l1(problem)
    assert family.case is ns.L1Case.DEFICIT
    assert abs(family.scale - 5.0 / 9.0) < 1e-12
    np.testing.assert_allclose(
        family.particular, [500.0, 3250.0 / 9.0, 1250.0 / 9.0, 0.0, 0.0], atol=1e-9
    )
    runtime = _timed_best(lambda: ns.solve_l1(problem))
    assert runtime < 1e-3, f"solve_l1 took {runtime * 1e6:.1f} us"
    print(f"PASS c2: deficit, alpha=5/9 within 1e-12; {runtime * 1e6:.1f} us/solve")


# criterion 3: lava fixed point ----------------------------------------------

def test_c3_lava_fixed_point():
    lava = np.array(
        [0.4631, 0.1418, 0.1232, 0.1274, 0.0962, 0.0251,
         0.0034, 0.0153, 0.0016, 0.0018, 0.0011]
    )
    theta = ns.simplex_mle(lava)
    err = float(np.max(np.abs(theta - lava)))
    total = float(np.sum(theta))
    assert err < 1e-12, f"componentwise error {err}"
    assert abs(total - 1.0) < 1e-12, f"sum {total!r}"
    print(f"PASS c3: max componentwise error {err:.2e}, sum deviation {abs(total - 1.0):.2e}")


# criterion 4: oracle equivalence on 1000 instances in < 30 s -----------------

def test_c4_oracle_equivalence(instances):
    start = time.perf_counter()
    failures = []
    for i, problem in instances:
        solution = ns.solve_l2(problem)
        report = active_set_l2_oracle(problem)
        candidate_gap = float(np.max(np.abs(solution.adjustments - report.best_candidate)))
        objective_gap = abs(
            l2_objective(problem, solution.adjustments) - report.best_objective
        )
        if candidate_gap > 1e-9 or objective_gap > 1e-9:
            failures.append((describe(i, problem), candidate_gap, objective_gap))
    elapsed = time.perf_counter() - start
    assert not failures, f"{len(failures)} mismatches, first: {failures[:3]}"
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f} s"
    print(f"PASS c4: {len(instances)} instances, zero mismatches at 1e-9, {elapsed:.1f} s")


# criterion 5: l1 value identities plus grid slack bound ----------------------

def test_c5_l1_value_identities_and_grid(instances):
    resolution = 200
    grid_checked = 0
    for i, problem in instances:
        family = ns.solve_l1(problem)
        optimum = l1_optimal_value(problem)
        particular_value = l1_objective(problem, family.particular)
        assert abs(particular_value - optimum) <= 1e-9, describe(i, problem)
        if problem.n <= 4:
            report = grid_l1_oracle(problem, resolution)
            slack = 2.0 * problem.n * problem.budget / resolution
            assert report.best_objective >= optimum - 1e-9, describe(i, problem)
            assert report.best_objective <= optimum + slack, describe(i, problem)
            grid_checked += 1
    assert grid_checked > 0
    print(f"PASS c5: value identity on {len(instances)} instances, grid bound on {grid_checked}")


# criterion 6: 100 family members per instance --------------------------------

def test_c6_family_soundness(instances):
    for i, problem in instances:
        family = ns.solve_l1(problem)
        optimum = l1_optimal_value(problem)
        rng = np.random.default_rng(MASTER_SEED + 1_000_000 + i)
        for j in range(100):
            member = ns.sample_l1_member(family, rng)
            assert ns.is_l1_optimal(problem, member), f"{describe(i, problem)} member={j}"
            value = l1_objective(problem, member)
            assert abs(value - optimum) <= 1e-9, (
                f"{describe(i, problem)} member={j} value={value!r} optimum={optimum!r}"
            )
    print(f"PASS c6: 100 members x {len(instances)} instances all optimal within 1e-9")


# criterion 7: property suite, one test per property ---------------------------

def test_c7a_budget_conservation():
    for i, problem in instance_stream(PROPERTY_COUNT, seed=MASTER_SEED + 51):
        tol = ns.sum_tolerance(problem.budget)
        msg = describe(i, problem, MASTER_SEED + 51)
        l2_total = float(np.sum(ns.solve_l2(problem).adjustments))
        assert abs(l2_total - problem.budget) <= tol, msg
        family = ns.solve_l1(problem)
        assert abs(float(np.sum(family.particular)) - problem.budget) <= tol, msg
        rng = np.random.default_rng(MASTER_SEED + 52 + i)
        member = ns.sample_l1_member(family, rng)
        assert abs(float(np.sum(member)) - problem.budget) <= tol, msg
    print(f"PASS c7a: budget conservation on {PROPERTY_COUNT} instances")


def test_c7b_nonnegativity():
    for i, problem in instance_stream(PROPERTY_COUNT, seed=MASTER_SEED + 53):
        msg = describe(i, problem, MASTER_SEED + 53)
        assert np.all(ns.solve_l2(problem).adjustments >= 0.0), msg
        family = ns.solve_l1(problem)
        assert np.all(family.particular >= 0.0), msg
        member = ns.sample_l1_member(family, np.random.default_rng(MASTER_SEED + 54 + i))
        assert np.all(member >= 0.0), msg
    print(f"PASS c7b: nonnegativity on {PROPERTY_COUNT} instances")


def test_c7c_order_equivariance():
    rng = np.random.default_rng(MASTER_SEED + 55)
    for i, problem in instance_stream(PROPERTY_COUNT, seed=MASTER_SEED + 56):
        perm = rng.permutation(problem.n)
        permuted = ns.ContributionProblem(problem.deltas[perm], problem.budget)
        base = ns.solve_l2(problem).adjustments
        shuffled = ns.solve_l2(permuted).adjustments
        np.testing.assert_array_equal(
            shuffled, base[perm], err_msg=describe(i, problem, MASTER_SEED + 56)
        )
    print(f"PASS c7c: order equivariance on {PROPERTY_COUNT} instances")


def test_c7d_translation_invariance():
    rng = np.random.default_rng(MASTER_SEED + 57)
    for i, problem in instance_stream(PROPERTY_COUNT, seed=MASTER_SEED + 58):
        shift = float(rng.uniform(-5.0, 5.0))
        shifted = ns.ContributionProblem(problem.deltas + shift, problem.budget)
        base = ns.solve_l2(problem)
        moved = ns.solve_l2(shifted)
        msg = f"{describe(i, problem, MASTER_SEED + 58)} shift={shift!r}"
        np.testing.assert_allclose(moved.adjustments, base.adjustments, atol=1e-9, err_msg=msg)
        assert abs(moved.threshold - (base.threshold + shift)) <= 1e-9, msg
    print(f"PASS c7d: translation invariance on {PROPERTY_COUNT} instances")


def test_c7e_monotonicity():
    for i, problem in instance_stream(PROPERTY_COUNT, seed=MASTER_SEED + 59):
        adjustments = ns.solve_l2(problem).adjustments
        order = np.argsort(problem.deltas, kind="stable")
        assert np.all(np.diff(adjustments[order]) >= 0.0), describe(i, problem, MASTER_SEED + 59)
    print(f"PASS c7e: monotonicity on {PROPERTY_COUNT} instances")


def test_c7f_feasible_naive_fixed_point():
    rng = np.random.default_rng(MASTER_SEED + 60)
    for trial in range(PROPERTY_COUNT):
        n = int(rng.integers(1, 9))
        msg = f"seed={MASTER_SEED + 60} trial={trial}"
        if trial % 2 == 0:
            # integer deltas sum exactly in float64: the fixed point is exact
            deltas = rng.integers(1, 100, n).astype(np.float64)
            problem = ns.ContributionProblem(deltas, float(np.sum(deltas)))
            np.testing.assert_array_equal(ns.solve_l2(problem).adjustments, deltas, err_msg=msg)
            np.testing.assert_array_equal(ns.solve_l1(problem).particular, deltas, err_msg=msg)
        else:
            deltas = rng.uniform(0.01, 10.0, n)
            problem = ns.ContributionProblem(deltas, float(np.sum(deltas)))
            np.testing.assert_allclose(
                ns.solve_l2(problem).adjustments, deltas, atol=1e-9, err_msg=msg
            )
            family = ns.solve_l1(problem)
            assert family.case is ns.L1Case.DEFICIT, msg
            np.testing.assert_allclose(family.particular, deltas, atol=1e-9, err_msg=msg)
    print(f"PASS c7f: feasible-naive fixed point on {PROPERTY_COUNT} instances")


def test_c7g_simplex_mle_idempotence():
    rng = np.random.default_rng(MASTER_SEED + 61)
    for trial in range(PROPERTY_COUNT):
        n = int(rng.integers(1, 13))
        observations = rng.uniform(-2.0, 2.0, n)
        theta = ns.simplex_mle(observations)
        again = ns.simplex_mle(theta)
        np.testing.assert_allclose(
            again, theta, atol=1e-12, err_msg=f"seed={MASTER_SEED + 61} trial={trial}"
        )
    print(f"PASS c7g: simplex_mle idempotence on {PROPERTY_COUNT} instances")


# criterion 8: CLI golden run, byte-identical ---------------------------------

GOLDEN_CSV = """\
id,value,target
growth,1850,0.25
income,2100,0.25
intl,2500,0.25
bonds,1675,0.125
cash,1875,0.125
"""


GOLDEN_L2_JSON = """\
{
  "norm": "l2",
  "budget": 1000.0,
  "certificate": {
    "k_star": 2,
    "lambda_star": 275.0
  },
  "assets": [
    {
      "id": "growth",
      "value": 1850.0,
      "target": 0.25,
      "naive": 900.0,
      "adjustment": 625.0,
      "adjustment_cents": 62500,
      "final_allocation": 0.225
    },
    {
      "id": "income",
      "value": 2100.0,
      "target": 0.25,
      "naive": 650.0,
      "adjustment": 375.0,
      "adjustment_cents": 37500,
      "final_allocation": 0.225
    },
    {
      "id": "intl",
      "value": 2500.0,
      "target": 0.25,
      "naive": 250.0,
      "adjustment": 0.0,
      "adjustment_cents": 0,
      "final_allocation": 0.2272727273
    },
    {
      "id": "bonds",
      "value": 1675.0,
      "target": 0.125,
      "naive": -300.0,
      "adjustment": 0.0,
      "adjustment_cents": 0,
      "final_allocation": 0.1522727273
    },
    {
      "id": "cash",
      "value": 1875.0,
      "target": 0.125,
      "naive": -500.0,
      "adjustment": 0.0,
      "adjustment_cents": 0,
      "final_allocation": 0.1704545455
    }
  ]
}
"""

GOLDEN_L2_TABLE = """\
asset     value  current  target   naive     buy  final
------  -------  -------  ------  ------  ------  -----
growth   $1,850      18%     25%    $900    $625    22%
income   $2,100      21%     25%    $650    $375    22%
intl     $2,500      25%     25%    $250      $0    23%
bonds    $1,675      17%     12%   -$300      $0    15%
cash     $1,875      19%     12%   -$500      $0    17%
------  -------  -------  ------  ------  ------  -----
total   $10,000     100%    100%  $1,000  $1,000   100%

contribution $1,000 allocated under l2; k* = 2, lambda* = 275
"""

GOLDEN_L1_SAMPLED_JSON = """\
{
  "norm": "l1",
  "budget": 1000.0,
  "case": "deficit",
  "alpha": 0.5555555556,
  "assets": [
    {
      "id": "growth",
      "value": 1850.0,
      "target": 0.25,
      "naive": 900.0,
      "adjustment": 500.0,
      "adjustment_cents": 50000,
      "final_allocation": 0.2136363636
    },
    {
      "id": "income",
      "value": 2100.0,
      "target": 0.25,
      "naive": 650.0,
      "adjustment": 361.1111111,
      "adjustment_cents": 36111,
      "final_allocation": 0.2237373737
    },
    {
      "id": "intl",
      "value": 2500.0,
      "target": 0.25,
      "naive": 250.0,
      "adjustment": 138.8888889,
      "adjustment_cents": 13889,
      "final_allocation": 0.2398989899
    },
    {
      "id": "bonds",
      "value": 1675.0,
      "target": 0.125,
      "naive": -300.0,
      "adjustment": 0.0,
      "adjustment_cents": 0,
      "final_allocation": 0.1522727273
    },
    {
      "id": "cash",
      "value": 1875.0,
      "target": 0.125,
      "naive": -500.0,
      "adjustment": 0.0,
      "adjustment_cents": 0,
      "final_allocation": 0.1704545455
    }
  ],
  "samples": [
    [
      505.5523466,
      370.4758339,
      123.9718194,
      0.0,
      0.0
    ],
    [
      259.5702468,
      527.3785624,
      213.0511908,
      0.0,
      0.0
    ]
  ]
}
"""

GOLDEN_L1_SAMPLED_TABLE = """\
asset     value  current  target   naive     buy  final
------  -------  -------  ------  ------  ------  -----
growth   $1,850      18%     25%    $900    $500    21%
income   $2,100      21%     25%    $650    $361    22%
intl     $2,500      25%     25%    $250    $139    24%
bonds    $1,675      17%     12%   -$300      $0    15%
cash     $1,875      19%     12%   -$500      $0    17%
------  -------  -------  ------  ------  ------  -----
total   $10,000     100%    100%  $1,000  $1,000   100%

contribution $1,000 allocated under l1; case = deficit, alpha = 0.5555555556

sampled l1 members (2):
  505.55, 370.48, 123.97, 0.00, 0.00
  259.57, 527.38, 213.05, 0.00, 0.00
"""


def test_c8_cli_golden_byte_stable(tmp_path, capsys):
    """The golden reports, byte for byte: l2 as JSON and as a table, and l1
    with two sampled members (seed 5) in both formats.  Each run is made
    twice, so the output is also stable from one call to the next."""
    from nosell.cli import run_rebalance_command

    path = tmp_path / "golden.csv"
    path.write_text(GOLDEN_CSV, encoding="utf-8")
    base = ["--input", str(path), "--contribution", "1000"]
    sampled = ["--norm", "l1", "--sample", "2", "--seed", "5"]
    runs = [
        (["--norm", "l2", "--format", "json"], GOLDEN_L2_JSON),
        (["--norm", "l2", "--format", "table"], GOLDEN_L2_TABLE),
        (sampled + ["--format", "json"], GOLDEN_L1_SAMPLED_JSON),
        (sampled + ["--format", "table"], GOLDEN_L1_SAMPLED_TABLE),
    ]
    for flags, expected in runs:
        for _ in range(2):
            assert run_rebalance_command(base + flags) == 0
            captured = capsys.readouterr()
            assert captured.out == expected, f"golden report changed for {flags}"
            assert captured.err == ""
    doc = json.loads(GOLDEN_L2_JSON)
    assert doc["certificate"]["k_star"] == 2
    assert doc["certificate"]["lambda_star"] == 275.0
    cents = [asset["adjustment_cents"] for asset in doc["assets"]]
    assert cents == [62500, 37500, 0, 0, 0]
    assert sum(cents) == 100000
    print("PASS c8: k*=2, lambda*=275, cents sum 100000, four golden reports byte-identical")


# criterion 9: n = 1e6 under one second ----------------------------------------

def test_c9_scale_million_assets():
    rng = np.random.default_rng(MASTER_SEED + 70)
    deltas = rng.uniform(-10.0, 10.0, 1_000_000)
    problem = ns.ContributionProblem(deltas, 1000.0)
    start = time.perf_counter()
    solution = ns.solve_l2(problem)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"solve_l2 on 1e6 deltas took {elapsed:.3f} s"
    assert abs(float(np.sum(solution.adjustments)) - 1000.0) <= ns.sum_tolerance(1000.0)
    assert np.all(solution.adjustments >= 0.0)
    print(f"PASS c9: 1e6 assets solved in {elapsed * 1e3:.0f} ms")
