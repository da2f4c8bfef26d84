"""Property-based differential tests over the whole float64 range.

hypothesis draws short delta lists anywhere in the finite range,
subnormals included, and budgets from 1e-300 to 1e300.  Every l2 plan must
match the exact water-filling plan (Fraction arithmetic) and pass
kkt_check_l2.
Every l1 particular, on deltas over the whole finite range, must pass
is_l1_optimal and spend the budget to a few eps, and every portfolio the
serializer accepts must read back to its 10-digit numbers.  Over the
whole finite range too, every sampled l1 member must pass is_l1_optimal
(at a subnormal budget the particular and the member spending it
exactly), every l2 plan kkt_check_l2, which must reject the plan with
half its largest entry moved onto an unfunded one wherever that half
exceeds twice the slack, and rebalance's cents must sum to the budget
with none negative.  Some relations hold byte for byte and need no
oracle: scaled by 2^j (every value staying normal), both solvers' answers
scale by 2^j, on every l2 route; up to 4096 assets, where the l2 solve is
one scan of the sorted gaps, permuting the deltas permutes the plan, and
an appended delta below min(d) - budget stays unfunded and changes
nothing else.  A column of CSV number fields, drawn from what float()
reads beyond the strict grammar as well as inside it, parses to the
per-field reference's bytes or fails at its row with its message.  Runs
are derandomized, so tier-1 stays deterministic.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import nosell as ns
from nosell import solvers
from nosell.cli import _parse_numbers, parse_portfolio, serialize_portfolio
from nosell.portfolio import _RowError

from reference_kernels import water_fill_exact
from reference_parse import reference_parse_numbers

EPS = 2.0 ** -52
MAX_N = 12

MAX = sys.float_info.max
FULL_DELTAS = st.lists(st.floats(min_value=-MAX, max_value=MAX), min_size=1, max_size=MAX_N)
BUDGETS = st.floats(min_value=1e-300, max_value=1e300)


@pytest.mark.parametrize("sample", [solvers._SAMPLE, 2, 4])
def test_l2_matches_exact_water_filling(monkeypatch, sample):
    # a sample of 2 or 4 sends short lists through the sparse and dense
    # routes; the default sends them through the one scan
    monkeypatch.setattr(solvers, "_SAMPLE", sample)
    routes = {"sparse": 0, "dense": 0}
    for route, name in (("sparse", "_candidates"), ("dense", "_below")):
        monkeypatch.setattr(solvers, name, _counted(routes, route, getattr(solvers, name)))
    # examples in which k e_k, for some exact sorted gap e_k, passes the
    # float64 maximum: the explicit example and some drawn ones
    overflows = 0

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(deltas=FULL_DELTAS, budget=BUDGETS)
    # the sum of the funded gaps plus the budget overflows as well
    @example(deltas=[1.7e308, 0.8e308, 0.8e308, 0.8e308], budget=1.5e308)
    def check(deltas, budget):
        nonlocal overflows
        problem = ns.ContributionProblem(deltas, budget)
        solution = ns.solve_l2(problem)
        exact, _ = water_fill_exact(deltas, budget)
        bound = 8 * len(deltas) * Fraction(EPS) * Fraction(budget)
        assert max(abs(Fraction(float(a)) - x) for a, x in zip(solution.adjustments, exact)) <= bound
        assert ns.kkt_check_l2(problem, solution.adjustments, solution.threshold)
        gaps = sorted(max(map(Fraction, deltas)) - Fraction(d) for d in deltas)
        overflows += any(k * e > MAX for k, e in enumerate(gaps, start=1))

    check()
    assert overflows > 1, overflows
    if sample >= MAX_N:
        assert routes == {"sparse": 0, "dense": 0}
    else:
        assert routes["sparse"] and routes["dense"], routes


def _counted(routes, route, cut_at):
    def counted(*args):
        routes[route] += 1
        return cut_at(*args)

    return counted


#: Deltas of 0 or of magnitude 2^-100 to 2^100, and budgets in that range:
#: scaled by 2^j for |j| <= 700, every delta, gap, budget, sum and plan entry
#: of MAX_N assets stays normal, where scaling by 2^j is exact.
NORMAL_DELTAS = st.lists(
    st.floats(min_value=-(2.0**100), max_value=2.0**100).filter(lambda d: d == 0.0 or abs(d) >= 2.0**-100),
    min_size=1,
    max_size=MAX_N,
)
NORMAL_BUDGETS = st.floats(min_value=2.0**-100, max_value=2.0**100)
POWERS = st.integers(min_value=-700, max_value=700)


def _bits(x):
    return np.float64(x).tobytes()


@pytest.mark.parametrize("sample", [solvers._SAMPLE, 2, 4])
def test_l2_plan_scales_by_powers_of_two(monkeypatch, sample):
    # a sample of 2 or 4 sends short lists through the sparse and dense
    # routes, whose rounds and cuts must hold no absolute constant either
    monkeypatch.setattr(solvers, "_SAMPLE", sample)
    routes = {"sparse": 0, "dense": 0}
    for route, name in (("sparse", "_candidates"), ("dense", "_below")):
        monkeypatch.setattr(solvers, name, _counted(routes, route, getattr(solvers, name)))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(deltas=NORMAL_DELTAS, budget=NORMAL_BUDGETS, j=POWERS)
    def check(deltas, budget, j):
        problem = ns.ContributionProblem(deltas, budget)
        solution = ns.solve_l2(problem)
        scaled = ns.solve_l2(ns.ContributionProblem(np.ldexp(problem.deltas, j), math.ldexp(budget, j)))
        assert scaled.adjustments.tobytes() == np.ldexp(solution.adjustments, j).tobytes()
        assert _bits(scaled.threshold) == _bits(math.ldexp(solution.threshold, j))
        assert scaled.active_count == solution.active_count

    check()
    if sample >= MAX_N:
        assert routes == {"sparse": 0, "dense": 0}
    else:
        assert routes["sparse"] and routes["dense"], routes


@settings(max_examples=150, derandomize=True, deadline=None)
@given(deltas=NORMAL_DELTAS, budget=NORMAL_BUDGETS, j=POWERS)
def test_l1_family_scales_by_powers_of_two(deltas, budget, j):
    problem = ns.ContributionProblem(deltas, budget)
    family = ns.solve_l1(problem)
    scaled = ns.solve_l1(ns.ContributionProblem(np.ldexp(problem.deltas, j), math.ldexp(budget, j)))
    assert scaled.case is family.case and _bits(scaled.scale or 0.0) == _bits(family.scale or 0.0)
    assert scaled.particular.tobytes() == np.ldexp(family.particular, j).tobytes()
    assert scaled.positive_parts.tobytes() == np.ldexp(family.positive_parts, j).tobytes()
    assert _bits(scaled.slack) == _bits(math.ldexp(family.slack, j))


def _assert_permuted(deltas, budget, order):
    solution = ns.solve_l2(ns.ContributionProblem(deltas, budget))
    permuted = ns.solve_l2(ns.ContributionProblem(np.asarray(deltas)[order], budget))
    assert permuted.adjustments.tobytes() == solution.adjustments[order].tobytes()
    assert _bits(permuted.threshold) == _bits(solution.threshold)
    assert permuted.active_count == solution.active_count


@settings(max_examples=200, derandomize=True, deadline=None)
@given(deltas=FULL_DELTAS, budget=BUDGETS, data=st.data())
def test_l2_plan_permutes_with_the_deltas(deltas, budget, data):
    _assert_permuted(deltas, budget, data.draw(st.permutations(range(len(deltas)))))


def _assert_far_below_is_unfunded(deltas, budget, far):
    # the appended delta lies below min(d) - budget by far times the spread
    # plus the budget, or, where that offset rounds away, one float below
    # the float nearest min(d) - budget
    low = min(deltas)
    below = min(low - far * ((max(deltas) - low) + budget), np.nextafter(low - budget, -np.inf))
    solution = ns.solve_l2(ns.ContributionProblem(deltas, budget))
    more = ns.solve_l2(ns.ContributionProblem(np.append(deltas, below), budget))
    assert _bits(more.adjustments[-1]) == _bits(0.0)
    assert more.adjustments[:-1].tobytes() == solution.adjustments.tobytes()
    assert _bits(more.threshold) == _bits(solution.threshold)
    assert more.active_count == solution.active_count


@settings(max_examples=200, derandomize=True, deadline=None)
@given(deltas=NORMAL_DELTAS, budget=NORMAL_BUDGETS, far=st.floats(min_value=2.0, max_value=1e6))
# the budget is below half an ulp of the delta: low - 2 * budget rounds to low
@example(deltas=[1.801439850948199e16], budget=1.0, far=2.0)
def test_l2_plan_leaves_a_far_below_asset_unfunded(deltas, budget, far):
    _assert_far_below_is_unfunded(deltas, budget, far)


@pytest.mark.parametrize("shape", ["uniform", "clustered"])
def test_l2_permutation_and_far_below_at_the_scan_routes_largest_size(shape):
    # 4096 assets, or 4095 and the appended one: still the one scan
    rng = np.random.default_rng((17, len(shape)))
    n = solvers._SAMPLE
    deltas = rng.uniform(-1e4, 1e4, n) if shape == "uniform" else 1000.0 + rng.uniform(-1e-3, 1e-3, n)
    for budget in (1e-3, 10.0, 1e3, 1e8):
        _assert_permuted(deltas, budget, rng.permutation(n))
        _assert_far_below_is_unfunded(deltas[:-1], budget, 2.0)


#: Above 1e300 a plan's float sum can round past the float64 maximum, and
#: the solvers refuse such a plan.
L1_BUDGETS = st.floats(min_value=5e-324, max_value=1e300)


def test_l1_particular_spends_the_budget():
    # the positive parts' sum overflows (the rescale), or budget / sum is
    # subnormal (the shares times the budget); both must be reached
    reached = {"rescale": 0, "subnormal share": 0}

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(deltas=FULL_DELTAS, budget=L1_BUDGETS)
    def check(deltas, budget):
        problem = ns.ContributionProblem(deltas, budget)
        family = ns.solve_l1(problem)
        assert ns.is_l1_optimal(problem, family.particular)
        n = len(deltas)
        error = abs(sum(map(Fraction, family.particular.tolist())) - Fraction(budget))
        assert error <= 4 * n * Fraction(EPS) * Fraction(budget) + n * Fraction(math.ulp(0.0))
        exact_pos = sum(Fraction(d) for d in deltas if d > 0)
        reached["rescale"] += exact_pos > MAX
        reached["subnormal share"] += exact_pos >= budget and Fraction(budget) < exact_pos * Fraction(sys.float_info.min)

    check()
    assert all(reached.values()), reached


@settings(max_examples=250, derandomize=True, deadline=None)
@given(deltas=FULL_DELTAS, budget=L1_BUDGETS, seed=st.integers(min_value=0, max_value=1000))
# members 1 ulp above their positive part: far more than FEAS_TOL here
@example(deltas=[106124857117813.0], budget=106124857117813.0, seed=0)
@example(deltas=[7.002293629252616e16], budget=7.002293629252616e16, seed=553)
def test_sampled_l1_members_pass_is_l1_optimal(deltas, budget, seed):
    problem = ns.ContributionProblem(deltas, budget)
    family = ns.solve_l1(problem)
    member = ns.sample_l1_member(family, seed)
    assert ns.is_l1_optimal(problem, member)
    if budget < sys.float_info.min:
        # on the subnormal grid every sum is exact: the particular and each
        # member, surplus or deficit, spend the budget itself
        assert math.fsum(family.particular.tolist()) == budget
        assert math.fsum(member.tolist()) == budget


@settings(max_examples=250, derandomize=True, deadline=None)
@given(deltas=FULL_DELTAS, budget=BUDGETS)
# lam is the float64 maximum, where a slack from np.spacing would be inf
@example(deltas=[MAX], budget=1.0)
# the plan is FEAS_TOL, counted as zero, and lam rounds to -FEAS_TOL
@example(deltas=[6.746293724073171e-224], budget=1e-09)
# an unfunded delta far below the funded side's scale
@example(deltas=[1.0, 2.0, -1e300], budget=1.0)
def test_l2_plans_pass_kkt_over_the_whole_range(deltas, budget):
    problem = ns.ContributionProblem(deltas, budget)
    solution = ns.solve_l2(problem)
    plan, lam = solution.adjustments, solution.threshold
    assert ns.kkt_check_l2(problem, plan, lam)
    # half the largest entry moved onto an unfunded one breaks stationarity
    # at both by more than the slack wherever the half exceeds twice it
    slack = solvers.FEAS_TOL + 4.0 * math.ulp(max(abs(max(deltas)), abs(lam)))
    funded, unfunded = int(plan.argmax()), int(plan.argmin())
    half = plan[funded] / 2
    if plan[unfunded] <= solvers.FEAS_TOL and half > 2 * slack:
        shifted = plan.copy()
        shifted[funded] -= half
        shifted[unfunded] += half
        assert not ns.kkt_check_l2(problem, shifted, lam)


def _serializable(asset_id):
    # the serializer's rule: no comma, no line break that str.splitlines
    # splits on, no leading #, no surrounding whitespace
    return "," not in asset_id and asset_id.splitlines() == [asset_id] and not asset_id.startswith("#") and asset_id == asset_id.strip()


IDS = st.lists(st.text(min_size=1).filter(_serializable), min_size=1, max_size=MAX_N, unique=True)


@st.composite
def portfolios(draw):
    """Ids the serializer accepts, values anywhere in the finite range
    with a finite total, and targets from nonnegative weights."""
    ids = draw(IDS)
    n = len(ids)
    allow_short = draw(st.booleans())
    values = draw(st.lists(st.floats(min_value=-MAX if allow_short else 0.0, max_value=MAX), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n))
    assume(math.isfinite(solvers._total(values)) and any(weights))
    total = math.fsum(weights)
    return ns.Portfolio(map(ns.Asset, ids, values, [w / total for w in weights]), allow_short=allow_short)


def _ten_digits(x):
    """``x`` at 10 significant digits, or ``x`` itself where that overflows."""
    rounded = float(f"{x:.10g}")
    return rounded if math.isfinite(rounded) else x


@settings(max_examples=200, derandomize=True, deadline=None)
@given(portfolio=portfolios())
def test_serialized_portfolio_reads_back_at_10_digits(portfolio):
    text = serialize_portfolio(portfolio)
    reparsed = parse_portfolio(text, allow_short=portfolio.allow_short)
    assert reparsed.ids == portfolio.ids
    assert reparsed.values.tolist() == list(map(_ten_digits, portfolio.values.tolist()))
    assert reparsed.targets.tolist() == list(map(_ten_digits, portfolio.targets.tolist()))
    assert serialize_portfolio(reparsed) == text


#: inf, nan and infinity, each letter in either case.
_WORDS = st.sampled_from(["inf", "nan", "infinity"]).flatmap(
    lambda word: st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(word, upper))
    )
)
#: Texts built from what float() reads beyond the grammar (underscores,
#: spaces, a no-break space, an Arabic-Indic digit, the words) and from
#: what it reads inside it.
_PIECES = st.one_of(st.sampled_from([*"0123456789+-.eE_ ", "\u00a0", "\u0661"]), _WORDS)
#: Arabic-Indic digits in place of 0-9.
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
#: A field is stripped, as both CLI commands strip it before parsing.  The
#: floats' texts are in the grammar unless they are inf or nan, so that
#: whole columns get through; with their digits grouped by ``_`` or
#: written in Arabic-Indic, float() reads whole columns that the grammar
#: refuses.
_FIELDS = st.one_of(
    st.lists(_PIECES, max_size=8).map("".join),
    st.floats().map(repr),
    st.floats(allow_nan=False).map("{:e}".format),
    st.integers(min_value=-(10**400), max_value=10**400).map(str),
    st.integers().map("{:_}".format),
    st.floats(allow_nan=False).map(repr).map(lambda text: text.translate(_ARABIC_INDIC)),
).map(str.strip)


def test_parse_numbers_matches_the_per_field_grammar():
    # the whole-column check must return the per-field reference's bytes,
    # or raise at the same row with the same message; columns that float()
    # reads whole but the grammar refuses must be among the examples
    reached = {"parsed": 0, "refused": 0, "refused but read by float()": 0}

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(fields=st.lists(_FIELDS, min_size=1, max_size=6), label=st.sampled_from(["", "value ", "target "]))
    @example(fields=["1_000"], label="value ")
    @example(fields=["1", "\u0661\u0662"], label="target ")
    @example(fields=["0.5", "1e999"], label="")
    @example(fields=["NaN", "2"], label="")
    @example(fields=["1", "0x10"], label="value ")
    @example(fields=["3", ""], label="target ")
    def check(fields, label):
        try:
            expected = reference_parse_numbers(fields, label)
        except _RowError as exc:
            with pytest.raises(_RowError) as raised:
                _parse_numbers(fields, label)
            assert (raised.value.row, str(raised.value)) == (exc.row, str(exc))
            reached["refused"] += 1
            try:
                list(map(float, fields))
                reached["refused but read by float()"] += 1
            except ValueError:
                pass
        else:
            parsed = _parse_numbers(fields, label)
            assert parsed.dtype == np.float64 and parsed.tobytes() == expected.tobytes()
            reached["parsed"] += 1

    check()
    assert all(reached.values()), reached


#: Whole-cent budgets up to $1e12.  From $1e13 one ulp of an entry is
#: 0.2-1.6 cents, and round_to_cents can refuse a plan that sums exactly
#: to the budget (a leftover of -1 cent); that range waits on its fix.
CENTS = st.integers(min_value=1, max_value=10**14)
#: Long-only holdings anywhere in the range where MAX_N of them sum finitely.
HOLDINGS = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=MAX / MAX_N), st.floats(min_value=0.0, max_value=1.0)),
    min_size=1,
    max_size=MAX_N,
)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(holdings=HOLDINGS, cents=CENTS, norm=st.sampled_from(["l1", "l2"]))
def test_rebalance_cents_sum_to_the_budget(holdings, cents, norm):
    total = math.fsum(weight for _, weight in holdings)
    assume(total > 0.0)
    portfolio = ns.Portfolio(ns.Asset(f"a{i}", value, weight / total) for i, (value, weight) in enumerate(holdings))
    budget = cents / 100
    plan = ns.rebalance(portfolio, budget, norm)
    assert int(plan.rounded_cents.sum()) == round(100 * budget)
    assert plan.rounded_cents.min() >= 0
