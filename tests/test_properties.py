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
exceeds twice the slack, and is_l1_optimal, as the paper's l2 plan lies
in the l1 family; rebalance's cents must sum to the budget with none
negative.  On the scan route, a contribution split in two steps gets the
one-step l2 plan, and no entry falls as the budget rises, to a few ulps.
Targets that sum to within a few ulps of 1 +- TARGET_SUM_TOL get fsum's
verdict.  Some relations hold byte for byte and need no
oracle: scaled by 2^j (every value staying normal), both solvers' answers
scale by 2^j, on every l2 route; up to 4096 assets, where the l2 solve is
one scan of the sorted gaps, permuting the deltas permutes the plan, and
an appended delta below min(d) - budget stays unfunded and changes
nothing else.  A column of CSV number fields, drawn from what float()
reads beyond the strict grammar as well as inside it, parses to the
per-field reference's bytes or fails at its row with its message.  A
whole portfolio file, with comments, blank lines, every line break that
str.splitlines knows, Unicode whitespace around fields and wrong field
counts, parses to the line-by-line reference's portfolio or fails with
its message; so do a plain file, each with one edit, and a valid padded
file, read by np.loadtxt exactly when it is valid (but a plain one whose
first line is not the header), and a file with any space or digit code
point around, inside or in place of a field.  The table's cells, over
the whole float64 range with infinities and NaN, are the texts of the
per-number float format, and the byte grid of a large table lays out
those texts as a cell-by-cell layout does, beside ids of any characters.  Runs are derandomized, so
tier-1 stays deterministic.
"""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import nosell as ns
from nosell import cli, solvers
from nosell.cli import _cells, _grid, _magnitudes, _parse_numbers, parse_portfolio, serialize_portfolio
from nosell.portfolio import _RowError

from helpers import assert_monotone, assert_split, l2_adjustments
from reference_kernels import water_fill_exact
from reference_parse import reference_parse_numbers, reference_parse_portfolio
from reference_render import money_texts, pct_texts

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
        exact, lam = water_fill_exact(deltas, budget)
        try:
            float(lam)
        except OverflowError:
            # lambda lies past the float64 range: solve_l2 refuses the
            # problem rather than return a threshold of -inf
            with pytest.raises(ValueError, match="is not a finite float64"):
                ns.solve_l2(problem)
            return
        solution = ns.solve_l2(problem)
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


def _refused_past_float64(deltas, budget):
    """Whether solve_l2 refuses the problem, which it may only where the
    exact lambda lies past the float64 range: it refuses rather than return
    a threshold of -inf (see test_l2_matches_exact_water_filling)."""
    try:
        ns.solve_l2(ns.ContributionProblem(deltas, budget))
    except ValueError as exc:
        if "is not a finite float64" not in str(exc):
            raise
        with pytest.raises(OverflowError):
            float(water_fill_exact(deltas, budget)[1])
        return True
    return False


def test_l2_plan_permutes_with_the_deltas():
    refusals = 0

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(deltas=FULL_DELTAS, budget=BUDGETS, seed=st.integers(min_value=0, max_value=2**32 - 1))
    # lambda lies past -MAX
    @example(deltas=[-MAX, -MAX], budget=1e300, seed=0)
    def check(deltas, budget, seed):
        nonlocal refusals
        if _refused_past_float64(deltas, budget):
            refusals += 1
            return
        _assert_permuted(deltas, budget, np.random.default_rng(seed).permutation(len(deltas)))

    check()
    assert refusals, refusals


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


def test_l2_plans_pass_kkt_over_the_whole_range():
    refusals = 0

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(deltas=FULL_DELTAS, budget=BUDGETS)
    # lam is the float64 maximum, where a slack from np.spacing would be inf
    @example(deltas=[MAX], budget=1.0)
    # the plan is FEAS_TOL, counted as zero, and lam rounds to -FEAS_TOL
    @example(deltas=[6.746293724073171e-224], budget=1e-09)
    # an unfunded delta far below the funded side's scale
    @example(deltas=[1.0, 2.0, -1e300], budget=1.0)
    # lam lies past -MAX
    @example(deltas=[-MAX], budget=1e300)
    def check(deltas, budget):
        nonlocal refusals
        if _refused_past_float64(deltas, budget):
            refusals += 1
            return
        problem = ns.ContributionProblem(deltas, budget)
        solution = ns.solve_l2(problem)
        plan, lam = solution.adjustments, solution.threshold
        assert ns.kkt_check_l2(problem, plan, lam)
        # half the largest entry moved onto an unfunded one breaks
        # stationarity at both by more than the slack wherever the half
        # exceeds twice it
        slack = solvers.FEAS_TOL + 4.0 * math.ulp(max(abs(max(deltas)), abs(lam)))
        funded, unfunded = int(plan.argmax()), int(plan.argmin())
        half = plan[funded] / 2
        if plan[unfunded] <= solvers.FEAS_TOL and half > 2 * slack:
            shifted = plan.copy()
            shifted[funded] -= half
            shifted[unfunded] += half
            assert not ns.kkt_check_l2(problem, shifted, lam)

    check()
    assert refusals, refusals


def test_l2_plans_are_l1_plans():
    # the l2 plan max(d - lambda, 0) is a member of solve_l1's family: at
    # or below every positive part in the deficit case (lambda >= 0), at
    # or above each in the surplus case (lambda < 0)
    cases = {"deficit": 0, "surplus": 0}

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(deltas=FULL_DELTAS, budget=BUDGETS)
    def check(deltas, budget):
        # lambda lies in [max(d) - budget, max(d)]: past -MAX, solve_l2
        # refuses the problem
        assume(math.isfinite(max(deltas) - budget))
        problem = ns.ContributionProblem(deltas, budget)
        assert ns.is_l1_optimal(problem, ns.solve_l2(problem).adjustments)
        cases[ns.solve_l1(problem).case.value] += 1

    check()
    assert all(cases.values()), cases


@st.composite
def holdings(draw):
    """``(values, targets)``: up to MAX_N holdings at a scale of 1e-4 to
    1e12, short in one draw in five (with a total that is not), and
    targets from weights of which often most are zero.  The far ends of the
    float64 range wait on a proven error bound per solve."""
    n = draw(st.integers(min_value=1, max_value=MAX_N))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = 10.0 ** draw(st.floats(min_value=-4.0, max_value=12.0))
    values = scale * (rng.uniform(-0.5, 1.0, n) if draw(st.integers(0, 4)) == 0 else rng.random(n))
    if values.sum() < 0.0:
        values = -values
    weights = rng.random(n) * (rng.random(n) < draw(st.sampled_from([0.3, 1.0])))
    weights[rng.integers(n)] = 1.0
    return values, weights / math.fsum(weights.tolist())


#: Budgets log-uniform from 1e-4 to 1e12.
PLAN_BUDGETS = st.floats(min_value=-4.0, max_value=12.0).map(lambda e: 10.0**e)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(holding=holdings(), first=PLAN_BUDGETS, second=PLAN_BUDGETS)
def test_l2_plan_of_a_split_contribution_is_the_one_step_plan(holding, first, second):
    # rebalancing y1, then y2 on the first step's final values, gives the
    # plan for y1 + y2 in one step: the final values max(x_i, p_i W - mu)
    # of the first step lie at or below the one step's, as mu never rises
    # with the budget
    assert_split(*holding, first, second)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(holding=holdings(), budgets=st.lists(PLAN_BUDGETS, min_size=2, max_size=2).map(sorted))
def test_l2_plan_entries_rise_with_the_budget(holding, budgets):
    # no entry of the plan falls as the budget rises, as mu never rises
    values, targets = holding
    low, high = (l2_adjustments(values, targets, budget) for budget in budgets)
    assert_monotone(values, low, high, budgets[1])


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


#: What str.splitlines splits a line at.
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
#: Whitespace that str.strip takes off and str.splitlines does not split at.
_SPACES = st.text(st.sampled_from(" \t\x1f\u00a0\u2003\u3000"), max_size=2)
#: Ids with a ``#`` inside or in front, a space inside, or none at all.
_CSV_IDS = st.text(st.sampled_from("ab#\u00e9 "), max_size=3)
#: Number fields inside the grammar and out of it; the targets are often
#: weights that sum to 1.
_CSV_NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "0.5", "0.25", "-1", "1e999", "12_000", "x", "", ".5", "-0", "1#"]),
    st.floats(min_value=0.0, max_value=1e6).map(repr),
)


@st.composite
def csv_texts(draw):
    """A portfolio file: a header, rows of three fields (sometimes two or
    four), comment and blank lines between them, each line ended by any
    break that str.splitlines knows, each field padded by whitespace."""
    header = draw(st.sampled_from([["id", "value", "target"], ["id", "value"], ["id", "val", "target"]]))
    rows = [header] if draw(st.integers(0, 9)) else []
    for _ in range(draw(st.integers(0, 5))):
        fields = [draw(_CSV_IDS), draw(_CSV_NUMBERS), draw(_CSV_NUMBERS)]
        rows.append(draw(st.sampled_from([fields, fields, fields, fields[:2], fields + ["0"]])))
    lines = []
    for fields in rows:
        lines += draw(st.lists(st.sampled_from(["", "  ", "# note", " #x,1,2", "#"]), max_size=2))
        lines.append(",".join(draw(_SPACES) + field + draw(_SPACES) for field in fields))
    return "".join(line + draw(_BREAKS) for line in lines)


def _parsed(parse, text, normalize, allow_short):
    """The portfolio's bytes, or the error's type and message."""
    try:
        portfolio = parse(text, normalize=normalize, allow_short=allow_short)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return portfolio.ids, portfolio.values.tobytes(), portfolio.targets.tobytes(), portfolio.total.hex()


def test_parse_portfolio_matches_the_line_by_line_reader():
    # the whole-file split must give the reference's portfolio, or its
    # error with the same line number
    reached = {"parsed": 0, "refused": 0, "row refused": 0}

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(text=csv_texts(), normalize=st.booleans(), allow_short=st.booleans())
    @example(text="# c\r\n\r\nid , value,target\r\na#1,\u00a05 ,1\r\n\x85b,2,0\x1c", normalize=False, allow_short=False)
    @example(text="id,value,target\u2028a,1,0.5,0\u2029#\nb,1,0.5", normalize=False, allow_short=False)
    @example(text="id,value,target\x0bA,1,1\x0cB,2\x1d", normalize=True, allow_short=False)
    def check(text, normalize, allow_short):
        expected = _parsed(reference_parse_portfolio, text, normalize, allow_short)
        assert _parsed(parse_portfolio, text, normalize, allow_short) == expected
        if len(expected) == 4:
            reached["parsed"] += 1
        else:
            reached["refused"] += 1
            reached["row refused"] += expected[1].startswith("line ") and "header" not in expected[1]

    check()
    assert all(reached.values()), reached


#: Ids of a plain file: printable ASCII but for the comma, space and #.
_PLAIN_IDS = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E, exclude_characters=",#"), min_size=1,
                     max_size=3)
#: One edit of a plain file, or none (twice as often as each edit);
#: "break" and a NUL in an id keep it plain.
_EDITS = ["none", "none", "space", "comment line", "# in an id", "break", "non-ASCII id", "non-finite",
          "separator", "field count", "empty id", "duplicate id", "NUL", "header only"]


@st.composite
def plain_files(draw):
    """``(edit, text)``: a plain portfolio file (see cli._parse_loadtxt), the
    exact header and rows of an id and the reprs of a value and a target,
    blank lines between them, each line ended by \\n or \\r\\n, then one
    edit of _EDITS."""
    n = draw(st.integers(min_value=1, max_value=5))
    ids = draw(st.lists(_PLAIN_IDS, min_size=n, max_size=n, unique=True))
    values = draw(st.lists(st.floats(min_value=-1e3, max_value=1e9), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n))
    total = math.fsum(weights) or 1.0
    rows = [[asset_id, repr(value), repr(weight / total)] for asset_id, value, weight in zip(ids, values, weights)]
    edit = draw(st.sampled_from(_EDITS))
    row, column = draw(st.integers(0, n - 1)), draw(st.integers(1, 2))
    if edit == "# in an id":
        rows[row][0] = rows[row][0][:1] + "#" + rows[row][0][1:]
    elif edit == "non-ASCII id":
        rows[row][0] += draw(st.sampled_from(["\u00e9", "\u00a0", "\U0001F600"]))
    elif edit == "non-finite":
        rows[row][column] = draw(st.sampled_from(["inf", "-inf", "nan", "1e999"]))
    elif edit == "separator":
        rows[row][column] = draw(st.sampled_from(["1_0", "0x10", '"1"']))
    elif edit == "field count":
        rows[row] = draw(st.sampled_from([rows[row][:2], rows[row] + ["0"]]))
    elif edit == "empty id":
        rows[row][0] = ""
    elif edit == "duplicate id":
        rows.insert(row, list(rows[row]))
    elif edit == "NUL":
        column = draw(st.integers(0, 2))
        at = draw(st.integers(0, len(rows[row][column])))
        rows[row][column] = rows[row][column][:at] + "\0" + rows[row][column][at:]
    lines = ["id,value,target"]
    for fields in [] if edit == "header only" else rows:
        lines += [""] * draw(st.integers(0, 1))
        lines.append(",".join(fields))
    if edit == "comment line":
        lines.insert(draw(st.integers(0, len(lines))), "#x,1,0.5")
    elif edit == "space":
        line = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[line])))
        lines[line] = lines[line][:at] + draw(st.sampled_from(" \t\x1f")) + lines[line][at:]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    if edit == "break":
        ends[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(["\x0b", "\x0c", "\x1c"]))
    return edit, "".join(map(str.__add__, lines, ends))


#: Ids of a padded file: any first character but a space or #, then
#: others with #, a space and non-ASCII characters.
_PADDED_IDS = st.tuples(st.sampled_from("ab\u00e9\U0001F600"), st.text(st.sampled_from("ab#\u00e9 \u00a0"), max_size=3))


@st.composite
def padded_files(draw):
    """``("padded", text)``: a valid portfolio file that is seldom plain:
    the header and rows of an id and the reprs of a value and a target,
    each field padded by whitespace, ids with # or non-ASCII characters,
    comment and blank lines between them, each line ended by any break
    that str.splitlines knows."""
    n = draw(st.integers(min_value=1, max_value=5))
    ids = draw(st.lists(_PADDED_IDS.map("".join).map(str.strip), min_size=n, max_size=n, unique=True))
    values = draw(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n))
    total = math.fsum(weights) or 1.0
    rows = [["id", "value", "target"]]
    rows += [[asset_id, repr(value), repr(weight / total)] for asset_id, value, weight in zip(ids, values, weights)]
    lines = []
    for fields in rows:
        lines += draw(st.lists(st.sampled_from(["", " \t", "# note", " #x,1,2", "#", "\u3000"]), max_size=2))
        lines.append(",".join(draw(_SPACES) + field + draw(_SPACES) for field in fields))
    return "padded", "".join(line + draw(_BREAKS) for line in lines)


def _count_loadtxt_reads(monkeypatch):
    """A list to which each call of cli._parse_loadtxt appends whether it
    returned a portfolio."""
    read = []

    def counted(*args, parse_loadtxt=cli._parse_loadtxt):
        portfolio = parse_loadtxt(*args)
        read.append(portfolio is not None)
        return portfolio

    monkeypatch.setattr(cli, "_parse_loadtxt", counted)
    return read


def _plain(text):
    """cli._parse_loadtxt's rule for a plain text: ASCII, and no space,
    tab, \\x1f or #."""
    return text.isascii() and not any(c in text for c in " \t\x1f#")


def test_plain_reader_matches_the_line_by_line_reader(monkeypatch):
    # np.loadtxt must give the reference's portfolio on every text it
    # reads, and read exactly the texts that the reference parses, but a
    # plain one whose first line is not the header; the line-by-line
    # reader gives the portfolio or error of every other text; a warning
    # from either fails the test
    read = _count_loadtxt_reads(monkeypatch)
    reached = {edit: 0 for edit in _EDITS + ["padded"]}
    reached.update(read=0, fell_through=0, padded_read=0)

    # plain files twice as often as padded ones
    @settings(max_examples=900, derandomize=True, deadline=None)
    @given(file=st.one_of(plain_files(), plain_files(), padded_files()), normalize=st.booleans(),
           allow_short=st.booleans())
    # loadtxt reads inf and 1e999: under --normalize only the line-by-line
    # reader has the weight's text for its message
    @example(file=("non-finite", "id,value,target\na,1,1e999\n"), normalize=True, allow_short=False)
    @example(file=("non-finite", "id,value,target\r\na,1,inf"), normalize=True, allow_short=True)
    @example(file=("comment line", "id,value,target\n#x,1,0.5\na,1,0.5\n"), normalize=True, allow_short=False)
    @example(file=("header only", "id,value,target\r\n\r\n"), normalize=False, allow_short=False)
    @example(file=("break", "\nid,value,target\na,1,1\n"), normalize=False, allow_short=False)
    @example(file=("padded", "# c\r\n \u3000\r\nid , value,target\u2028a#1 ,\u00a05 ,1\x85"), normalize=False,
             allow_short=False)
    def check(file, normalize, allow_short):
        edit, text = file
        expected = _parsed(reference_parse_portfolio, text, normalize, allow_short)
        read.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _parsed(parse_portfolio, text, normalize, allow_short) == expected
        header_first = text.splitlines()[:1] == ["id,value,target"]
        assert read == [len(expected) == 4 and (header_first or not _plain(text))], (edit, text)
        reached[edit] += 1
        reached["read" if read[0] else "fell_through"] += 1
        reached["padded_read"] += edit == "padded" and read[0] and not _plain(text)

    check()
    assert all(reached.values()), reached
    # padded files are valid and seldom plain: loadtxt reads most of them
    assert reached["padded_read"] >= 100, reached


def test_parse_portfolio_matches_the_reference_around_spaces_and_digits(monkeypatch):
    # every code point below U+3100 that str.isspace or str.isnumeric
    # holds for, and a few more that str.strip keeps or float() reads,
    # around a number, inside one, alone in a field and around an id: the
    # portfolio or error is the reference's, and loadtxt reads some texts
    points = [chr(c) for c in range(0x3100) if chr(c).isspace() or chr(c).isnumeric()]
    points += ["\ufeff", "\u200b", "\u180e", "\u2060", "\uff10", "\uff19", "\0", "\x7f"]
    rng = np.random.default_rng(0)
    read = _count_loadtxt_reads(monkeypatch)
    for c in points:
        value = repr(float(rng.integers(1, 10**6)) / 100)
        for row in (f"a,{c}{value},0.5", f"a,{value}{c},0.5", f"a,{value[:1]}{c}{value[1:]},0.5",
                    f"a,{value[:-1]}{c}{value[-1:]},0.5", f"a,{c},0.5", f"a,1,{c}", f"{c}a{c},{value},0.5",
                    f"a{c}b,{value},0.5"):
            text = f"id,value,target\n{row}\nb,2,0.5\n"
            for normalize in (False, True):
                expected = _parsed(reference_parse_portfolio, text, normalize, False)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert _parsed(parse_portfolio, text, normalize, False) == expected, (c, text)
    assert any(read)


def test_target_sum_check_matches_fsum_at_the_edge():
    # targets that sum to 1 +- TARGET_SUM_TOL +- a few ulps: numpy's sum
    # decides the check only where its error bound proves fsum's verdict,
    # so the verdicts and messages are fsum's
    reached = {"kept": 0, "refused": 0, "np.sum is not fsum": 0}

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(n=st.integers(min_value=1, max_value=5000), seed=st.integers(min_value=0, max_value=2**32 - 1),
           side=st.sampled_from([-1.0, 1.0]), ulps=st.integers(min_value=-4, max_value=4), sparse=st.booleans())
    @example(n=1, seed=0, side=-1.0, ulps=0, sparse=False)
    def check(n, seed, side, ulps, sparse):
        rng = np.random.default_rng(seed)
        weights = rng.random(n) * (rng.random(n) < 0.1 if sparse else 1.0)
        weights[-1] = 1.0
        edge = 1.0 + side * ns.TARGET_SUM_TOL
        for _ in range(abs(ulps)):
            edge = math.nextafter(edge, math.copysign(math.inf, ulps))
        targets = weights * (edge / math.fsum(weights.tolist()))
        # the last target puts the exact sum within an ulp of the edge
        targets[-1] = edge - math.fsum(targets[:-1].tolist())
        assume(0.0 <= targets[-1] <= 1.0)
        total = math.fsum(targets.tolist())
        reached["np.sum is not fsum"] += float(targets.sum()) != total
        try:
            ns.Portfolio._from_columns(tuple(map(str, range(n))), np.ones(n), targets, False)
        except ValueError as exc:
            assert abs(total - 1.0) > ns.TARGET_SUM_TOL
            assert str(exc) == f"target weights sum to {total:.10g}, expected 1"
            reached["refused"] += 1
        else:
            assert abs(total - 1.0) <= ns.TARGET_SUM_TOL
            reached["kept"] += 1

    check()
    assert all(reached.values()), reached


#: The float64 below 2^63, whose magnitude is the last that int64 holds.
_BELOW_2_63 = math.nextafter(2.0**63, 0.0)
#: Dollars where the table's rounding changes hands: zeros of both signs,
#: a negative that rounds to zero, ties, the float64 integers from 2^52
#: on, and the ends of int64.
_MONEY_EDGES = [0.0, -0.0, -0.3, 0.5, -0.5, 1.5, 2.5, -2.5, 0.49999999999999994, 2.0**52 - 0.5, 2.0**52,
                -(2.0**52), 2.0**53, -(2.0**53) - 2.0, _BELOW_2_63, -_BELOW_2_63]
#: The same for the percent rows, as fractions.
_PCT_EDGES = [0.0, -0.0, -0.003, 0.005, -0.005, 0.015, 0.025, -0.025, 2.0**52 / 100, 2.0**53 / 100,
              -(2.0**53) / 100, _BELOW_2_63 / 100, -_BELOW_2_63 / 100, 0.01, 1.0, -1.0]
#: Numbers over the whole range, infinities and NaN included, and more
#: often where the table writes digits: ties of dollars and percents, and
#: magnitudes around 2^63.
_CELL_NUMBERS = st.one_of(
    st.floats(),
    st.floats(min_value=-1e7, max_value=1e7),
    st.integers(min_value=-10**7, max_value=10**7).map(lambda k: k + 0.5),
    st.integers(min_value=-10**5, max_value=10**5).map(lambda k: (k + 0.5) / 100),
    st.floats(min_value=-(2.0**64), max_value=2.0**64),
    st.sampled_from([2.0**63, -(2.0**63), math.inf, -math.inf, math.nan, *_MONEY_EDGES, *_PCT_EDGES]),
)
_CELL_ROWS = st.integers(min_value=1, max_value=5).flatmap(
    lambda width: st.lists(st.lists(_CELL_NUMBERS, min_size=width, max_size=width), min_size=6, max_size=6)
)


def test_table_cells_match_the_per_number_format():
    # the rounded-int texts must be the formatted floats' texts, also in a
    # row past int64 (exact ints) or holding a number that is not finite
    # (n/a), where the scaled magnitude decides: a percent can overflow
    reached = {"int64 rows": 0, "wide rows": 0, "negative cells": 0}

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(rows=_CELL_ROWS)
    @example(rows=[_MONEY_EDGES] * 3 + [_PCT_EDGES] * 3)
    @example(rows=[[2.0**63, -(2.0**63), 1.0]] * 3 + [[2.0**63 / 100, -(2.0**63) / 100, 0.01]] * 3)
    @example(rows=[[math.inf, -0.3, 2.5], [math.nan, 1.0, -0.0], [-math.inf, 0.5, 1.5]] * 2)
    @example(rows=[[1e19, math.inf, -(2.0**70)], [math.nan, -1e19, 2.0**64], [2.0**63, -math.inf, 0.5],
                   [1e17, math.nan, 0.5], [-1e19, 0.01, 2.0**63], [-math.inf, -1e17, 0.0]])
    @example(rows=[[0.5, -2.5, 1.5]] * 3 + [[1.797693134862316e+306, 0.5, -0.0], [-1.797693134862316e+306, 1.0, 0.25],
                                            [1e306, -1e306, 0.015]])
    def check(rows):
        numbers = np.array(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            cells = _cells(numbers, *_magnitudes(numbers))
        assert cells == [money_texts(row) for row in rows[:3]] + [pct_texts(row) for row in rows[3:]]
        for row, scale in zip(rows, [1.0] * 3 + [100.0] * 3):
            fits = all(abs(x * scale) < 2.0**62 for x in row)
            reached["int64 rows" if fits else "wide rows"] += 1
            reached["negative cells"] += fits and any(x < 0 for x in row)

    check()
    assert all(reached.values()), reached


TABLE_HEADERS = ("asset", "value", "current", "target", "naive", "buy", "final")
#: Tables of one to five assets and the total: six number rows, and an id
#: per asset from any characters, NUL, % and astral ones included.
_GRID_TABLES = st.integers(min_value=2, max_value=6).flatmap(lambda width: st.tuples(
    st.lists(st.lists(_CELL_NUMBERS, min_size=width, max_size=width), min_size=6, max_size=6),
    st.lists(st.text(st.characters(codec="utf-8"), max_size=6), min_size=width - 1, max_size=width - 1),
))


def test_grid_lays_out_the_cells_texts():
    # _magnitudes flags a table wide exactly when a magnitude is past int64
    # or not finite; the grid writes any other as _cells' texts laid out
    # cell by cell
    reached = {"grid": 0, "refused": 0, "negative cells": 0, "1 000% or more": 0}

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(table=_GRID_TABLES)
    @example(table=([_MONEY_EDGES] * 3 + [_PCT_EDGES] * 3, ["naïve €", "x\x00", "%s"] + ["a"] * 12))
    @example(table=([[-0.3, 999.5, -1e15]] * 3 + [[-0.003, 99.995, -12.5]] * 3, ["\U0001F600", "%%"]))
    @example(table=([[2.0**63, 1.0]] * 6, ["a"]))
    def check(table):
        rows, ids = table
        numbers = np.array(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            magnitudes, wide = _magnitudes(numbers)
        scaled = [x * scale for row, scale in zip(rows, [1.0] * 3 + [100.0] * 3) for x in row]
        assert wide == (not all(math.isfinite(x) and abs(round(x)) < 2**63 for x in scaled))
        if wide:
            reached["refused"] += 1
            return
        grid = _grid(numbers, magnitudes, tuple(ids), TABLE_HEADERS)
        value, naive, buy, target, final, current = _cells(numbers, magnitudes, wide)
        columns = [[*ids, "total"], value, current, target, naive, buy, final]
        widths = [max(len(header), *map(len, column)) for header, column in zip(TABLE_HEADERS, columns)]
        lines = [[header.ljust(widths[0]) if c == 0 else header.rjust(widths[c]) for c, header in enumerate(TABLE_HEADERS)]]
        lines += [[cell.ljust(widths[0]) if c == 0 else cell.rjust(widths[c]) for c, cell in enumerate(row)]
                  for row in zip(*columns)]
        lines = ["  ".join(line) for line in lines]
        assert grid == (widths, [lines[0], "\n".join(lines[1:-1]), lines[-1]])
        reached["grid"] += 1
        reached["negative cells"] += any(x < 0 for row in rows for x in row)
        reached["1 000% or more"] += any(abs(x) >= 10.0 for row in rows[3:] for x in row)

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
