"""Command-line interface and file formats.

Two console entry points:

* ``rebalance``: read a portfolio CSV, compute a buy-only plan for a cash
  contribution, and print a table or JSON report.
* ``project-simplex``: project a vector of reals onto the unit simplex.

The CSV grammar is deliberately strict: header ``id,value,target``,
period decimal separator, no thousands separators, ``#`` starts a
comment line.  Strictness keeps files bit-exact and diff-friendly.

Exit codes: 0 on success, 2 on any input error.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .portfolio import Portfolio, RebalancePlan, _RowError, rebalance
from .solvers import L1Case, L2Solution, sample_l1_member, simplex_mle

#: ASCII, so that \d is 0-9 alone: in a str pattern it matches any Unicode
#: decimal digit, and float() reads those too.
_NUMBER_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)

#: How a number that float() reads starts in ASCII: a digit, or a point and
#: a digit, or inf or nan in any case, after an optional sign.
_NUMBER_START = re.compile(r"[+-]?(?:\d|\.\d|inf|nan)", re.ASCII | re.IGNORECASE)

_HEADER = ("id", "value", "target")


class PortfolioFormatError(ValueError):
    """Malformed portfolio file; message carries a line number."""


def _lines(text: str) -> List[str]:
    """Every line of ``text``, stripped."""
    return list(map(str.strip, text.splitlines()))


def _content(lines: List[str]) -> List[str]:
    """The stripped lines that are neither blank nor a ``#`` comment."""
    return [line for line in lines if line and line[0] != "#"]


def _line_number(lines: List[str], row: int) -> int:
    """The line number (1 the first) of ``_content(lines)[row]``, worked
    out only for an error message."""
    return [number for number, line in enumerate(lines, start=1) if line and line[0] != "#"][row]


def _parse_numbers(fields: List[str], label: str = "") -> np.ndarray:
    """A non-empty column of stripped fields as one float64 array, behind
    the strict grammar: no nan or inf, no separators.  The first field
    that breaks it raises _RowError with its index, the message led by
    ``label``.

    The column is converted once (numpy reads each str by float()), and
    kept if it is all finite and its text is ASCII with no ``_``.  A
    stripped text that float() reads is an optional sign, then inf,
    infinity or nan in any case, or a decimal with an optional exponent
    whose digits are any Unicode decimal digits, with single ``_`` between
    them.  ASCII leaves the digits 0-9, no ``_`` leaves no separators, and
    finiteness leaves no inf or nan: what is left is _NUMBER_RE's texts.
    Any other column (one that float() refuses, or one past the float64
    range, such as ``1e999``, which the grammar allows) is matched field
    by field, so the first bad field is named, and a column that passes
    keeps its conversion.
    """
    try:
        column = np.array(fields, dtype=np.float64)
    except ValueError:
        column = None
    else:
        text = "".join(fields)
        if text.isascii() and "_" not in text and np.isfinite(column).all():
            return column
    if not all(map(_NUMBER_RE.fullmatch, fields)):
        row = next(i for i, field in enumerate(fields) if not _NUMBER_RE.fullmatch(field))
        raise _RowError(row, f"{label}{fields[row]!r} is not a plain decimal number")
    # float() reads every text of the grammar, so the column was converted
    return column


def parse_portfolio(text: str, normalize: bool = False, allow_short: bool = False) -> Portfolio:
    """Parse portfolio CSV text into a :class:`Portfolio`.

    With ``normalize``, the target column is taken as nonnegative weights
    and rescaled to sum to 1; otherwise each target must already lie in
    [0, 1] and the column must sum to 1 within tolerance.  Every error
    about one row names its line.
    """
    lines = _lines(text)
    content = _content(lines)
    if not content:
        raise PortfolioFormatError("empty portfolio file: missing header")
    header, *rows = content
    if tuple(map(str.strip, header.split(","))) != _HEADER:
        raise PortfolioFormatError(
            f"line {_line_number(lines, 0)}: expected header 'id,value,target', got {header!r}"
        )
    if not rows:
        raise PortfolioFormatError("portfolio file contains no asset rows")
    try:
        commas = list(map(str.count, rows, repeat(",")))
        if set(commas) != {2}:
            row = next(i for i, count in enumerate(commas) if count != 2)
            raise _RowError(row, f"expected 3 fields, got {commas[row] + 1}")
        # every row holds two commas, so the joined rows split into fields
        # three by three
        fields = list(map(str.strip, ",".join(rows).split(",")))
        ids, value_fields, target_fields = fields[0::3], fields[1::3], fields[2::3]
        values = _parse_numbers(value_fields, "value ")
        targets = _parse_numbers(target_fields, "target ")
        if normalize:
            negative = targets < 0.0
            if negative.any():
                row = int(negative.argmax())
                raise _RowError(row, f"weight {float(targets[row])!r} must be nonnegative under --normalize")
            infinite = np.isinf(targets)
            if infinite.any():
                row = int(infinite.argmax())
                raise _RowError(row, f"weight {target_fields[row]!r} is not a finite float64")
            try:
                total = math.fsum(targets.tolist())
            except OverflowError:
                # the weights' sum passes the float64 maximum: sum them
                # scaled by the largest one
                targets = targets / targets.max()
                total = math.fsum(targets.tolist())
            if total <= 0.0:
                raise PortfolioFormatError("cannot normalize: weights sum to zero")
            targets = targets / total
        return Portfolio._from_columns(tuple(ids), values, targets, allow_short)
    except _RowError as exc:
        # the header is content line 0
        raise PortfolioFormatError(f"line {_line_number(lines, exc.row + 1)}: {exc}") from None


def serialize_portfolio(portfolio: Portfolio) -> str:
    """Inverse of :func:`parse_portfolio`, each number written as the JSON
    report writes it: at 10 significant digits, by _sig10's rule.

    parse(serialize(p)) reproduces every value to the emitted precision
    and serialize is a fixed point on the result.
    """
    lines = [",".join(_HEADER)]
    values, targets = _sig10_texts(portfolio.values.tolist()), _sig10_texts(portfolio.targets.tolist())
    for asset_id, value, target in zip(portfolio.ids, values, targets):
        # the id must read back as the one content line it is
        if "," in asset_id or _content(_lines(asset_id)) != [asset_id]:
            raise ValueError(f"asset id {asset_id!r} cannot be serialized")
        lines.append(f"{asset_id},{value},{target}")
    return "\n".join(lines) + "\n"


def _sig10(x: float) -> float:
    """``x`` at 10 significant digits, for the JSON report and the CSV file.

    A finite ``x`` whose rounding overflows (it lies above 1.797693135e308)
    is returned unrounded.  A non-finite ``x`` raises ValueError: strict
    JSON has no encoding for it.
    """
    rounded = float("%.10g" % x)
    if math.isfinite(rounded):
        return rounded
    if math.isfinite(x):
        return float(x)
    raise ValueError(f"the JSON report cannot hold the non-finite number {x!r}")


#: The exponents at which the text ``"%.10g" % x`` is not ``repr(_sig10(x))``
#: up to a ``.0`` after an integral text.  Distinct 10-digit decimals lie
#: about 1e-10 apart relative to their size, so repr of the rounded float
#: keeps exactly their digits, except at exponents +10..+15, which repr
#: writes positionally; at +308, where the rounding can overflow; and at
#: -308 and below, where subnormal floats are coarser than 10 digits.
#: The texts inf and nan, the only ones with an ``n``, differ as well.
_NOT_REPR_EXPONENT = re.compile(r"e(?:\+(?:1[0-5]|308)|-3(?:0[89]|[12]\d))$", re.MULTILINE)


def _sig10_texts(column: List[float]) -> List[str]:
    """``repr(_sig10(x))`` for every ``x`` of ``column``: one ``%.10g`` text
    per number, checked in one pass over the whole column.  If repr would
    write any of them otherwise, the whole column takes the scalar rule,
    which also refuses a non-finite number."""
    texts = list(map("%.10g".__mod__, column))
    joined = "\n".join(texts)
    if "n" in joined or _NOT_REPR_EXPONENT.search(joined):
        return [repr(_sig10(x)) for x in column]
    return [text if "." in text or "e" in text else text + ".0" for text in texts]


#: Per-asset fields of the JSON report, in output order.
_ASSET_FIELDS = ("id", "value", "target", "naive", "adjustment", "adjustment_cents", "final_allocation")

#: One asset object as ``json.dumps(..., indent=2)`` lays it out inside the
#: assets array, with a ``%s`` slot per field for its encoded value.
_ASSET_OBJECT = (
    "{\n"
    + ",\n".join(f"      {encode_basestring_ascii(name)}: %s" for name in _ASSET_FIELDS)
    + "\n    }"
)

#: The report's opening brace and header members as ``json.dumps(...,
#: indent=2)`` lays them out, up to the comma before the assets: the
#: certificate of an l2 plan, and the case of an l1 plan with its alpha or
#: slack.  ``%r`` writes a float as json does.
_L2_HEADER = '{\n  "norm": "%s",\n  "budget": %r,\n  "certificate": {\n    "k_star": %d,\n    "lambda_star": %r\n  }'
_L1_HEADER = '{\n  "norm": "%s",\n  "budget": %r,\n  "case": "%s",\n  "%s": %r'


def _json_array(items: List[str], indent: str) -> str:
    """A list of encoded items laid out as ``json.dumps(..., indent=2)`` lays
    it out at the depth whose indentation is ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    separator = ",\n" + inner
    return f"[\n{inner}{separator.join(items)}\n{indent}]"


def render_json(portfolio: Portfolio, plan: RebalancePlan, samples: Optional[List[np.ndarray]] = None) -> str:
    """The JSON report: full precision at 10 significant digits, plus the
    optimality certificate (k*/lambda* for l2, case/alpha or case/slack for
    l1), laid out byte for byte as ``json.dumps(..., indent=2) + "\\n"``.

    The header is filled into a fixed layout.  The lists, which hold a
    number per asset, are encoded a column at a time with json's own rules
    for strings, floats and ints.
    """
    solution = plan.solution
    budget = _sig10(plan.budget)
    if isinstance(solution, L2Solution):
        header = _L2_HEADER % (plan.norm.value, budget, solution.active_count, _sig10(solution.threshold))
    elif solution.case is L1Case.DEFICIT:
        header = _L1_HEADER % (plan.norm.value, budget, solution.case.value, "alpha", _sig10(solution.scale))
    else:
        header = _L1_HEADER % (plan.norm.value, budget, solution.case.value, "slack", _sig10(solution.slack))
    assets = list(map(_ASSET_OBJECT.__mod__, zip(
        map(encode_basestring_ascii, portfolio.ids),
        _sig10_texts(portfolio.values.tolist()),
        _sig10_texts(portfolio.targets.tolist()),
        _sig10_texts(plan.naive.tolist()),
        _sig10_texts(plan.adjustments.tolist()),
        map(str, plan.rounded_cents.tolist()),
        _sig10_texts(plan.final_allocations.tolist()),
    )))
    parts = [header, ',\n  "assets": ', _json_array(assets, "  ")]
    if samples is not None:
        members = [_json_array(_sig10_texts(member.tolist()), "    ") for member in samples]
        parts += [',\n  "samples": ', _json_array(members, "  ")]
    parts.append("\n}\n")
    return "".join(parts)


#: The table's number columns as the rows of one matrix: value, naive and
#: buy in dollars, then target, final and current as fractions, which the
#: ``%`` format writes as percents of ``x * 100.0``.
_DOLLAR_ROWS = 3
_ROW_SCALE = np.array([[1.0]] * _DOLLAR_ROWS + [[100.0]] * 3)


def _cells(numbers: np.ndarray) -> List[List[str]]:
    """The cell texts of the table's number columns, the rows of
    ``numbers`` (see _ROW_SCALE): whole dollars, then whole percents.  The
    caller ignores numpy's over and invalid warnings.

    Each magnitude is rounded by np.rint, half to even on its binary
    value as ``.0f`` rounds, and written as an int, then a ``-`` leads
    each cell whose unrounded number is below zero: -0.3 prints ``-$0``
    and -0.0 prints ``$0``.  A finite magnitude past int64 is written as
    its exact int.  A dollar whose magnitude is not finite prints n/a, and
    so does every cell of a percent row that holds one: the magnitude is
    the percent, so a fraction whose ``x * 100.0`` overflows prints n/a.
    """
    width = numbers.shape[1]
    magnitudes = np.multiply(numbers, _ROW_SCALE)
    np.rint(magnitudes, magnitudes)
    np.absolute(magnitudes, magnitudes)
    whole = magnitudes.astype(np.int64).ravel().tolist()
    # the largest magnitude is nan where any is
    wide = not np.maximum.reduce(magnitudes, None) < 2.0**63
    if wide:
        finite = np.isfinite(magnitudes)
        for i in (finite & (magnitudes >= 2.0**63)).ravel().nonzero()[0].tolist():
            whole[i] = int(magnitudes.flat[i])
    split = _DOLLAR_ROWS * width
    texts = list(map("${:,}".format, whole[:split]))
    texts += map("%d%%".__mod__, whole[split:])
    for i in (numbers.ravel() < 0.0).nonzero()[0].tolist():
        texts[i] = "-" + texts[i]
    if wide:
        finite[_DOLLAR_ROWS:] = finite[_DOLLAR_ROWS:].all(axis=1, keepdims=True)
        for i in (~finite).ravel().nonzero()[0].tolist():
            texts[i] = "n/a"
    return [texts[start : start + width] for start in range(0, len(texts), width)]


def render_table(portfolio: Portfolio, plan: RebalancePlan, samples: Optional[List[np.ndarray]] = None) -> str:
    """Plain-text report, whole dollars and whole percents; the JSON
    format carries the unrounded numbers."""
    total = portfolio.total
    n = portfolio.n
    numbers = np.zeros((6, n + 2))
    numbers[:5, :n] = (portfolio.values, plan.naive, plan.adjustments, portfolio.targets, plan.final_allocations)
    numbers[0, n] = total
    numbers[5, n] = 1.0
    # the last column holds the budget in the value row and zeros below,
    # whose cells ($0, 0%) are narrower than any header and which zip drops
    numbers[0, n + 1] = plan.budget
    # finite entries can sum past the float64 maximum, and a total near zero
    # (or zero) gives shares that are not finite: _cells prints n/a for them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.divide(portfolio.values, total, out=numbers[5, :n])
        # each row is summed pairwise on its own, as column.sum() sums it
        np.add.reduce(numbers[1:5, :n], axis=1, out=numbers[1:5, n])
        value, naive, buy, target, final, current = _cells(numbers)
    contribution = value.pop()
    columns = [["asset", *portfolio.ids, "total"], ["value", *value], ["current", *current], ["target", *target],
               ["naive", *naive], ["buy", *buy], ["final", *final]]
    widths = [max(map(len, column)) for column in columns]
    row_format = "  ".join([f"%-{widths[0]}s"] + [f"%{w}s" for w in widths[1:]])
    rule = "  ".join(["-" * w for w in widths])
    lines = list(map(row_format.__mod__, zip(*columns)))
    lines.insert(1, rule)
    lines.insert(-1, rule)
    if isinstance(plan.solution, L2Solution):
        certificate = f"k* = {plan.solution.active_count}, lambda* = {plan.solution.threshold:.10g}"
    elif plan.solution.case is L1Case.DEFICIT:
        certificate = f"case = deficit, alpha = {plan.solution.scale:.10g}"
    else:
        certificate = f"case = surplus, slack = {plan.solution.slack:.10g}"
    lines.append("")
    lines.append(f"contribution {contribution} allocated under {plan.norm.value}; {certificate}")
    if samples:
        lines.append("")
        lines.append(f"sampled l1 members ({len(samples)}):")
        for member in samples:
            lines.append("  " + ", ".join([f"{v:,.2f}" for v in member.tolist()]))
    return "\n".join(lines) + "\n"


@functools.cache
def _rebalance_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rebalance",
        description="Allocate a cash contribution across a portfolio without selling.",
    )
    parser.add_argument("--input", required=True, help="portfolio CSV file (id,value,target)")
    parser.add_argument("--contribution", required=True, type=float, help="cash to allocate, > 0")
    parser.add_argument("--norm", choices=["l1", "l2"], default="l2", help="distance norm (default l2)")
    parser.add_argument("--format", choices=["table", "json"], default="table", dest="fmt")
    parser.add_argument("--normalize", action="store_true", help="rescale target weights to sum to 1")
    parser.add_argument("--allow-short", action="store_true", help="permit negative asset values")
    parser.add_argument("--sample", type=int, default=0, metavar="K", help="emit K sampled l1 solutions (requires --norm l1)")
    parser.add_argument("--seed", type=int, default=None, help="seed for --sample")
    return parser


def run_rebalance_command(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _rebalance_parser().parse_args(_join_values(argv, "--contribution"))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.sample < 0:
            raise ValueError("--sample must be nonnegative")
        if args.sample and args.norm != "l1":
            raise ValueError("--sample requires --norm l1 (the l2 solution is unique)")
        text = Path(args.input).read_text(encoding="utf-8")
        portfolio = parse_portfolio(text, normalize=args.normalize, allow_short=args.allow_short)
        plan = rebalance(portfolio, args.contribution, args.norm)
        samples = None
        if args.sample:
            rng = np.random.default_rng(args.seed)
            samples = [sample_l1_member(plan.solution, rng) for _ in range(args.sample)]
        render = render_json if args.fmt == "json" else render_table
        report = render(portfolio, plan, samples)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report)
    return 0


@functools.cache
def _simplex_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="project-simplex",
        description="Euclidean projection of a real vector onto the unit simplex.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--values", help="comma-separated reals")
    group.add_argument("--input", help="file with one value per line")
    return parser


def _join_values(argv: Optional[Sequence[str]], option: str) -> List[str]:
    """``argv`` (``sys.argv[1:]`` if None) with ``option``, or a prefix of
    it past its dashes, and a following argument that starts with a number
    (inf and nan included) joined as ``option=...``: argparse (Python
    3.10.13, 3.11.7, 3.12.1 and 3.13.0 checked) takes an argument such as
    ``-0.5,0.5,2``, ``-1e3`` or ``-inf`` for an option and refuses it."""
    joined: List[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        name = joined[-1] if joined else ""
        if len(name) > 2 and option.startswith(name) and _NUMBER_START.match(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def run_project_simplex_command(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _simplex_parser().parse_args(_join_values(argv, "--values"))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.values is not None:
            fields = [field.strip() for field in args.values.split(",")]
        else:
            lines = _lines(Path(args.input).read_text(encoding="utf-8"))
            fields = _content(lines)
        if not fields:
            raise ValueError("no values supplied")
        try:
            values = _parse_numbers(fields)
            finite = np.isfinite(values)
            if not finite.all():
                row = int(finite.argmin())
                raise _RowError(row, f"{fields[row]!r} is not a finite float64")
        except _RowError as exc:
            place = f"value {exc.row + 1}" if args.values is not None else f"line {_line_number(lines, exc.row)}"
            raise ValueError(f"{place}: {exc}") from None
        projected = simplex_mle(values)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(",".join(map("{:.10f}".format, projected.tolist())) + "\n")
    return 0
