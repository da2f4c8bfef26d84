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
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

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

#: A row of a portfolio file as np.loadtxt reads it (see _parse_loadtxt).
_ROW = np.dtype([("id", object), ("value", np.float64), ("target", np.float64)])


class PortfolioFormatError(ValueError):
    """Malformed portfolio file; message carries a line number."""


def _read(path: str) -> str:
    """The text of the file at ``path``: UTF-8, a leading BOM (as
    spreadsheets write "CSV UTF-8") taken as encoding, not content."""
    return Path(path).read_text(encoding="utf-8-sig")


def _content(text: str) -> List[Tuple[int, str]]:
    """``(line number, stripped line)``, the first line 1, of every line of
    ``text`` that is neither blank nor a ``#`` comment."""
    lines = enumerate(map(str.strip, text.splitlines()), start=1)
    return [(number, line) for number, line in lines if line and line[0] != "#"]


def _parse_numbers(fields: List[str], label: str = "") -> np.ndarray:
    """A non-empty column of stripped fields as one float64 array, behind
    the strict grammar: no nan or inf, no separators.  The first field
    that breaks it raises _RowError with its index, the message led by
    ``label``.  float() reads every text of the grammar, one past the
    float64 range, such as ``1e999``, as inf.
    """
    if not all(map(_NUMBER_RE.fullmatch, fields)):
        row = next(i for i, field in enumerate(fields) if not _NUMBER_RE.fullmatch(field))
        raise _RowError(row, f"{label}{fields[row]!r} is not a plain decimal number")
    return np.array(fields, dtype=np.float64)


def _parse_loadtxt(text: str, normalize: bool, allow_short: bool) -> Optional[Portfolio]:
    """The portfolio of a valid ``text`` in one np.loadtxt call, or None
    for the line-by-line reader.  A plain text, one that is ASCII and holds
    no space, tab, ``\\x1f`` or ``#``, is read as it is if its first line is
    the header: str.strip takes nothing off its lines, none is a comment,
    and loadtxt skips the blank ones.  Any other text is read from its
    content lines (see _content), and its ids are stripped.  loadtxt takes
    the whitespace around each number off as str.strip does, reads the
    number as float() does (both round it correctly) but also inf, nan and
    1e999, and raises ValueError on a row of other than three fields or a
    number such as ``1_0``, ``0x10`` or one with a non-ASCII digit.  A text
    it refuses, a column that is not finite and a portfolio that _portfolio
    refuses fall through: the line-by-line reader writes every error
    message.
    """
    plain = text.isascii() and not any(map(text.__contains__, " \t\x1f#"))
    lines = text.splitlines() if plain else [line for _, line in _content(text)]
    # loadtxt warns on a text with no rows
    if not lines or tuple(map(str.strip, lines[0].split(","))) != _HEADER or not any(lines[1:]):
        return None
    try:
        table = np.loadtxt(lines, _ROW, comments=None, delimiter=",", skiprows=1, ndmin=1)
        values, targets = np.ascontiguousarray(table["value"]), np.ascontiguousarray(table["target"])
        if np.isfinite(values).all() and np.isfinite(targets).all():
            ids = table["id"].tolist()
            return _portfolio(tuple(ids if plain else map(str.strip, ids)), values, targets, None, normalize,
                              allow_short)
    except ValueError:
        pass
    return None


def _portfolio(ids: Tuple[str, ...], values: np.ndarray, targets: np.ndarray, target_fields: Optional[List[str]],
               normalize: bool, allow_short: bool) -> Portfolio:
    """The portfolio of both readers' columns, the targets rescaled first
    under ``normalize`` (see parse_portfolio).  ``target_fields``, the
    targets' texts, names a weight that is not finite: the loadtxt
    reader's are all finite, and it passes None."""
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
    return Portfolio._from_columns(ids, values, targets, allow_short)


def parse_portfolio(text: str, normalize: bool = False, allow_short: bool = False) -> Portfolio:
    """Parse portfolio CSV text into a :class:`Portfolio`.

    With ``normalize``, the target column is taken as nonnegative weights
    and rescaled to sum to 1; otherwise each target must already lie in
    [0, 1] and the column must sum to 1 within tolerance.  Every error
    about one row names its line.

    Every valid text is read in one np.loadtxt call (see
    _parse_loadtxt).  A text that it refuses takes the line-by-line
    reader, which walks the numbered content lines and writes every error
    message.
    """
    portfolio = _parse_loadtxt(text, normalize, allow_short)
    if portfolio is not None:
        return portfolio
    lines = _content(text)
    if not lines:
        raise PortfolioFormatError("empty portfolio file: missing header")
    (number, header), *rows = lines
    if tuple(map(str.strip, header.split(","))) != _HEADER:
        raise PortfolioFormatError(f"line {number}: expected header 'id,value,target', got {header!r}")
    if not rows:
        raise PortfolioFormatError("portfolio file contains no asset rows")
    try:
        split = [line.split(",") for _, line in rows]
        for row, fields in enumerate(split):
            if len(fields) != 3:
                raise _RowError(row, f"expected 3 fields, got {len(fields)}")
        ids, value_fields, target_fields = ([field.strip() for field in column] for column in zip(*split))
        values = _parse_numbers(value_fields, "value ")
        targets = _parse_numbers(target_fields, "target ")
        return _portfolio(tuple(ids), values, targets, target_fields, normalize, allow_short)
    except _RowError as exc:
        raise PortfolioFormatError(f"line {rows[exc.row][0]}: {exc}") from None


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
        if "," in asset_id or _content(asset_id) != [(1, asset_id)]:
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


#: The fewest assets whose JSON report _json_cells and _json_layout write;
#: below it, _sig10_texts' lower fixed cost wins.  Measured on rebalance
#: commands amid other commands, as _GRID_ROWS is.
_JSON_GRID_ROWS = 112

# _json_cells writes each number of the asset array as a run of four-byte
# slots, each one uint32 lookup, NUL where a slot holds fewer bytes, and
# _json_layout drops every NUL once all rows are written.  A float x of
# decimal exponent E is written from its 10 digits D = rint(|x| * 10**(9
# - E)) as repr writes D * 10**(E - 9): its whole part in groups of three
# digits from the right, its ``-`` in the top group's slot (a slot has
# room for it), then its fraction as 15 digits in groups from the left
# (``.ddd``, then ``dddd``), trailing zeros dropped, then its exponent.  It
# is positional for -4 <= E < 16 (``0.0001``, ``1234567890000000.0``), in
# the exponent form otherwise (``1e-05``, ``1.5e+16``).  A number's key is
# E + 14, which picks its powers of ten and its exponent's text; a zero's
# key is 0, and a cent's 47: a cent takes the whole part's slots alone.


@functools.cache
def _json_slots() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tables of _json_cells, read-only:

    * every slot text, one uint32 element each: at g the whole part's
      group g below the top; at 1000 + g and 2000 + g the top group g of
      the last slot, unsigned and signed, and at 3000 + g and 4000 + g
      that of any other slot, where a top group 0 is blank; from 5000 the
      first fraction group ``.ddd``, then with its trailing zeros dropped,
      0 as ``.0`` (at 6000) or blank (at 7000); from 8000 a later group
      ``dddd``, then with its trailing zeros dropped, 0 blank; from 28000
      the exponent's text by key;
    * by the biased binary exponent b of |x| (its float64 bits >> 52):
      the key of 10**floor((b - 1023) * log10(2)), which (b - 1023) * 1233
      >> 12 is for |b - 1023| < 681, and the least float64 not below ten
      times that power, from which on the key is one more;
    * by key, float64 rows: the exact powers of ten by which |x| * 10**(9
      - E) is one correctly rounded product, then quotient (the product
      is nan outside 1e-13 <= |x| < 1e32); then those by which D's whole
      part is floor(D * up / down), and its fraction, as 15 digits, the
      remainder times ``scale``;
    * by key, where a fraction of 0 takes its first group's text: 1000
      past ``.ddd``, ``.0``, in the positional form, and 2000, blank, in
      the exponent form and for a cent.
    """
    tops = [str(group) for group in range(1000)]
    signed = ["-" + top for top in tops]
    whole = ["%03d" % group for group in range(1000)] + tops + signed + [""] + tops[1:] + [""] + signed[1:]
    first = [".%03d" % group for group in range(1000)]
    stripped = [text.rstrip("0") for text in first[1:]]
    first += [".0"] + stripped + [""] + stripped
    exponents = ["" if -4 <= key - 14 < 16 or key in (0, 47) else "e%+03d" % (key - 14) for key in range(48)]
    # a later group's four digits, each kept where a digit from it on is not 0
    groups, powers = np.arange(10000)[:, None], np.array([1000, 100, 10, 1])
    later = (groups // powers % 10 + 48).astype(np.uint8)
    kept = groups % (10 * powers) != 0
    texts = ("".join([text.rjust(4, "\0") for text in whole]) + "".join([text.ljust(4, "\0") for text in first])
             + later.tobytes().decode("ascii") + (later * kept).tobytes().decode("ascii")
             + "".join([text.ljust(4, "\0") for text in exponents]))
    bounds, rows, zeros = [], [], []
    for key in range(48):
        e = key - 14
        # the least float64 not below 10**e
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        bound = num / den
        ratio = bound.as_integer_ratio()
        bounds.append(math.nextafter(bound, math.inf) if ratio[0] * den < num * ratio[1] else bound)
        positional = -4 <= e < 16 or key == 0
        shift = 9 - e if positional and key else 9
        exact = 1 <= key <= 45
        rows.append((float(10 ** max(9 - e, 0)) if exact else math.nan, float(10 ** max(e - 9, 0)) if exact else 1.0,
                     float(10 ** max(-shift, 0)), float(10 ** max(shift, 0)), float(10 ** (15 - max(shift, 0)))))
        zeros.append(1000 if positional and key < 47 else 2000)
    lower = np.clip(((np.arange(2048) - 1023) * 1233 >> 12) + 14, 0, 46)
    tables = (np.frombuffer(texts.encode("ascii"), np.uint32), lower, np.array(bounds).take(lower + 1),
              np.array(rows).T.copy(), np.array(zeros, np.int64))
    # every caller shares them
    for table in tables:
        table.flags.writeable = False
    return tables


def _json_cells(ids: Tuple[str, ...], numbers: np.ndarray, cents: np.ndarray) -> List[tuple]:
    """The cells of the JSON report's asset objects in report order (id,
    value, target, naive, adjustment, cents, final), for _json_layout.
    ``numbers`` holds the rows of value, target, naive, adjustment and
    final.  Each cell is its words, a uint32 array of a four-byte word per
    asset each; its width in words; and, if any, the assets whose text it
    holds whole, with those texts, NUL-padded, as rows of words.  Each
    number's text is repr(_sig10(x)), each cent's str, and each id's
    encode_basestring_ascii, which never holds a NUL.

    A tie at the 10th digit is decided on the binary value, half to even,
    as ``%.10g`` decides it: the float product |x| * 10**(9 - E) lies
    within half an ulp (2**-20 at most) of the exact one, so it is rounded
    here unless it lies within 2**-17 of a tie.  Such a number takes the
    scalar rule, as does each one outside 1e-13 <= |x| < 1e32 (zero
    aside), where the product is not one correctly rounded operation or
    the rounding can overflow, and a cent of -2**63, whose magnitude int64
    does not hold.  The caller ignores numpy's over and invalid warnings.
    """
    texts, lower, above, (multiplier, divisor, up, down, scale), zeros = _json_slots()
    n = len(ids)
    magnitudes = np.absolute(numbers)
    exponents = magnitudes.view(np.int64) >> 52
    keys = lower.take(exponents)
    keys += magnitudes >= above.take(exponents)
    product = multiplier.take(keys)
    product *= magnitudes
    product /= divisor.take(keys)
    digits = np.rint(product)
    product -= digits
    decided = np.absolute(product, out=product) < 0.5 - 2.0**-17
    # the numbers the scalar rule writes, the cents' row last; they and the
    # zeros are written here as zeros
    odd = np.empty((6, n), bool)
    np.not_equal(magnitudes, 0.0, out=odd[:5])
    np.greater(odd[:5], decided, out=odd[:5])
    np.copyto(digits, 0.0, where=~decided)
    keys *= decided
    # 10**10 is one digit more: 10**9 at the next exponent
    over = digits == 1e10
    np.copyto(digits, 1e9, where=over)
    keys += over
    digits *= up.take(keys)
    divisors = down.take(keys)
    whole = np.empty((6, n), np.int64)
    fraction = np.zeros((6, n), np.int64)
    quotient = np.divide(digits, divisors)
    whole[:5] = np.floor(quotient, out=quotient)
    quotient *= divisors
    digits -= quotient
    digits *= scale.take(keys)
    fraction[:5] = digits
    np.absolute(cents, out=whole[5])
    np.less(whole[5], 0, out=odd[5])
    whole[5] *= ~odd[5]
    # the whole part's slots, the last at the right, then the fraction's
    # from the left, then the exponent's
    count = -(-len(str(int(whole.max()))) // 3)
    slots = np.empty((count + 5, 6, n), np.uint32)
    # where the top group's texts start: signed or not, in the last slot
    offsets = np.empty((6, n), np.int64)
    np.signbit(numbers, out=offsets[:5])
    np.less(cents, 0, out=offsets[5])
    offsets *= 1000
    offsets += 1000
    index = np.empty((6, n), np.int64)
    quotient = whole
    for slot in range(count - 1, -1, -1):
        upper = quotient // 1000
        np.multiply(upper, -1000, out=index)
        index += quotient
        np.add(index, offsets, out=index, where=upper == 0)
        texts.take(index, out=slots[slot], mode="clip")
        if slot == count - 1:
            offsets += 2000
        quotient = upper
    row_keys = np.full((6, n), 47, np.int64)
    row_keys[:5] = keys
    remainder = fraction
    for slot, base in enumerate((10**12, 10**8, 10**4)):
        group = remainder // base
        np.multiply(group, -base, out=index)
        remainder += index
        group += 8000 if slot else 5000
        np.add(group, 10000 if slot else zeros.take(row_keys), out=group, where=remainder == 0)
        texts.take(group, out=slots[count + slot], mode="clip")
    remainder += 18000
    texts.take(remainder, out=slots[count + 3], mode="clip")
    row_keys += 28000
    texts.take(row_keys, out=slots[count + 4], mode="clip")
    # the slots some asset fills: the whole part's from the right, the
    # fraction's from the left
    filled = (slots.max(axis=2) != 0).T.tolist()
    # the scalar rule's texts, row by row, so that the first number that is
    # not finite is the one named
    fallbacks = {}
    for row in np.flatnonzero(odd.any(axis=1)).tolist():
        where = np.flatnonzero(odd[row])
        values = (cents if row == 5 else numbers[row])[where].tolist()
        fallbacks[row] = where, list(map(str, values)) if row == 5 else [repr(_sig10(x)) for x in values]
    encoded = list(map(encode_basestring_ascii, ids))
    width = -(-max(map(len, encoded)) // 4)
    cells = [(list(np.array(encoded, f"S{4 * width}").view(np.uint32).reshape(n, width).T), width, None)]
    for row in (0, 1, 2, 3, 5, 4):
        used = filled[row]
        words = [slots[slot, row] for slot, fills in enumerate(used) if fills]
        width = len(words)
        fallback = fallbacks.get(row)
        if fallback:
            where, written = fallback
            width = max(width, -(-max(map(len, written)) // 4))
            fallback = where, np.array(written, f"S{4 * width}").view(np.uint32).reshape(-1, width)
        cells.append((words, width, fallback))
    return cells


def _json_layout(head: str, cells, tail: str) -> str:
    """``head``, the asset objects of ``cells`` (see _json_cells) separated
    as _json_array separates them, then ``tail``.

    The text is written into one byte grid behind ``head``, a row per
    asset: _ASSET_OBJECT's bytes and the separator around the cells, each
    cell aligned to four bytes, and NUL where nothing is written.  Then
    every NUL is dropped at once.
    """
    head += "\0" * (-len(head) % 4)
    template = ""
    starts = []
    for piece, (_, width, _) in zip(_ASSET_OBJECT.split("%s"), cells):
        template += piece
        template += "\0" * (-len(template) % 4)
        starts.append(len(template) // 4)
        template += "\0" * (4 * width)
    template += _ASSET_OBJECT.rsplit("%s", 1)[1]
    end = len(template)
    template += ",\n    "
    template += "\0" * (-len(template) % 4)
    n = len(cells[0][0][0])
    text = bytearray(len(head) + n * len(template) + len(tail))
    text[: len(head)] = head.encode("ascii")
    text[len(text) - len(tail) :] = tail.encode("ascii")
    grid = np.frombuffer(text, np.uint32, n * len(template) // 4, len(head)).reshape(n, -1)
    grid[:] = np.frombuffer(template.encode("ascii"), np.uint32)
    for (words, width, fallback), start in zip(cells, starts):
        for column, word in enumerate(words, start):
            grid[:, column] = word
        if fallback:
            where, written = fallback
            grid[where, start : start + width] = written
    # no separator after the last object
    grid.view(np.uint8)[-1, end:] = 0
    # the grid freed before the text is decoded, which can then reuse its
    # memory
    del grid
    text = text.translate(None, b"\0")
    return text.decode("ascii")


def _json_tail(samples: Optional[List[np.ndarray]]) -> str:
    """The JSON report's text after its assets array: the samples, if any,
    and the closing brace."""
    if samples is None:
        return "\n}\n"
    members = [_json_array(_sig10_texts(member.tolist()), "    ") for member in samples]
    return ',\n  "samples": ' + _json_array(members, "  ") + "\n}\n"


def render_json(portfolio: Portfolio, plan: RebalancePlan, samples: Optional[List[np.ndarray]] = None) -> str:
    """The JSON report: full precision at 10 significant digits, plus the
    optimality certificate (k*/lambda* for l2, case/alpha or case/slack for
    l1), laid out byte for byte as ``json.dumps(..., indent=2) + "\\n"``.

    The header is filled into a fixed layout.  The lists, which hold a
    number per asset, are encoded a column at a time with json's own rules
    for strings, floats and ints; from _JSON_GRID_ROWS assets on, the
    asset objects are written by numpy into one byte grid (see
    _json_cells), and a number it cannot decide takes the same rule.
    """
    solution = plan.solution
    budget = _sig10(plan.budget)
    if isinstance(solution, L2Solution):
        header = _L2_HEADER % (plan.norm.value, budget, solution.active_count, _sig10(solution.threshold))
    elif solution.case is L1Case.DEFICIT:
        header = _L1_HEADER % (plan.norm.value, budget, solution.case.value, "alpha", _sig10(solution.scale))
    else:
        header = _L1_HEADER % (plan.norm.value, budget, solution.case.value, "slack", _sig10(solution.slack))
    if portfolio.n >= _JSON_GRID_ROWS:
        numbers = np.array([portfolio.values, portfolio.targets, plan.naive, plan.adjustments, plan.final_allocations])
        with np.errstate(over="ignore", invalid="ignore"):
            cells = _json_cells(portfolio.ids, numbers, plan.rounded_cents)
        return _json_layout(header + ',\n  "assets": [\n    ', cells, "\n  ]" + _json_tail(samples))
    assets = list(map(_ASSET_OBJECT.__mod__, zip(
        map(encode_basestring_ascii, portfolio.ids),
        _sig10_texts(portfolio.values.tolist()),
        _sig10_texts(portfolio.targets.tolist()),
        _sig10_texts(plan.naive.tolist()),
        _sig10_texts(plan.adjustments.tolist()),
        map(str, plan.rounded_cents.tolist()),
        _sig10_texts(plan.final_allocations.tolist()),
    )))
    return header + ',\n  "assets": ' + _json_array(assets, "  ") + _json_tail(samples)



#: The table's number columns as the rows of one matrix: value, naive and
#: buy in dollars, then target, final and current as fractions, which the
#: ``%`` format writes as percents of ``x * 100.0``.
_DOLLAR_ROWS = 3
_ROW_SCALE = np.array([[1.0]] * _DOLLAR_ROWS + [[100.0]] * 3)

#: The fewest asset rows whose table _grid writes, unless it is wide (see
#: _magnitudes); below it, _cells' lower fixed cost wins.  Measured on
#: rebalance commands amid other commands: a loop of render_table alone
#: keeps numpy's calls warm and puts it near 20.
_GRID_ROWS = 48


def _magnitudes(numbers: np.ndarray) -> Tuple[np.ndarray, bool]:
    """The whole magnitudes of the table's cells, the rows of ``numbers``
    (see _ROW_SCALE), and whether any is past int64 or not finite: such a
    table is wide, and only _cells writes it.

    Each magnitude is rounded by np.rint, half to even on its binary value
    as ``.0f`` rounds.  The caller ignores numpy's over and invalid
    warnings.
    """
    magnitudes = np.multiply(numbers, _ROW_SCALE)
    np.rint(magnitudes, magnitudes)
    np.absolute(magnitudes, magnitudes)
    # the largest magnitude is nan where any is
    return magnitudes, not np.maximum.reduce(magnitudes, None) < 2.0**63


def _cells(numbers: np.ndarray, magnitudes: np.ndarray, wide: bool) -> List[List[str]]:
    """The cell texts of the table's number columns, the rows of
    ``numbers`` (see _ROW_SCALE): whole dollars, then whole percents, from
    the cells' magnitudes and whether they are wide (see _magnitudes).
    The caller ignores numpy's over and invalid warnings.

    Each magnitude is written as an int, then a ``-`` leads each cell
    whose unrounded number is below zero: -0.3 prints ``-$0`` and -0.0
    prints ``$0``.  A finite magnitude past int64 is written as its exact
    int.  A dollar whose magnitude is not finite prints n/a, and so does
    every cell of a percent row that holds one: the magnitude is the
    percent, so a fraction whose ``x * 100.0`` overflows prints n/a.
    """
    width = numbers.shape[1]
    whole = magnitudes.astype(np.int64).ravel().tolist()
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


# _grid writes each cell as a run of slots, a slot being a few bytes that
# one table lookup fills.  A dollar cell's slots are four bytes, each of
# three digits: ",ddd" below the top group, its first digits and ``$`` at
# the top ("  $5", "$999"), blanks left of the top.  A percent cell's are
# two bytes, each of two digits; its ``%`` is the row template's ``%%``.
# A ``-`` shares the top slot where it fits ("-$99", "-5") and takes the
# slot left of it where not; every cell has one slot more than its block's
# largest magnitude fills, for that.  A cell's key, its digit count plus
# 20 if it is negative, fixes which text each of its slots takes, and how
# long its text is.

#: 10.0**k for k in 1..19, after 0.0 for k = 0 (see _grid).  Built from
#: Python floats: numpy's power and concatenate, run at import, cost every
#: process about 0.25 MB more memory.
_TENS = np.array([0.0] + [float(10**k) for k in range(1, 20)])


@functools.cache
def _slots(dollars: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """The slot tables of the dollar or the percent cells, read-only:

    * every slot text, one uint32 or uint16 element each: at ``g`` the
      group g below the top, at ``base + g`` and ``2 * base + g`` the top
      group g unsigned and signed, and from ``3 * base`` on the blank and
      the lone ``-``;
    * by key, the offsets into the texts of the slots of a cell of the
      most slots any magnitude below 2**63 needs, to which each digit slot
      adds its group.  A cell of ``groups`` groups has its top slot
      ``groups`` columns from the right, so a block of ``count`` slots
      takes the last ``count`` columns;
    * by key, the length of the cell's text in bytes;

    then the group base and the digits a slot holds, by which _grid cuts
    each magnitude into slots.
    """
    size, base, per, unit = (4, 1000, 3, "$") if dollars else (2, 100, 2, "")
    tops = [unit + str(group) for group in range(base)]
    signed = ["-" + top if len(top) < size else top for top in tops]
    texts = (",%03d" if dollars else "%02d") * base % tuple(range(base))
    texts += "".join([text.rjust(size) for text in tops + signed + [" ", "-"]])
    # a magnitude below 2**63 has at most 19 digits
    offsets = np.zeros((40, -(-19 // per) + 1), np.int64)
    lengths = np.zeros(40, np.int64)
    for digits in range(1, 20):
        groups = -(-digits // per)
        # the top group's text, ``$`` included
        head = digits - per * (groups - 1) + dollars
        for negative in (0, 1):
            key = digits + 20 * negative
            offsets[key, :-groups] = 3 * base
            offsets[key, -groups] = (1 + negative) * base
            if negative and head == size:
                offsets[key, -groups - 1] = 3 * base + 1
            lengths[key] = negative + head + size * (groups - 1)
    # every caller shares them
    offsets.flags.writeable = lengths.flags.writeable = False
    return np.frombuffer(texts.encode("ascii"), f"u{size}"), offsets, lengths, base, per


def _grid(numbers: np.ndarray, magnitudes: np.ndarray, ids: Tuple[str, ...],
          headers: Tuple[str, ...]) -> Tuple[List[int], List[str]]:
    """The table's column widths and its lines, all rows of assets as one
    text: the header, the asset rows and the total row.  Every one of the
    cells' magnitudes (see _magnitudes) is below 2**63.

    Each cell's text is what _cells writes.  The cells are written by
    numpy into one byte grid, a row per asset and the total, which is the
    format string of the rows: each row starts ``%-{w}s``, the id's place,
    each cell ends where its column does, and a percent's ``%`` is the
    ``%%`` after it.  A cell is read from the slot tables (see _slots):
    each magnitude is cut into groups of three or two digits, and its key
    picks each slot's table part.
    """
    whole = magnitudes.astype(np.int64)
    # the digit count of each magnitude m < 2**63: its bit length e gives
    # t = floor(e * log10(2)), which e * 1233 >> 12 is for every e to 64,
    # and m has t + 1 digits from 10**t on, t below; 0 has 1
    keys = np.frexp(magnitudes)[1]
    keys *= 1233
    keys >>= 12
    keys += magnitudes >= _TENS.take(keys, mode="clip")
    digits = keys.max(axis=1).tolist()
    np.add(keys, 20, out=keys, where=numbers < 0.0)
    blocks = []
    for dollars, rows in ((True, slice(0, _DOLLAR_ROWS)), (False, slice(_DOLLAR_ROWS, 6))):
        texts, offsets, lengths, base, per = _slots(dollars)
        count = -(-max(digits[rows]) // per) + 1
        key = keys[rows]
        # every index lies in the tables: clip spares take a buffer
        slots = offsets[:, -count:].take(key, axis=0, mode="clip")
        quotient = whole[rows]
        for k in range(count - 1, 1, -1):
            above = quotient // base
            slots[..., k] += quotient - above * base
            quotient = above
        slots[..., 1] += quotient
        block = texts.take(slots, mode="clip")
        blocks.append((block.view(np.uint8), lengths.take(key, mode="clip").max(axis=1).tolist()))
    (dollars, (value, naive, buy)), (percents, (target, final, current)) = blocks
    # each number column in table order: its block, row, longest text, and
    # 1 for a percent, whose ``%`` the template writes after the digits
    columns = [(dollars, 0, value, 0), (percents, 2, current, 1), (percents, 0, target, 1),
               (dollars, 1, naive, 0), (dollars, 2, buy, 0), (percents, 1, final, 1)]
    widths = [max(len(headers[0]), max(map(len, ids)), len("total"))]
    widths += [max(len(header), length + percent) for header, (_, _, length, percent) in zip(headers[1:], columns)]
    # the rows' template: two spaces before each number column, which ends
    # in its cell and, for a percent, %%
    template = f"%-{widths[0]}s"
    ends = []
    for (_, _, _, percent), width in zip(columns, widths[1:]):
        template += " " * (2 + width - percent)
        ends.append(len(template))
        template += "%%" * percent
    grid = np.empty((len(ids) + 1, len(template) + 1), np.uint8)
    grid[:] = np.frombuffer((template + "\n").encode("ascii"), np.uint8)
    for (block, row, length, _), end in zip(columns, ends):
        grid[:, end - length : end] = block[row, :, -length:]
    text = grid.tobytes()
    cut = len(ids) * grid.shape[1]
    return widths, [_row_format(widths) % headers, text[: cut - 1].decode("ascii") % ids,
                    text[cut:-1].decode("ascii") % "total"]


def _row_format(widths: List[int]) -> str:
    """The format of a table row of these column widths: the id
    left-aligned, each number right-aligned, two spaces apart."""
    return "  ".join([f"%-{widths[0]}s"] + [f"%{w}s" for w in widths[1:]])


def render_table(portfolio: Portfolio, plan: RebalancePlan, samples: Optional[List[np.ndarray]] = None) -> str:
    """Plain-text report, whole dollars and whole percents; the JSON
    format carries the unrounded numbers."""
    total = portfolio.total
    n = portfolio.n
    headers = ("asset", "value", "current", "target", "naive", "buy", "final")
    numbers = np.zeros((6, n + 1))
    numbers[:5, :n] = (portfolio.values, plan.naive, plan.adjustments, portfolio.targets, plan.final_allocations)
    numbers[0, n] = total
    numbers[5, n] = 1.0
    # finite entries can sum past the float64 maximum, and a total near zero
    # (or zero) gives shares that are not finite: _cells prints n/a for them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.divide(portfolio.values, total, out=numbers[5, :n])
        # each row is summed pairwise on its own, as column.sum() sums it
        np.add.reduce(numbers[1:5, :n], axis=1, out=numbers[1:5, n])
        magnitudes, wide = _magnitudes(numbers)
        if n >= _GRID_ROWS and not wide:
            widths, lines = _grid(numbers, magnitudes, portfolio.ids, headers)
        else:
            value, naive, buy, target, final, current = _cells(numbers, magnitudes, wide)
            columns = [[*portfolio.ids, "total"], value, current, target, naive, buy, final]
            widths = [max(len(header), *map(len, column)) for header, column in zip(headers, columns)]
            row_format = _row_format(widths)
            lines = [row_format % headers, *map(row_format.__mod__, zip(*columns))]
        # freed before the lines are joined: held on, a 5 000-row table's
        # magnitudes cost the joins about 190 more page faults a call under
        # glibc's malloc
        del magnitudes
    rule = "  ".join(["-" * w for w in widths])
    lines.insert(1, rule)
    lines.insert(-1, rule)
    if isinstance(plan.solution, L2Solution):
        certificate = f"k* = {plan.solution.active_count}, lambda* = {plan.solution.threshold:.10g}"
    elif plan.solution.case is L1Case.DEFICIT:
        certificate = f"case = deficit, alpha = {plan.solution.scale:.10g}"
    else:
        certificate = f"case = surplus, slack = {plan.solution.slack:.10g}"
    # the budget as a dollar cell: round() is np.rint on a float
    budget = plan.budget
    contribution = f"{'-' if budget < 0.0 else ''}${abs(round(budget)):,}" if math.isfinite(budget) else "n/a"
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
        text = _read(args.input)
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
            lines = _content(_read(args.input))
            fields = [line for _, line in lines]
        if not fields:
            raise ValueError("no values supplied")
        try:
            values = _parse_numbers(fields)
            finite = np.isfinite(values)
            if not finite.all():
                row = int(finite.argmin())
                raise _RowError(row, f"{fields[row]!r} is not a finite float64")
        except _RowError as exc:
            place = f"value {exc.row + 1}" if args.values is not None else f"line {lines[exc.row][0]}"
            raise ValueError(f"{place}: {exc}") from None
        projected = simplex_mle(values)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(",".join(map("{:.10f}".format, projected.tolist())) + "\n")
    return 0
