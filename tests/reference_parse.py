"""Reference parsers for the differential tests of the CSV reader.

``reference_parse_numbers`` matches every field against the strict
grammar, one field at a time, and only then converts the column.
``nosell.cli._parse_numbers`` must return the same float64 bytes, or raise
the same ``_RowError`` (same row, same message).

``reference_parse_portfolio`` reads a portfolio file line by line: it
keeps each content line with its line number, splits each row on its own
and strips each field.  ``nosell.cli.parse_portfolio`` must return the
same portfolio, or raise ``PortfolioFormatError`` with the same message.
"""

import math
import re

import numpy as np

from nosell.cli import PortfolioFormatError
from nosell.portfolio import Portfolio, _RowError

#: ASCII, so that \d is 0-9 alone: in a str pattern it matches any Unicode
#: decimal digit, and float() reads those too.
_NUMBER_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)

_HEADER = ("id", "value", "target")


def reference_parse_numbers(fields, label=""):
    """A non-empty column of stripped fields as one float64 array, behind
    the strict grammar: no nan or inf, no separators.  The first field
    that breaks it raises _RowError with its index, the message led by
    ``label``."""
    if not all(map(_NUMBER_RE.fullmatch, fields)):
        row = next(i for i, field in enumerate(fields) if not _NUMBER_RE.fullmatch(field))
        raise _RowError(row, f"{label}{fields[row]!r} is not a plain decimal number")
    return np.array(fields, dtype=np.float64)


def _content_lines(text):
    """(line number, stripped line) of every line that is neither blank
    nor a ``#`` comment."""
    return [
        (lineno, line)
        for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1)
        if line and not line.startswith("#")
    ]


def reference_parse_portfolio(text, normalize=False, allow_short=False):
    lines = _content_lines(text)
    if not lines:
        raise PortfolioFormatError("empty portfolio file: missing header")
    (header_lineno, header), *rows = lines
    if tuple(field.strip() for field in header.split(",")) != _HEADER:
        raise PortfolioFormatError(
            f"line {header_lineno}: expected header 'id,value,target', got {header!r}"
        )
    if not rows:
        raise PortfolioFormatError("portfolio file contains no asset rows")
    split = [line.split(",") for _, line in rows]
    try:
        if set(map(len, split)) != {3}:
            row = next(i for i, fields in enumerate(split) if len(fields) != 3)
            raise _RowError(row, f"expected 3 fields, got {len(split[row])}")
        ids, value_fields, target_fields = ([field.strip() for field in column] for column in zip(*split))
        values = reference_parse_numbers(value_fields, "value ")
        targets = reference_parse_numbers(target_fields, "target ")
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
                targets = targets / targets.max()
                total = math.fsum(targets.tolist())
            if total <= 0.0:
                raise PortfolioFormatError("cannot normalize: weights sum to zero")
            targets = targets / total
        return Portfolio._from_columns(tuple(ids), values, targets, allow_short)
    except _RowError as exc:
        raise PortfolioFormatError(f"line {rows[exc.row][0]}: {exc}") from None
