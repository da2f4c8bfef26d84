"""Reference number parser for the differential tests of the CSV columns.

``reference_parse_numbers`` matches every field against the strict
grammar, one field at a time, and only then converts the column.
``nosell.cli._parse_numbers`` must return the same float64 bytes, or raise
the same ``_RowError`` (same row, same message).
"""

import re

import numpy as np

from nosell.portfolio import _RowError

#: ASCII, so that \d is 0-9 alone: in a str pattern it matches any Unicode
#: decimal digit, and float() reads those too.
_NUMBER_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)


def reference_parse_numbers(fields, label=""):
    """A non-empty column of stripped fields as one float64 array, behind
    the strict grammar: no nan or inf, no separators.  The first field
    that breaks it raises _RowError with its index, the message led by
    ``label``."""
    if not all(map(_NUMBER_RE.fullmatch, fields)):
        row = next(i for i, field in enumerate(fields) if not _NUMBER_RE.fullmatch(field))
        raise _RowError(row, f"{label}{fields[row]!r} is not a plain decimal number")
    return np.array(fields, dtype=np.float64)
