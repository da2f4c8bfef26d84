"""CLI behavior: parsing, serialization round-trips, report formats,
exit codes, and the sampling flags."""

import dataclasses
import importlib
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nosell as ns
from nosell import cli
from nosell.cli import (
    PortfolioFormatError,
    parse_portfolio,
    render_json,
    render_table,
    run_project_simplex_command,
    run_rebalance_command,
    serialize_portfolio,
)

from helpers import MASTER_SEED, assets_of, random_portfolio
from oracles import l1_objective
from reference_render import money_texts, reference_plan_to_dict, reference_render_table

GOLDEN_CSV = """\
# five-asset test portfolio, total 10000
id,value,target
growth,1850,0.25
income,2100,0.25
intl,2500,0.25
bonds,1675,0.125
cash,1875,0.125
"""


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.csv"
    path.write_text(GOLDEN_CSV, encoding="utf-8")
    return str(path)


# -- parsing -----------------------------------------------------------------

def test_parse_basic():
    portfolio = parse_portfolio("id,value,target\nA,5000,0.5\nB,3000,0.3\nC,2000,0.2")
    assert portfolio.ids == ("A", "B", "C")
    assert portfolio.total == 10000.0
    assert portfolio.targets.tolist() == [0.5, 0.3, 0.2]


def test_parse_skips_comments_and_blanks():
    text = "# comment\n\nid,value,target\n# another\nA,1,0.5\n\nB,1,0.5\n"
    assert parse_portfolio(text).ids == ("A", "B")


def test_parse_target_sum_violation_names_the_sum():
    text = "id,value,target\nA,1,0.5\nB,1,0.47"
    with pytest.raises(ValueError, match="0.97"):
        parse_portfolio(text)
    # the same file is fine with normalize
    portfolio = parse_portfolio(text, normalize=True)
    assert portfolio.targets.tolist() == pytest.approx([0.5 / 0.97, 0.47 / 0.97], abs=1e-15)


def test_parse_thousands_separator_rejected():
    text = "id,value,target\nA,12,000,0.5\nB,1,0.5"
    with pytest.raises(PortfolioFormatError, match="line 2"):
        parse_portfolio(text)
    text = "id,value,target\nA,12_000,0.5\nB,1,0.5"
    with pytest.raises(PortfolioFormatError, match="line 2.*value"):
        parse_portfolio(text)


@pytest.mark.parametrize(
    "cell",
    # the last four hold non-ASCII decimal digits, which float() reads
    ["nan", "inf", "-inf", "1.2.3", "0x10", "", "two", "1e",
     "\u0663\u0660", "\uff11\uff10", "1e\u0662", "1.\u0665"],
)
def test_parse_strict_numeric_grammar(cell):
    text = f"id,value,target\nA,{cell},1.0"
    with pytest.raises(PortfolioFormatError, match="line 2"):
        parse_portfolio(text)


def test_parse_exponent_and_sign_allowed():
    text = "id,value,target\nA,1.5e3,+0.75\nB,.5e3,.25"
    portfolio = parse_portfolio(text)
    assert portfolio.values.tolist() == [1500.0, 500.0]
    assert portfolio.targets.tolist() == [0.75, 0.25]


def test_parse_duplicate_id_line_numbered():
    text = "id,value,target\nA,1,0.5\nA,1,0.5"
    with pytest.raises(PortfolioFormatError, match="line 3.*duplicate"):
        parse_portfolio(text)


def test_parse_header_required():
    with pytest.raises(PortfolioFormatError, match="header"):
        parse_portfolio("A,1,0.5\nB,1,0.5")
    with pytest.raises(PortfolioFormatError, match="header"):
        parse_portfolio("# only comments\n")
    with pytest.raises(PortfolioFormatError, match="no asset rows"):
        parse_portfolio("id,value,target\n")


def test_parse_bad_target_line_numbered():
    text = "id,value,target\nA,1,0.5\nB,1,1.5"
    with pytest.raises(PortfolioFormatError, match="line 3"):
        parse_portfolio(text)


def test_parse_normalize_rejects_negative_weight():
    text = "id,value,target\nA,1,2\nB,1,-1"
    with pytest.raises(PortfolioFormatError, match="line 3"):
        parse_portfolio(text, normalize=True)
    with pytest.raises(PortfolioFormatError, match="zero"):
        parse_portfolio("id,value,target\nA,1,0\nB,1,0", normalize=True)


@pytest.mark.parametrize(
    "rows, flags, lineno, reason",
    [
        ("A,1,0.5\n# held twice\nA,1,0.5", [], 5, "duplicate asset id 'A'"),
        ("A,1,0.5\n ,1,0.5", [], 4, "asset id must be a non-empty string"),
        ("A,1,0.5\n\nB,1e999,0.5", [], 5, "asset 'B': value must be finite"),
        ("A,1,0.5\nB,1,1.5", [], 4, "asset 'B': target must lie in [0, 1]"),
        ("A,1,0.5\nB,-1,0.5", [], 4, "asset 'B' has negative value -1; pass allow_short to permit this"),
        ("A,1,2\n# weights\nB,1,-1", ["--normalize"], 5, "weight -1.0 must be nonnegative under --normalize"),
        ("A,1,0.5\nB,1,0.5,0", [], 4, "expected 3 fields, got 4"),
        ("A,1,0.5\nB,12_000,0.5", [], 4, "value '12_000' is not a plain decimal number"),
        ("A,1,0.5\nB,1,0.5x", [], 4, "target '0.5x' is not a plain decimal number"),
        ("A,1,1e400\nB,1,1", ["--normalize"], 3, "weight '1e400' is not a finite float64"),
    ],
    ids=["duplicate-id", "empty-id", "value-1e999", "target-1.5", "negative-value", "negative-weight-normalize",
         "four-fields", "malformed-value", "malformed-target", "infinite-weight-normalize"],
)
def test_row_errors_name_their_line(rows, flags, lineno, reason, tmp_path, capsys):
    text = f"# portfolio\nid,value,target\n{rows}\n"
    with pytest.raises(PortfolioFormatError, match=rf"^line {lineno}: {re.escape(reason)}$"):
        parse_portfolio(text, normalize="--normalize" in flags)
    path = tmp_path / "p.csv"
    path.write_text(text, encoding="utf-8")
    assert run_rebalance_command(["--input", str(path), "--contribution", "10", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {lineno}: {reason}\n"


#: Fields that float() reads (1_000, Arabic-Indic 12, NaN) or refuses (0x10,
#: an empty field) but the grammar does not take, and 1e999, which the
#: grammar takes and float() reads as inf.
BAD_FIELDS = ["1_000", "\u0661\u0662", "NaN", "0x10", "", "1e999"]
BAD_FIELD_IDS = ["underscore", "arabic-indic", "nan", "hex", "empty", "1e999"]


def _bad_field_file(seed, column, field):
    """A seeded portfolio whose row ``bad`` holds ``field`` in ``column``
    (1 for the value, 2 for the target), with comments and blank lines
    between rows: (text, the bad row's line number, its id)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    bad = int(rng.integers(n))
    lines = ["# seeded", "id,value,target"]
    for i, target in enumerate(rng.dirichlet(np.ones(n)).tolist()):
        lines += [""] * int(rng.integers(3)) + ["# row"] * int(rng.integers(2))
        row = [f"a{i}", f"{rng.lognormal(9.0, 1.5):.2f}", repr(target)]
        if i == bad:
            row[column] = field
            lineno = len(lines) + 1
        lines.append(",".join(row))
    return "\n".join(lines) + "\n", lineno, f"a{bad}"


@pytest.mark.parametrize("flags", [[], ["--normalize"]], ids=["plain", "normalize"])
@pytest.mark.parametrize("column", [1, 2], ids=["value", "target"])
@pytest.mark.parametrize("field", BAD_FIELDS, ids=BAD_FIELD_IDS)
def test_bad_number_fields_name_their_line(field, column, flags, tmp_path, capsys):
    seed = MASTER_SEED + 120 + BAD_FIELDS.index(field)
    text, lineno, asset_id = _bad_field_file(seed, column, field)
    name = ("value", "target")[column - 1]
    if field != "1e999":
        reason = f"{name} {field!r} is not a plain decimal number"
    elif name == "value":
        reason = f"asset {asset_id!r}: value must be finite"
    elif flags:
        reason = "weight '1e999' is not a finite float64"
    else:
        reason = f"asset {asset_id!r}: target must lie in [0, 1]"
    with pytest.raises(PortfolioFormatError, match=rf"^line {lineno}: {re.escape(reason)}$"):
        parse_portfolio(text, normalize=bool(flags))
    path = tmp_path / "p.csv"
    path.write_text(text, encoding="utf-8")
    assert run_rebalance_command(["--input", str(path), "--contribution", "10", *flags]) == 2, f"seed={seed}"
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: line {lineno}: {reason}\n"), f"seed={seed}"


def test_parse_normalize_arbitrary_weights():
    text = "id,value,target\nA,100,3\nB,100,1"
    portfolio = parse_portfolio(text, normalize=True)
    assert portfolio.targets.tolist() == [0.75, 0.25]


def test_parse_normalize_weights_whose_sum_overflows(tmp_path, capsys):
    # finite weights whose sum passes the float64 maximum are normalized
    # at the scale of the largest one, not refused with a traceback
    seed = MASTER_SEED + 101
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.9e308, 1.7e308, 3).tolist()
    text = "id,value,target\n" + "".join(f"A{i},100,{w!r}\n" for i, w in enumerate(weights))
    portfolio = parse_portfolio(text, normalize=True)
    scaled = [w / max(weights) for w in weights]
    np.testing.assert_allclose(portfolio.targets, [w / sum(scaled) for w in scaled], rtol=1e-15, err_msg=f"seed={seed}")
    path = tmp_path / "weights.csv"
    path.write_text(text, encoding="utf-8")
    assert run_rebalance_command(["--input", str(path), "--contribution", "10", "--normalize"]) == 0, f"seed={seed}"
    assert capsys.readouterr().err == ""


def test_rebalance_refuses_values_whose_total_overflows(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("id,value,target\nA,1e308,0.5\nB,1e308,0.5\n", encoding="utf-8")
    assert run_rebalance_command(["--input", str(path), "--contribution", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the asset values are each finite, but their total passes the float64 maximum\n"


def test_parse_allow_short_flag():
    text = "id,value,target\nA,-50,0.5\nB,150,0.5"
    with pytest.raises(ValueError, match="allow_short"):
        parse_portfolio(text)
    portfolio = parse_portfolio(text, allow_short=True)
    assert portfolio.values.tolist() == [-50.0, 150.0]


# -- serialization -----------------------------------------------------------

def test_round_trip_exact_at_10_digits():
    rng = np.random.default_rng(MASTER_SEED + 40)
    # after the seeded trials, a value whose 10-digit text reads back as inf:
    # it is written in full
    near_max = ns.Portfolio([ns.Asset("a", 1.7976931348623157e308, 0.5), ns.Asset("b", 2.5, 0.5)])
    for trial, portfolio in enumerate([*(random_portfolio(rng) for _ in range(50)), near_max]):
        text = serialize_portfolio(portfolio)
        reparsed = parse_portfolio(text)
        msg = f"seed={MASTER_SEED + 40} trial={trial}"
        assert reparsed.ids == portfolio.ids, msg
        for original, copied in zip(assets_of(portfolio), assets_of(reparsed)):
            rounded = float(f"{original.value:.10g}")
            assert copied.value == (rounded if math.isfinite(rounded) else original.value), msg
            assert copied.target == float(f"{original.target:.10g}"), msg
        # second pass is a fixed point
        assert serialize_portfolio(reparsed) == text, msg
        # the parser and the Asset constructor build the same portfolio
        rebuilt = ns.Portfolio(assets_of(reparsed))
        assert reparsed == rebuilt, msg
        assert reparsed.values.tobytes() == rebuilt.values.tobytes(), msg
        assert reparsed.targets.tobytes() == rebuilt.targets.tobytes(), msg


def test_serialize_rejects_unparseable_ids():
    # a comma, and every line break that str.splitlines, and so the
    # parser, splits on
    for asset_id in ["a,b", "a\nb", "a\rb", "a\r\nb", "a\vb", "a\fb", "a\x1cb", "a\x1db",
                     "a\x1eb", "a\x85b", "a\u2028b", "a\u2029b"]:
        asset = ns.Asset(asset_id, 1.0, 1.0)
        with pytest.raises(ValueError, match="serialized"):
            serialize_portfolio(ns.Portfolio((asset,)))


#: Every break that str.splitlines, and so the parser, splits a line at.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

#: A letter, the comma and #, the whitespace and line breaks that str.strip
#: and str.splitlines act on, and two characters they leave alone (a BOM, é).
ID_ALPHABET = "a \t#,\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\ufeff\xa0\xe9"


def test_serialize_writes_exactly_the_ids_that_read_back():
    # every id of 1-3 characters: one the serializer writes reads back as
    # itself, and one it refuses does not, as a raw line of the file
    accepted = 0
    for length in (1, 2, 3):
        for chars in itertools.product(ID_ALPHABET, repeat=length):
            asset_id = "".join(chars)
            try:
                text = serialize_portfolio(ns.Portfolio((ns.Asset(asset_id, 1.0, 1.0),)))
            except ValueError:
                try:
                    ids = parse_portfolio(f"id,value,target\n{asset_id},1.0,1.0\n").ids
                except PortfolioFormatError:
                    continue
                assert ids != (asset_id,), repr(asset_id)
            else:
                accepted += 1
                assert parse_portfolio(text).ids == (asset_id,), repr(asset_id)
    assert accepted == 99


# -- rebalance command -------------------------------------------------------

def test_rebalance_table_output(golden_file, tmp_path, capsys):
    assert run_rebalance_command(["--input", golden_file, "--contribution", "1000"]) == 0
    out = capsys.readouterr().out
    assert "k* = 2" in out
    assert "lambda* = 275" in out
    assert "growth" in out and "$625" in out and "$375" in out
    assert "total" in out
    # its twin with CRLF line ends and a blank line, and its twin after a
    # UTF-8 BOM (as spreadsheets write "CSV UTF-8"), print the same report
    twin = tmp_path / "twin.csv"
    for text in (GOLDEN_CSV.replace("\nid,", "\n\nid,").replace("\n", "\r\n"), "\ufeff" + GOLDEN_CSV):
        twin.write_bytes(text.encode("utf-8"))
        assert run_rebalance_command(["--input", str(twin), "--contribution", "1000"]) == 0
        assert capsys.readouterr().out == out, repr(text[:3])


def test_rebalance_json_certificate(golden_file, capsys):
    code = run_rebalance_command(
        ["--input", golden_file, "--contribution", "1000", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["norm"] == "l2"
    assert doc["budget"] == 1000.0
    assert doc["certificate"] == {"k_star": 2, "lambda_star": 275.0}
    assert [a["id"] for a in doc["assets"]] == ["growth", "income", "intl", "bonds", "cash"]
    assert [a["adjustment"] for a in doc["assets"]] == [625.0, 375.0, 0.0, 0.0, 0.0]
    assert [a["adjustment_cents"] for a in doc["assets"]] == [62500, 37500, 0, 0, 0]
    assert [a["naive"] for a in doc["assets"]] == [900.0, 650.0, 250.0, -300.0, -500.0]
    final = [a["final_allocation"] for a in doc["assets"]]
    assert final == pytest.approx([0.225, 0.225, 2500 / 11000, 1675 / 11000, 1875 / 11000], abs=1e-9)


def test_rebalance_json_l1_case(golden_file, capsys):
    code = run_rebalance_command(
        ["--input", golden_file, "--contribution", "1000", "--norm", "l1", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == "deficit"
    assert doc["alpha"] == pytest.approx(5.0 / 9.0, abs=1e-9)
    assert [a["adjustment_cents"] for a in doc["assets"]] == [50000, 36111, 13889, 0, 0]


def test_rebalance_at_target_adjustments_proportional(tmp_path, capsys):
    path = tmp_path / "p.csv"
    path.write_text("id,value,target\nA,5000,0.5\nB,3000,0.3\nC,2000,0.2\n")
    code = run_rebalance_command(
        ["--input", str(path), "--contribution", "1000", "--norm", "l2", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    adjustments = [a["adjustment"] for a in doc["assets"]]
    assert adjustments == pytest.approx([500.0, 300.0, 200.0], abs=1e-6)


def test_rebalance_exit_codes(golden_file, tmp_path, capsys):
    # negative, zero and nan contributions; a negative one in exponent
    # form, or -inf or -nan, which argparse reads as an option (checked on
    # Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0), meets the same rule,
    # under the option's full name or a prefix of it
    for contribution in (["--contribution", "-5"], ["--contribution", "0"], ["--contribution", "nan"],
                         ["--contribution", "-1e3"], ["--c", "-1e3"], ["--contribution", "-inf"],
                         ["--contribution", "-nan"], ["--c", "-Infinity"]):
        assert run_rebalance_command(["--input", golden_file, *contribution]) == 2
        assert capsys.readouterr().err == "error: budget must be a positive finite number\n"
    # missing file
    assert run_rebalance_command(["--input", str(tmp_path / "nope.csv"), "--contribution", "5"]) == 2
    capsys.readouterr()
    # malformed csv
    bad = tmp_path / "bad.csv"
    bad.write_text("id,value,target\nA,12_000,0.5\nB,1,0.5\n")
    assert run_rebalance_command(["--input", str(bad), "--contribution", "5"]) == 2
    assert "line 2" in capsys.readouterr().err
    # unknown flag (argparse-level error)
    assert run_rebalance_command(["--input", golden_file, "--wat"]) == 2
    capsys.readouterr()
    # sampling guards
    assert run_rebalance_command(
        ["--input", golden_file, "--contribution", "5", "--sample", "3"]
    ) == 2
    assert "--norm l1" in capsys.readouterr().err
    assert run_rebalance_command(
        ["--input", golden_file, "--contribution", "5", "--norm", "l1", "--sample", "-1"]
    ) == 2
    capsys.readouterr()


_SHORT_PAIRS = {0: "1.3e306", 8: "1.3e306", 1: "-1.3e306", 9: "-1.3e306"}

#: --allow-short rows whose table holds numbers that cannot be written.
#: The naive column, [1e308, 1e308, -1e308, -1e308] at a contribution of
#: 1000, sums to $1,000 exactly, but its running sum passes the float64
#: maximum.
NAIVE_OVERFLOWS = "c,-5e307,0.5\nd,-5e307,0.5\na,1e308,0\nb,1e308,0"
#: At a contribution of 0.001, the final allocations of rows 0, 1, 8 and 9
#: lie near +-1e308: numpy sums 16 numbers in 8 partial sums, rows i and
#: i + 8 in one, so one partial sum is +inf, another -inf, and the total
#: nan.  The current column is n/a too, as 1.3e306 / 0.012 is past 1e306,
#: whose percent passes the float64 maximum.
FINAL_NAN = "\n".join(f"r{i},{_SHORT_PAIRS[i]},0" if i in _SHORT_PAIRS else f"r{i},0.001,{1 / 12!r}" for i in range(16))
#: A total near zero beside values of both signs: the shares are +-inf,
#: and at a contribution of 1e-7 the final allocations (about +-1e307)
#: are finite but their percents are not.
NEAR_ZERO = "a,1e300,0.5\nb,-1e300,0.5\nc,1e-10,0"


@pytest.mark.parametrize(
    "rows, budget, totals",
    [
        (NAIVE_OVERFLOWS, "1000", ["100%", "100%", "n/a", "$1,000", "100%"]),
        (FINAL_NAN, "0.001", ["$0", "n/a", "100%", "$0", "$0", "n/a"]),
    ],
    ids=["naive-overflows", "final-nan"],
)
def test_table_total_past_the_float64_maximum_is_na(rows, budget, totals, tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text(f"id,value,target\n{rows}\n", encoding="utf-8")
    assert run_rebalance_command(["--input", str(path), "--allow-short", "--contribution", budget]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    total_row = captured.out.splitlines()[-3].split()
    assert total_row[0] == "total" and total_row[-len(totals):] == totals


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_rebalance_values_whose_float64_sum_overflows_but_exact_total_fits(fmt, tmp_path, capsys):
    # numpy sums 16 values in 8 partial sums, rows i and i + 8 in one: one
    # partial sum is -inf, another +inf, and the float64 sum nan, where the
    # exact total is 12
    pairs = {0: "-1e308", 8: "-1e308", 1: "1e308", 9: "1e308"}
    rows = "\n".join(f"r{i},{pairs[i]},0" if i in pairs else f"r{i},1,{1 / 12!r}" for i in range(16))
    path = tmp_path / "short.csv"
    path.write_text(f"id,value,target\n{rows}\n", encoding="utf-8")
    assert run_rebalance_command(["--input", str(path), "--allow-short", "--contribution", "1000", "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if fmt == "table":
        assert captured.out.splitlines()[-3].split()[:2] == ["total", "$12"]


def _table_column(rows, budget, column, tmp_path, capsys):
    """The four cells, total included, of one table column of ``rows``
    under --allow-short; the command must exit 0 with an empty stderr."""
    path = tmp_path / "short.csv"
    path.write_text(f"id,value,target\n{rows}\n", encoding="utf-8")
    assert run_rebalance_command(["--input", str(path), "--allow-short", "--contribution", budget]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    index = lines[0].split().index(column)
    return [line.split()[index] for line in lines[2:5] + lines[6:7]]


def test_table_current_column_past_the_float64_maximum_is_na(tmp_path, capsys):
    assert _table_column(NEAR_ZERO, "10", "current", tmp_path, capsys) == ["n/a"] * 4


def test_table_final_column_past_the_float64_maximum_is_na(tmp_path, capsys):
    # each final allocation is finite, about +-1e307, but its percent is not
    assert _table_column(NEAR_ZERO, "1e-7", "final", tmp_path, capsys) == ["n/a"] * 4


#: A value written -0.00 and a target written -0 are negative zeros; the
#: value -0.3 is a negative that rounds to zero dollars and percent.
SIGNED_ZEROS = "z,-0.00,0.5\nt,0,-0\ns,-0.3,0\nb,100,0.5"


def test_table_prints_negative_zeros_as_zeros(tmp_path, capsys):
    # -0.0 prints as $0 and 0%, never $-0 or -0%; a negative that rounds
    # to zero keeps its sign in front, -$0 and -0%; the JSON report keeps
    # every number as it was read
    path = tmp_path / "zeros.csv"
    path.write_text(f"id,value,target\n{SIGNED_ZEROS}\n", encoding="utf-8")
    argv = ["--input", str(path), "--contribution", "10", "--allow-short"]
    assert run_rebalance_command(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:6]]
    assert rows[0][:4] == ["z", "$0", "0%", "50%"]
    assert rows[1] == ["t", "$0", "0%", "0%", "$0", "$0", "0%"]
    assert rows[2][:4] == ["s", "-$0", "-0%", "0%"]
    assert run_rebalance_command([*argv, "--format", "json"]) == 0
    assets = json.loads(capsys.readouterr().out)["assets"]
    assert [math.copysign(1.0, asset["value"]) for asset in assets[:2]] == [-1.0, 1.0]
    assert math.copysign(1.0, assets[1]["target"]) == -1.0


def test_rebalance_normalize_flag(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text("id,value,target\nA,600,3\nB,400,1\n")
    assert run_rebalance_command(["--input", str(path), "--contribution", "100"]) == 2
    capsys.readouterr()
    code = run_rebalance_command(
        ["--input", str(path), "--contribution", "100", "--normalize", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [a["target"] for a in doc["assets"]] == [0.75, 0.25]
    # thousands of short rows: the byte grid writes every row, negative
    # dollars included, with no warning
    seed = MASTER_SEED + 140
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0, 1.0, 1.0], 3000) * rng.lognormal(9.0, 1.5, 3000)
    path.write_text("id,value,target\n" + "".join(f"a{i},{v:.2f},1\n" for i, v in enumerate(values.tolist())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_rebalance_command(["--input", str(path), "--allow-short", "--normalize",
                                      "--contribution", "12345.67"]) == 0, f"seed={seed}"
    captured = capsys.readouterr()
    assert captured.err == "", f"seed={seed}"
    assert len(captured.out.splitlines()) == 3006 and "-$" in captured.out, f"seed={seed}"
    # a value past int64 prints its exact whole dollars, in a table of few
    # rows and in one past the grid's cutoff
    many = "".join(f"\na{i},1,1" for i in range(99))
    for rows, flags in (("a,1e19,0.5\nb,1,0.5", []), (f"big,1e19,99{many}", ["--normalize"])):
        path.write_text(f"id,value,target\n{rows}\n")
        assert run_rebalance_command(["--input", str(path), "--contribution", "10", *flags]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "$10,000,000,000,000,000,000" in captured.out, flags


def test_rebalance_sampling(golden_file, capsys):
    args = [
        "--input", golden_file, "--contribution", "1000",
        "--norm", "l1", "--format", "json", "--sample", "5", "--seed", "11",
    ]
    assert run_rebalance_command(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["samples"]) == 5
    problem = ns.ContributionProblem([900.0, 650.0, 250.0, -300.0, -500.0], 1000.0)
    for member in doc["samples"]:
        # 10-significant-digit serialization perturbs entries by ~1e-7 dollars
        assert sum(member) == pytest.approx(1000.0, abs=1e-5)
        assert l1_objective(problem, member) == pytest.approx(1600.0, abs=1e-5)
    # reproducible under the same seed
    assert run_rebalance_command(args) == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc2 == doc
    # different seed, different members
    assert run_rebalance_command(args[:-1] + ["12"]) == 0
    doc3 = json.loads(capsys.readouterr().out)
    assert doc3["samples"] != doc["samples"]


def test_rebalance_sampling_in_table(golden_file, capsys):
    args = [
        "--input", golden_file, "--contribution", "1000",
        "--norm", "l1", "--sample", "2", "--seed", "5",
    ]
    assert run_rebalance_command(args) == 0
    out = capsys.readouterr().out
    assert "sampled l1 members (2):" in out


def test_table_and_json_encode_identical_numbers(golden_file, capsys):
    plan = ns.rebalance(parse_portfolio(GOLDEN_CSV), 1000.0)
    portfolio = parse_portfolio(GOLDEN_CSV)
    doc = json.loads(render_json(portfolio, plan))
    table = render_table(portfolio, plan)
    for row, asset in zip(doc["assets"], assets_of(portfolio)):
        assert row["adjustment"] == pytest.approx(
            float(plan.adjustments[list(portfolio.ids).index(asset.id)]), abs=1e-9
        )
        # the table shows the same number rounded to whole dollars
        dollars = f"${row['adjustment']:,.0f}"
        assert dollars in table


def test_render_surplus_family_report():
    # surplus cannot arise from naive adjustments (they always sum to the
    # budget), so exercise the renderer branch on a hand-built plan
    problem = ns.ContributionProblem([1.0, -1.0], 3.0)
    family = ns.solve_l1(problem)
    assets = (ns.Asset("a", 10.0, 0.5), ns.Asset("b", 10.0, 0.5))
    portfolio = ns.Portfolio(assets)
    plan = ns.RebalancePlan(
        norm=ns.Norm.L1,
        budget=3.0,
        naive=problem.deltas,
        adjustments=family.particular,
        final_allocations=(portfolio.values + family.particular) / (portfolio.total + 3.0),
        rounded_cents=ns.round_to_cents(family.particular, 3.0),
        solution=family,
    )
    doc = json.loads(render_json(portfolio, plan))
    assert doc["case"] == "surplus"
    assert doc["slack"] == pytest.approx(2.0)
    assert "case = surplus" in render_table(portfolio, plan)
    assert json.loads(render_json(portfolio, plan))["case"] == "surplus"


# -- renderers against their references --------------------------------------

#: Ids that JSON must escape (quote, backslash, control character, non-ASCII
#: in and beyond the Basic Multilingual Plane) and that pad by code point.
AWKWARD_IDS = ('say "hi"', "back\\slash", "tab\there", "naïve €", "日本株", "emoji \U0001F600")


def _wide_portfolio(rng, n):
    """n assets whose values span 1e-9..1e15, so that repr writes some
    numbers in fixed and some in exponent form; the first ids are awkward."""
    values = 10.0 ** rng.uniform(-9.0, 15.0, n)
    targets = rng.dirichlet(np.full(n, 0.3))
    ids = [AWKWARD_IDS[i] if i < len(AWKWARD_IDS) else f"a{i}" for i in range(n)]
    return ns.Portfolio(tuple(
        ns.Asset(id=ids[i], value=float(values[i]), target=float(targets[i])) for i in range(n)
    ))


def _surplus_plan(rng, portfolio):
    """A hand-built l1 plan in the surplus case (naive adjustments always sum
    to the budget, so rebalance never reaches it)."""
    deltas = rng.uniform(-100.0, 100.0, portfolio.n)
    budget = float(np.sum(np.maximum(deltas, 0.0))) + 10.0 ** rng.uniform(-2.0, 4.0)
    problem = ns.ContributionProblem(deltas, budget)
    family = ns.solve_l1(problem)
    return ns.RebalancePlan(
        norm=ns.Norm.L1,
        budget=budget,
        naive=problem.deltas,
        adjustments=family.particular,
        final_allocations=(portfolio.values + family.particular) / (portfolio.total + budget),
        rounded_cents=ns.round_to_cents(family.particular, budget),
        solution=family,
    )


def _report_cases():
    """(label, portfolio, plan, samples): l2, l1 deficit with and without
    sampled members, and an l1 surplus plan, at n in {1, 5, 50, 2000}; then
    a portfolio with no holdings (the table's n/a column), an empty list
    of samples, and --allow-short portfolios with n/a totals and
    columns."""
    seed = MASTER_SEED + 90
    rng = np.random.default_rng(seed)
    for n in (1, 5, 50, 2000):
        for trial in range(3 if n < 2000 else 1):
            portfolio = _wide_portfolio(rng, n)
            budget = float(10.0 ** rng.uniform(-3.0, 9.0))
            label = f"seed={seed} n={n} trial={trial} budget={budget!r}"
            yield label + " l2", portfolio, ns.rebalance(portfolio, budget, "l2"), None
            plan = ns.rebalance(portfolio, budget, "l1")
            yield label + " l1", portfolio, plan, None
            samples = [ns.sample_l1_member(plan.solution, rng) for _ in range(3)]
            yield label + " l1 sampled", portfolio, plan, samples
            yield label + " l1 surplus", portfolio, _surplus_plan(rng, portfolio), None
    empty = ns.Portfolio((ns.Asset("a", 0.0, 0.25), ns.Asset("b", 0.0, 0.75)))
    yield "no holdings", empty, ns.rebalance(empty, 99.99), None
    yield "no samples", empty, ns.rebalance(empty, 99.99, "l1"), []
    # a subnormal value and one that rounds to 1e+10 at 10 digits: the JSON
    # value column takes the scalar rule
    edge = ns.Portfolio((ns.Asset("sub", 1.5e-320, 0.25), ns.Asset("big", 9999999999.7, 0.5),
                         ns.Asset("c", 1234.5, 0.25)))
    yield "subnormal and 9999999999.7", edge, ns.rebalance(edge, 500.0), None
    # --allow-short rows whose totals, shares or final percents cannot be
    # written: the table prints n/a cells
    for name, rows, budget in (("naive overflows", NAIVE_OVERFLOWS, 1000.0), ("final nan", FINAL_NAN, 0.001),
                               ("near zero", NEAR_ZERO, 10.0), ("near zero", NEAR_ZERO, 1e-7)):
        short = parse_portfolio(f"id,value,target\n{rows}\n", allow_short=True)
        yield f"{name} budget={budget!r}", short, ns.rebalance(short, budget), None
    # -0.0 as a value, a share, a target and a naive entry; -0.3, which
    # rounds to a negative zero
    zeros = parse_portfolio(f"id,value,target\n{SIGNED_ZEROS}\n", allow_short=True)
    yield "signed zeros", zeros, ns.rebalance(zeros, 10.0), None


def test_render_json_matches_json_dumps():
    kinds = set()
    for label, portfolio, plan, samples in _report_cases():
        reference = reference_plan_to_dict(portfolio, plan, samples)
        assert render_json(portfolio, plan, samples) == json.dumps(reference, indent=2) + "\n", label
        assert json.loads(render_json(portfolio, plan, samples)) == reference, label
        kinds.add(plan.solution.case.value if plan.norm is ns.Norm.L1 else "l2")
    assert kinds == {"l2", "deficit", "surplus"}


def test_render_json_number_forms_and_escapes():
    # the differential cases reach both float forms of repr, negative naive
    # entries and escaped ids, so the test above compares them
    portfolio = _wide_portfolio(np.random.default_rng(MASTER_SEED + 91), 50)
    plan = ns.rebalance(portfolio, 1000.0)
    text = render_json(portfolio, plan)
    assert re.search(r": \d\.\d+e-\d+,", text) and re.search(r": \d{6,}\.\d+,", text)
    assert min(plan.naive) < 0.0
    for escaped in (r'"say \"hi\""', r'"back\\slash"', r'"tab\there"', r'"na\u00efve \u20ac"',
                    r'"\u65e5\u672c\u682a"', r'"emoji \ud83d\ude00"'):
        assert escaped in text


#: Budgets that a hand-built plan may hold and rebalance refuses: a
#: negative zero, negatives, numbers past int64 and numbers that are not
#: finite.
ODD_BUDGETS = (-0.0, -0.3, -2.5, -1e19, 1e19, 2.0**63, 1.7976931348623157e308, math.inf, -math.inf, math.nan)


#: The last float64 whose magnitude int64 holds.
BELOW_2_63 = math.nextafter(2.0**63, 0.0)
#: Dollars where the grid's texts change: zeros of both signs, negatives
#: that round to zero, ties, roll-overs to one more digit group (999.5 and
#: 999999.5 round up to $1,000 and $1,000,000), and magnitudes up to the
#: last one int64 holds.
GRID_DOLLARS = (0.0, -0.0, -0.3, -0.5, 2.5, -2.5, 99.5, -999.5, 1000.0, -12345.5, 999999.5, -1234567.0, 1e15,
                -(2.0**53), BELOW_2_63, -BELOW_2_63)
#: Fractions for the percent columns: zeros of both signs, a negative that
#: rounds to zero, ties, 1 000% and more, and the last int64 percent.
GRID_FRACTIONS = (0.0, -0.0, -0.003, 0.005, -0.995, 9.995, 10.0, -12.5, 1234.5678, -(2.0**53) / 100,
                  BELOW_2_63 / 100, -BELOW_2_63 / 100)
#: Ids that hold a NUL, which pads like any other character.
NUL_IDS = ("nul\x00id", "\x00", "trailing\x00")


def _column(rng, edges, rows):
    """``rows`` numbers: the edges in a seeded order, then uniform ones."""
    column = rng.uniform(-1e6, 1e6, rows)
    column[: len(edges)] = rng.permutation(edges)
    return column


def _straddle_cases():
    """(label, portfolio, plan, the writer that must write it) at one row
    below the grid's cutoff, at it and one row past it: a plan with short
    and zero values, awkward and NUL ids; the same with every GRID_DOLLARS
    entry in the naive and buy columns and every GRID_FRACTIONS entry in
    the final one; the same with a naive entry at or past 2**63; and
    NEAR_ZERO padded to the row count, whose current and final columns
    are n/a."""
    seed = MASTER_SEED + 95
    rng = np.random.default_rng(seed)
    for rows in (cli._GRID_ROWS - 1, cli._GRID_ROWS, cli._GRID_ROWS + 1):
        label = f"seed={seed} rows={rows}"
        writer = "grid" if rows >= cli._GRID_ROWS else "cells"
        ids = [*AWKWARD_IDS, *NUL_IDS]
        ids += [f"a{i}" for i in range(rows - len(ids))]
        values = rng.lognormal(9.0, 1.5, rows)
        values[:3] = (-0.0, -1500.25, 0.0)
        targets = rng.dirichlet(np.ones(rows))
        portfolio = ns.Portfolio(map(ns.Asset, ids, values.tolist(), targets.tolist()), allow_short=True)
        plan = ns.rebalance(portfolio, 5000.0)
        yield label, portfolio, plan, writer
        edges = dataclasses.replace(plan, naive=_column(rng, GRID_DOLLARS, rows),
                                    adjustments=_column(rng, GRID_DOLLARS[::-1], rows),
                                    final_allocations=_column(rng, GRID_FRACTIONS, rows))
        yield label + " edges", portfolio, edges, writer
        for past in (2.0**63, -1e19):
            naive = edges.naive.copy()
            naive[rows // 2] = past
            yield label + f" naive {past!r}", portfolio, dataclasses.replace(edges, naive=naive), "cells"
        padding = "".join(f"\np{i},0,0" for i in range(rows - 3))
        short = parse_portfolio(f"id,value,target\n{NEAR_ZERO}{padding}\n", allow_short=True)
        for budget in (10.0, 1e-7):
            yield label + f" near zero budget={budget!r}", short, ns.rebalance(short, budget), "cells"


def test_render_table_matches_reference(monkeypatch):
    # both writers must be reached: at the cutoff straddling cases, the
    # grid from the cutoff on, _cells below it and for a table holding a
    # magnitude past int64 or n/a.  Each table is rounded once, and the
    # grid is handed only magnitudes below 2**63
    reached = {"grid": 0, "cells": 0, "magnitudes": 0}
    grid, cells, magnitudes = cli._grid, cli._cells, cli._magnitudes

    def counted_grid(numbers, rounded, *args):
        assert (rounded < 2.0**63).all()
        reached["grid"] += 1
        return grid(numbers, rounded, *args)

    def counted_cells(*args):
        reached["cells"] += 1
        return cells(*args)

    def counted_magnitudes(*args):
        reached["magnitudes"] += 1
        return magnitudes(*args)

    monkeypatch.setattr(cli, "_grid", counted_grid)
    monkeypatch.setattr(cli, "_cells", counted_cells)
    monkeypatch.setattr(cli, "_magnitudes", counted_magnitudes)
    tables = []
    for label, portfolio, plan, samples in _report_cases():
        before = reached["magnitudes"]
        tables.append(render_table(portfolio, plan, samples))
        assert tables[-1] == reference_render_table(portfolio, plan, samples), label
        assert reached["magnitudes"] == before + 1, label
    for label, portfolio, plan, writer in _straddle_cases():
        before = dict(reached)
        tables.append(render_table(portfolio, plan))
        assert tables[-1] == reference_render_table(portfolio, plan), label
        assert reached[writer] == before[writer] + 1, label
        assert reached["grid"] + reached["cells"] == before["grid"] + before["cells"] + 1, label
        assert reached["magnitudes"] == before["magnitudes"] + 1, label
    assert all(reached.values()), reached
    assert any("n/a" in table for table in tables)
    assert any("$9,223,372,036,854,774,784" in table for table in tables)
    # the contribution line writes the budget as a dollar cell, which never
    # widens the value column
    portfolio = _wide_portfolio(np.random.default_rng(MASTER_SEED + 92), 5)
    for budget in ODD_BUDGETS:
        plan = dataclasses.replace(ns.rebalance(portfolio, 100.0), budget=budget)
        table = render_table(portfolio, plan)
        assert table == reference_render_table(portfolio, plan), budget
        assert f"\ncontribution {money_texts([budget])[0]} allocated under l2; " in table, budget


def test_grid_writes_every_digit_count(monkeypatch):
    # tables of _GRID_ROWS rows whose naive and buy columns, and whose final
    # column in percents, hold one number of 1 to 19 digits of either sign
    # beside zeros: the dollar and percent blocks then take every slice of
    # their offsets tables that render_table can reach (the totals' 100%
    # gives a percent block three digits at least)
    written = []
    grid = cli._grid

    def counted_grid(*args):
        written.append(args)
        return grid(*args)

    monkeypatch.setattr(cli, "_grid", counted_grid)
    rows = cli._GRID_ROWS
    portfolio = ns.Portfolio(ns.Asset(f"a{i}", 0.1, 1 / rows) for i in range(rows))
    plan = ns.rebalance(portfolio, 1.0)
    for digits in range(1, 20):
        for sign in (1.0, -1.0):
            column = np.zeros(rows)
            column[digits] = sign * float("1234567890123456789"[:digits])
            case = dataclasses.replace(plan, naive=column, adjustments=column[::-1].copy(),
                                       final_allocations=column / 100.0)
            table = render_table(portfolio, case)
            assert table == reference_render_table(portfolio, case), (digits, sign)
    assert len(written) == 2 * 19


# -- the JSON report's column encoder ----------------------------------------

FLOAT_MAX = 1.7976931348623157e308


def _encoder_values(rng):
    """Log-uniform magnitudes over the whole finite range with both signs,
    whole dollars, whole cents, and the edges of the 10-digit rule."""
    count = 20_000
    log_uniform = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-323.3, 308.25, count)
    dollars = rng.integers(-10**12, 10**12, 2000).astype(np.float64)
    cents = rng.integers(-10**14, 10**14, 2000) / 100.0
    edges = [0.0, -0.0, 9999999999.7, -9999999999.7, 999999999.97, 1e16, 5e-324, 2.2250738585072014e-308,
             FLOAT_MAX, -FLOAT_MAX]
    near_max = rng.uniform(1.7976931345e308, FLOAT_MAX, 20)
    return [*log_uniform.tolist(), *dollars.tolist(), *cents.tolist(), *edges, *near_max.tolist()]


def test_sig10_texts_match_the_scalar_rule():
    seed = MASTER_SEED + 93
    rng = np.random.default_rng(seed)
    values = _encoder_values(rng)

    def check(column):
        assert cli._sig10_texts(column) == [repr(cli._sig10(x)) for x in column], f"seed={seed}"

    # one number per column, seeded runs of 1..50 numbers, and one long column
    for x in values:
        check([x])
    start = 0
    while start < len(values):
        size = int(rng.integers(1, 51))
        check(values[start:start + size])
        start += size
    check(values)
    # short columns that mix one value the scalar rule must write with
    # ordinary ones
    ordinary = [1234.5, 0.25, 3.0, -17.125, 1e-05]
    reached = set()
    for x in values:
        match = cli._NOT_REPR_EXPONENT.search("%.10g" % x)
        if match:
            reached.add(match.group()[:3])
            where = int(rng.integers(0, len(ordinary) + 1))
            check(ordinary[:where] + [x] + ordinary[where:])
    # every alternative of the exponent check is reached: +10..+15, +308, -308 and below
    assert reached == {"e+1", "e+3", "e-3"}, f"seed={seed} reached={reached}"
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="the JSON report cannot hold the non-finite number"):
            cli._sig10_texts([1.5, bad, 2.0])


# -- the JSON report's byte grid ---------------------------------------------

def _neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


#: Numbers at which the JSON grid's texts change (see cli._json_cells), each
#: with its neighbours 1 ulp away: 10th-digit ties that are exact in binary
#: (1234567890.5 rounds down to even, 1234567891.5 up) and decimal ones
#: that are not; roll-overs to one more digit; the powers of ten from 1e-13
#: to 1e22; exponents -5/-4 and 15/16, where repr changes form; the least
#: normal and subnormals; numbers outside 1e-13 <= |x| < 1e32.
JSON_EDGES = [y for x in (
    1234567890.5, 1234567891.5, 0.12345678905, 0.12345678915, 12345.678905, 2.5e-13, 9.8765432105e20,
    9999999999.5, 0.000099999999995, 99999.999995, 9.9999999995e15, 9.9999999995e-5,
    *(float(f"1e{k}") for k in range(-13, 23)),
    1.5e-5, 9.87654321e-5, 1.23456789e-4, 1.2345e15, 9.999999999e15, 1.234e16, 12345678901.5,
    2.2250738585072014e-308, 1e-310, 5e-324, 1e-14, 9.99e-14, 1e32, 9.9999999999e31, 1e100, 1e300,
) for y in _neighbours(x)]
#: From 1.7976931345e308, where the 10-digit rounding overflows, up to the
#: float64 maximum.
JSON_NEAR_MAX = np.linspace(1.7976931345e308, FLOAT_MAX, 9).tolist() + [FLOAT_MAX]
#: Cents where the whole part's groups change, up to int64's ends.
JSON_CENTS = [0, 1, -1, 999, 1000, -1000, 999999, -1000000, 10**15, 2**53, 2**63 - 1, -(2**63 - 1), -(2**63)]


def _grid_cases():
    """(label, portfolio, plan) at one row below the JSON grid's cutoff, at
    it, one row past it and at 2 000 rows: every value, naive, adjustment
    and final row holds the edges in a seeded order, zeros of both signs
    and negated edges among them, the plan's rows the numbers near the
    float64 maximum too, and the cents JSON_CENTS; the rest of each row is
    log-uniform over the finite range (the values' below 1e300)."""
    seed = MASTER_SEED + 96
    rng = np.random.default_rng(seed)
    edges = JSON_EDGES + [-x for x in JSON_EDGES] + [0.0, -0.0]
    for rows in (cli._JSON_GRID_ROWS - 1, cli._JSON_GRID_ROWS, cli._JSON_GRID_ROWS + 1, 2000):
        def column(edges, top=308.0):
            numbers = rng.choice([-1.0, 1.0], rows) * 10.0 ** rng.uniform(-323.0, top, rows)
            numbers[: len(edges)] = rng.permutation(edges)[:rows]
            return numbers

        # values whose total stays finite
        values = column([x for x in edges if abs(x) < 1e300], 300.0)
        targets = rng.dirichlet(np.full(rows, 0.2))
        ids = [*AWKWARD_IDS, *NUL_IDS] + [f"a{i}" for i in range(rows - len(AWKWARD_IDS) - len(NUL_IDS))]
        portfolio = ns.Portfolio(map(ns.Asset, ids, values.tolist(), targets.tolist()), allow_short=True)
        cents = rng.integers(-(2**63), 2**63 - 1, rows, endpoint=True)
        cents[: len(JSON_CENTS)] = rng.permutation(JSON_CENTS)
        plan = ns.rebalance(ns.Portfolio(map(ns.Asset, ids, [1.0] * rows, targets.tolist())), 100.0)
        plan = dataclasses.replace(plan, naive=column(edges + JSON_NEAR_MAX), adjustments=column(edges + JSON_NEAR_MAX),
                                   final_allocations=column(edges + JSON_NEAR_MAX), rounded_cents=cents)
        yield f"seed={seed} rows={rows}", portfolio, plan


def test_json_grid_matches_json_dumps(monkeypatch):
    # the grid writes every report from the cutoff on, and below it none
    written = []
    cells = cli._json_cells

    def counted_cells(*args):
        written.append(len(args[0]))
        return cells(*args)

    monkeypatch.setattr(cli, "_json_cells", counted_cells)
    for label, portfolio, plan in _grid_cases():
        before = len(written)
        reference = json.dumps(reference_plan_to_dict(portfolio, plan), indent=2) + "\n"
        assert render_json(portfolio, plan) == reference, label
        assert len(written) == before + (portfolio.n >= cli._JSON_GRID_ROWS), label
    assert written == [cli._JSON_GRID_ROWS, cli._JSON_GRID_ROWS + 1, 2000]


def test_json_grid_refuses_non_finite_numbers_as_the_scalar_rule_does(monkeypatch):
    # both writers name the first number that is not finite in column
    # order (value, target, naive, adjustment, final), whatever its row
    rows = cli._JSON_GRID_ROWS
    portfolio = ns.Portfolio(ns.Asset(f"a{i}", 1.0, 1 / rows) for i in range(rows))
    plan = ns.rebalance(portfolio, 1.0)
    cases = ((("naive", 3, math.nan),), (("final_allocations", 0, math.inf), ("final_allocations", 5, -math.inf)),
             (("final_allocations", 1, math.nan), ("naive", 7, -math.inf), ("adjustments", 2, math.inf)))
    for case in cases:
        changed = {}
        for name, row, bad in case:
            column = changed.get(name, getattr(plan, name).copy())
            column[row] = bad
            changed[name] = column
        bad_plan = dataclasses.replace(plan, **changed)
        column = next(column for column in (bad_plan.naive, bad_plan.adjustments, bad_plan.final_allocations)
                      if not np.isfinite(column).all())
        first = float(column[~np.isfinite(column)][0])
        messages = []
        for cutoff in (rows + 1, rows):
            monkeypatch.setattr(cli, "_JSON_GRID_ROWS", cutoff)
            with pytest.raises(ValueError) as raised:
                render_json(portfolio, bad_plan)
            messages.append(str(raised.value))
        assert messages == [f"the JSON report cannot hold the non-finite number {first!r}"] * 2, case


# -- JSON never carries NaN or Infinity --------------------------------------

def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_rebalance_json_keeps_values_near_float_max_finite(tmp_path, capsys):
    # a value from 1.7976931345e308 up rounds at 10 digits to 1.797693135e308,
    # which overflows; such a value is written unrounded, not as Infinity
    seed = MASTER_SEED + 92
    rng = np.random.default_rng(seed)
    huge = [1.7976931348623157e308] + rng.uniform(1.7976931345e308, 1.7976931348623157e308, 4).tolist()
    for value in huge:
        path = tmp_path / "big.csv"
        path.write_text(f"id,value,target\nA,{value!r},0.5\nB,0,0.5\n", encoding="utf-8")
        argv = ["--input", str(path), "--contribution", "100", "--format", "json"]
        assert run_rebalance_command(argv) == 0, f"seed={seed} value={value!r}"
        doc = _strict_json(capsys.readouterr().out)
        assert doc["assets"][0]["value"] == value, f"seed={seed} value={value!r}"


def test_rebalance_json_refuses_non_finite_number(tmp_path, capsys):
    # a subnormal total + budget makes the final allocations infinite; the
    # JSON report says so on stderr rather than write Infinity
    path = tmp_path / "short.csv"
    path.write_text("id,value,target\nA,-1,0.5\nB,1,0.5\n", encoding="utf-8")
    argv = ["--input", str(path), "--contribution", "5e-324", "--allow-short", "--format", "json"]
    with np.errstate(over="ignore"):
        assert run_rebalance_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_rebalance_command_exits_2_on_non_finite_final_allocations(tmp_path, capsys):
    # a subnormal total + budget: the table would show -inf%, inf% and nan%
    path = tmp_path / "short.csv"
    path.write_text("id,value,target\nA,-1,0.5\nB,1,0.5\n", encoding="utf-8")
    argv = ["--input", str(path), "--contribution", "5e-324", "--allow-short"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_rebalance_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "non-finite" in captured.err


@pytest.mark.parametrize("contribution", ["1e14", "1e17", "1e18"])
def test_rebalance_refuses_more_than_2_pow_53_cents(golden_file, contribution, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_rebalance_command(["--input", golden_file, "--contribution", contribution]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "2**53 cents" in captured.err


# -- the cached argument parsers ---------------------------------------------

def _outcome(command, argv, capsys, fresh=None):
    if fresh is not None:
        fresh.cache_clear()
    code = command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rebalance_parser_reuse_keeps_no_state(golden_file, capsys):
    sampled = [
        "--input", golden_file, "--contribution", "1000", "--norm", "l1",
        "--sample", "3", "--seed", "1", "--normalize", "--format", "json",
    ]
    plain = ["--input", golden_file, "--contribution", "1000"]
    wat = ["--input", golden_file, "--contribution", "1000", "--wat"]
    reused = [_outcome(run_rebalance_command, argv, capsys) for argv in (sampled, plain, wat, wat)]
    fresh = [
        _outcome(run_rebalance_command, argv, capsys, cli._rebalance_parser)
        for argv in (plain, sampled, wat)
    ]
    assert reused[0] == fresh[1]
    assert reused[1] == fresh[0]
    assert reused[2] == reused[3] == fresh[2]
    assert fresh[2][0] == 2 and "--wat" in fresh[2][2]


def test_simplex_parser_reuse_keeps_no_state(tmp_path, capsys):
    path = tmp_path / "v.txt"
    path.write_text("0.2\n0.9\n", encoding="utf-8")
    from_file = ["--input", str(path)]
    from_values = ["--values", "0.5,0.5,0.5"]
    both = ["--values", "1", "--input", str(path)]
    wat = ["--values", "1", "--wat"]
    reused = [
        _outcome(run_project_simplex_command, argv, capsys)
        for argv in (from_file, from_values, both, wat, wat)
    ]
    fresh = [
        _outcome(run_project_simplex_command, argv, capsys, cli._simplex_parser)
        for argv in (from_values, from_file, both, wat)
    ]
    assert reused[0] == fresh[1]
    assert reused[1] == fresh[0]
    assert reused[2] == fresh[2] and reused[2][0] == 2
    assert reused[3] == reused[4] == fresh[3]
    assert fresh[3][0] == 2 and "--wat" in fresh[3][2]


# -- project-simplex command -------------------------------------------------

LAVA_TEXT = "0.4631,0.1418,0.1232,0.1274,0.0962,0.0251,0.0034,0.0153,0.0016,0.0018,0.0011"


def test_project_simplex_lava_echo(capsys):
    assert run_project_simplex_command(["--values", LAVA_TEXT]) == 0
    out = capsys.readouterr().out.strip()
    emitted = [float(f) for f in out.split(",")]
    expected = [float(f) for f in LAVA_TEXT.split(",")]
    assert emitted == pytest.approx(expected, abs=1e-10)
    assert all(len(f.split(".")[1]) == 10 for f in out.split(","))


def test_project_simplex_symmetric(capsys):
    assert run_project_simplex_command(["--values", "0.5,0.5,0.5"]) == 0
    assert capsys.readouterr().out == "0.3333333333,0.3333333333,0.3333333333\n"


def test_project_simplex_clip(capsys):
    assert run_project_simplex_command(["--values", "1.2,-0.1"]) == 0
    assert capsys.readouterr().out == "1.0000000000,0.0000000000\n"


def test_project_simplex_output_bytes(capsys):
    # 1000 values near the simplex, most of them kept positive: the
    # output is each projected float64 at 10 decimals, comma-separated
    seed = MASTER_SEED + 94
    rng = np.random.default_rng(seed)
    values = rng.dirichlet(np.ones(1000)) + rng.normal(0.0, 1e-4, 1000)
    assert run_project_simplex_command(["--values", ",".join(map(repr, values.tolist()))]) == 0
    expected = ",".join(f"{v:.10f}" for v in ns.simplex_mle(values)) + "\n"
    assert capsys.readouterr().out == expected, f"seed={seed}"


@pytest.mark.parametrize("argv", [["--values", "-0.5,0.5,2"], ["--values=-0.5,0.5,2"], ["--val", "-0.5,0.5,2"]])
def test_project_simplex_negative_first_value(argv, capsys):
    # argparse reads -0.5,0.5,2 as an option (checked on Python 3.10.13,
    # 3.11.7, 3.12.1 and 3.13.0)
    assert run_project_simplex_command(argv) == 0
    assert capsys.readouterr().out == "0.0000000000,0.0000000000,1.0000000000\n"


def test_project_simplex_file_input(tmp_path, capsys):
    path = tmp_path / "v.txt"
    # a leading UTF-8 BOM is encoding, not content
    for bom in ("", "\ufeff"):
        path.write_text(f"{bom}# observed proportions\n0.5\n\n0.5\n0.5\n", encoding="utf-8")
        assert run_project_simplex_command(["--input", str(path)]) == 0, repr(bom)
        assert capsys.readouterr().out == "0.3333333333,0.3333333333,0.3333333333\n", repr(bom)


def test_project_simplex_errors(tmp_path, capsys):
    assert run_project_simplex_command(["--values", "1.2,abc"]) == 2
    assert "value 2" in capsys.readouterr().err
    # two numbers on two lines of one field are not one number
    assert run_project_simplex_command(["--values", "0.5,0.5\n0.5"]) == 2
    assert "error: value 2: '0.5\\n0.5' is not a plain decimal number" in capsys.readouterr().err
    # nor across any other break that str.splitlines splits at
    for separator in LINE_BREAKS:
        assert run_project_simplex_command(["--values", f"0.5,0.5{separator}0.5"]) == 2, repr(separator)
        assert "value 2:" in capsys.readouterr().err, repr(separator)
    # non-ASCII decimal digits, which float() reads, are not plain decimals
    assert run_project_simplex_command(["--values", "\u0661,\u0662"]) == 2
    assert "error: value 1: '\u0661' is not a plain decimal number" in capsys.readouterr().err
    # a plain decimal past the float64 range is named like any other
    assert run_project_simplex_command(["--values", "1,1e400,2"]) == 2
    assert capsys.readouterr().err == "error: value 2: '1e400' is not a finite float64\n"
    overflow = tmp_path / "overflow.txt"
    overflow.write_text("# values\n-1e400\n1\n")
    assert run_project_simplex_command(["--input", str(overflow)]) == 2
    assert capsys.readouterr().err == "error: line 2: '-1e400' is not a finite float64\n"
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("# values\n0.5\n\nabc\n")
    assert run_project_simplex_command(["--input", str(malformed)]) == 2
    assert capsys.readouterr().err == "error: line 4: 'abc' is not a plain decimal number\n"
    # -inf and -nan after --values are values, and not plain decimals
    for value in ("-inf", "-nan"):
        assert run_project_simplex_command(["--values", f"{value},1"]) == 2
        assert capsys.readouterr().err == f"error: value 1: '{value}' is not a plain decimal number\n"
    # an argument after --values that is not a number stays argparse's error
    assert run_project_simplex_command(["--values", "-h"]) == 2
    assert "--values: expected one argument" in capsys.readouterr().err
    assert run_project_simplex_command(["--values", ""]) == 2
    capsys.readouterr()
    assert run_project_simplex_command([]) == 2  # one source required
    capsys.readouterr()
    assert run_project_simplex_command(["--values", "1", "--input", "x"]) == 2
    capsys.readouterr()
    empty = tmp_path / "empty.txt"
    empty.write_text("\n# nothing\n")
    assert run_project_simplex_command(["--input", str(empty)]) == 2
    assert "no values" in capsys.readouterr().err
    assert run_project_simplex_command(["--input", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field", BAD_FIELDS, ids=BAD_FIELD_IDS)
def test_project_simplex_bad_number_fields(field, tmp_path, capsys):
    seed = MASTER_SEED + 130 + BAD_FIELDS.index(field)
    rng = np.random.default_rng(seed)
    values = [repr(v) for v in rng.uniform(-1.0, 2.0, int(rng.integers(2, 9))).tolist()]
    bad = int(rng.integers(len(values)))
    values[bad] = field
    reason = "is not a finite float64" if field == "1e999" else "is not a plain decimal number"
    assert run_project_simplex_command(["--values", ",".join(values)]) == 2, f"seed={seed}"
    assert capsys.readouterr().err == f"error: value {bad + 1}: {field!r} {reason}\n", f"seed={seed}"
    # a file holds a value a line, after a comment and a blank line; an
    # empty line is blank, so a file cannot hold the empty field
    if field:
        path = tmp_path / "v.txt"
        path.write_text("# values\n\n" + "\n".join(values) + "\n", encoding="utf-8")
        assert run_project_simplex_command(["--input", str(path)]) == 2, f"seed={seed}"
        assert capsys.readouterr().err == f"error: line {bad + 3}: {field!r} {reason}\n", f"seed={seed}"


# -- installed entry points --------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _script_target(script):
    """``(module, function)`` that ``[project.scripts]`` in pyproject.toml
    names for ``script``, read with a regex: Python 3.10 has no tomllib."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(rf'^{re.escape(script)} = "([\w.]+):(\w+)"$', text, re.MULTILINE)
    assert match is not None, f"pyproject.toml names no console script {script!r}"
    return match.groups()


def _run_console_script(script, argv):
    """Run an installed console script; where it is not on PATH, run its
    target as the generated script does, ``sys.exit(target())``, in a
    fresh interpreter with this checkout's src on the path."""
    if shutil.which(script) is not None:
        return subprocess.run([script, *argv], capture_output=True, text=True, check=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    module, function = _script_target(script)
    code = f"import sys; from {module} import {function}; sys.exit({function}())"
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True, env=env)


def test_console_script_matches_in_process(golden_file, capsys):
    argv = ["--input", golden_file, "--contribution", "1000", "--format", "json"]
    assert run_rebalance_command(argv) == 0
    in_process = capsys.readouterr().out
    result = _run_console_script("rebalance", argv)
    assert result.stdout == in_process


def test_project_simplex_console_script():
    result = _run_console_script("project-simplex", ["--values", "0.5,0.5,0.5"])
    assert result.stdout == "0.3333333333,0.3333333333,0.3333333333\n"


def _exit_code(script, argv, monkeypatch):
    """The exit status of ``script``'s target run in this process as the
    generated script runs it, ``sys.exit(target())``, on ``argv``."""
    module, function = _script_target(script)
    target = getattr(importlib.import_module(module), function)
    monkeypatch.setattr(sys, "argv", [script, *argv])
    with pytest.raises(SystemExit) as exit_info:
        sys.exit(target())
    return exit_info.value.code


def test_entry_points_exit_with_the_command_status(golden_file, monkeypatch, capsys):
    # the console scripts' targets, run in this process
    assert _exit_code("rebalance", ["--input", golden_file, "--contribution", "1000"], monkeypatch) == 0
    assert capsys.readouterr().out.startswith("asset ")
    assert _exit_code("rebalance", ["--input", golden_file, "--contribution", "-1"], monkeypatch) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert _exit_code("project-simplex", ["--values", "0.5,0.5,0.5"], monkeypatch) == 0
    assert capsys.readouterr().out == "0.3333333333,0.3333333333,0.3333333333\n"
    assert _exit_code("project-simplex", ["--values", "0.5,abc"], monkeypatch) == 2
    assert capsys.readouterr().err == "error: value 2: 'abc' is not a plain decimal number\n"
