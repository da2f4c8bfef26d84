"""Reference renderers for the differential tests in test_cli.py and
test_properties.py.

``reference_render_table`` is a cell-by-cell implementation of the
``rebalance`` table report: each number is read from the numpy arrays one
element at a time and each cell is padded with ``ljust``/``rjust``; a
dollar that is not finite, or a percent column holding one, prints n/a,
and a zero of either sign prints $0 or 0%.
``nosell.cli.render_table`` must produce the same text.

``money_texts`` and ``pct_texts`` write a whole column at once, a
formatted float per number: whole dollars with ``n/a`` for each number
that is not finite, and whole percents with ``n/a`` throughout when any
is not.  ``nosell.cli._cells`` must write the same texts.

``reference_plan_to_dict`` builds the JSON report's document one number
at a time with the scalar 10-digit rule; ``nosell.cli.render_json`` must
produce ``json.dumps(reference_plan_to_dict(...), indent=2) + "\\n"``.
"""

import math

import numpy as np

from nosell import L1Case, L2Solution

from helpers import assets_of

ASSET_FIELDS = ("id", "value", "target", "naive", "adjustment", "adjustment_cents", "final_allocation")


def _sig10(x):
    """x at 10 significant digits; unrounded where the rounding overflows."""
    x = float(x)
    rounded = float("%.10g" % x)
    if math.isfinite(rounded):
        return rounded
    if math.isfinite(x):
        return x
    raise ValueError(f"the JSON report cannot hold the non-finite number {x!r}")


def reference_plan_to_dict(portfolio, plan, samples=None):
    doc = {"norm": plan.norm.value, "budget": _sig10(plan.budget)}
    if isinstance(plan.solution, L2Solution):
        doc["certificate"] = {
            "k_star": plan.solution.active_count,
            "lambda_star": _sig10(plan.solution.threshold),
        }
    elif plan.solution.case is L1Case.DEFICIT:
        doc["case"] = "deficit"
        doc["alpha"] = _sig10(plan.solution.scale)
    else:
        doc["case"] = "surplus"
        doc["slack"] = _sig10(plan.solution.slack)
    doc["assets"] = []
    for i, asset in enumerate(assets_of(portfolio)):
        row = (
            asset.id,
            _sig10(asset.value),
            _sig10(asset.target),
            _sig10(plan.naive[i]),
            _sig10(plan.adjustments[i]),
            int(plan.rounded_cents[i]),
            _sig10(plan.final_allocations[i]),
        )
        doc["assets"].append(dict(zip(ASSET_FIELDS, row)))
    if samples is not None:
        doc["samples"] = [[_sig10(v) for v in member] for member in samples]
    return doc


def _money(x):
    if not math.isfinite(x):
        return "n/a"
    if x < 0:
        return f"-${abs(x):,.0f}"
    # a zero of either sign prints $0
    return f"${abs(x):,.0f}"


def _pct(fractions):
    """One percent text per fraction, or n/a throughout when any percent
    is not finite."""
    percents = [fraction * 100.0 for fraction in fractions]
    if not all(math.isfinite(percent) for percent in percents):
        return ["n/a"] * len(percents)
    # a zero of either sign prints 0%
    return [f"{percent:.0f}%" if percent else "0%" for percent in percents]


def money_texts(column):
    """Whole dollars, one text per number; ``n/a`` for one that is not
    finite (the texts inf and nan are the only ones with an ``n``).  A
    zero prints ``$0`` whatever its sign: -0.0 + 0.0 is 0.0."""
    texts = [f"-${-x:,.0f}" if x < 0 else f"${x + 0.0:,.0f}" for x in column]
    if "n" in "".join(texts):
        texts = ["n/a" if "n" in text else text for text in texts]
    return texts


def pct_texts(column):
    """Whole percents of fractions (the ``%`` format is ``f`` of ``x *
    100.0``, then ``%``), or ``n/a`` throughout when any is not finite.  A
    zero prints ``0%`` whatever its sign."""
    texts = [f"{x + 0.0:.0%}" for x in column]
    return ["n/a"] * len(texts) if "n" in "".join(texts) else texts


def reference_render_table(portfolio, plan, samples=None):
    total = portfolio.total
    header = ["asset", "value", "current", "target", "naive", "buy", "final"]
    assets = assets_of(portfolio)
    # finite entries can sum past the float64 maximum
    with np.errstate(over="ignore", invalid="ignore"):
        sums = [float(np.sum(column)) for column in (portfolio.targets, plan.naive, plan.adjustments,
                                                     plan.final_allocations)]
    # a share of a zero total is not finite either way
    current = _pct([asset.value / total if total else math.nan for asset in assets] + [1.0])
    target = _pct([asset.target for asset in assets] + [sums[0]])
    final = _pct([float(x) for x in plan.final_allocations] + [sums[3]])
    body = []
    for i, asset in enumerate(assets):
        body.append([
            asset.id,
            _money(asset.value),
            current[i],
            target[i],
            _money(plan.naive[i]),
            _money(plan.adjustments[i]),
            final[i],
        ])
    body.append([
        "total",
        _money(total),
        current[-1],
        target[-1],
        _money(sums[1]),
        _money(sums[2]),
        final[-1],
    ])
    widths = [max(len(header[c]), *(len(row[c]) for row in body)) for c in range(len(header))]
    lines = []

    def fmt(row):
        cells = [row[0].ljust(widths[0])]
        cells += [row[c].rjust(widths[c]) for c in range(1, len(row))]
        return "  ".join(cells).rstrip()

    lines.append(fmt(header))
    lines.append("  ".join("-" * w for w in widths))
    for row in body[:-1]:
        lines.append(fmt(row))
    lines.append("  ".join("-" * w for w in widths))
    lines.append(fmt(body[-1]))
    if isinstance(plan.solution, L2Solution):
        certificate = f"k* = {plan.solution.active_count}, lambda* = {plan.solution.threshold:.10g}"
    elif plan.solution.case is L1Case.DEFICIT:
        certificate = f"case = deficit, alpha = {plan.solution.scale:.10g}"
    else:
        certificate = f"case = surplus, slack = {plan.solution.slack:.10g}"
    lines.append("")
    lines.append(
        f"contribution {_money(plan.budget)} allocated under {plan.norm.value}; {certificate}"
    )
    if samples:
        lines.append("")
        lines.append(f"sampled l1 members ({len(samples)}):")
        for member in samples:
            lines.append("  " + ", ".join(f"{v:,.2f}" for v in member))
    return "\n".join(lines) + "\n"
