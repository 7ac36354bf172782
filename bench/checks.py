"""Output checks for the benchmark workloads.

Every check returns a list of problems; an empty list means the output
passed.  Golden files under ``golden/`` were written by the seed commit
(see ``capture_golden.py``).
"""

from __future__ import annotations

import gzip
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Classical outputs must match the golden values to this relative
# tolerance; a value smaller than FLOOR times its column's largest
# magnitude is compared against that floor instead of its own size.
RTOL = 1e-8
FLOOR = 1e-3
# Monte Carlo means at another seed must lie within this many combined
# standard errors of the stored reference curve.
SIGMAS = 5.0

# Physical invariants, by column name: passivity (Re sigma >= 0,
# 0 <= R <= 1), |beta| <= 1 and 0 <= F <= 1.
BOUNDS = {
    "sigma_re_S": (0.0, math.inf),
    "R": (0.0, 1.0),
    "beta_abs": (0.0, 1.0),
    "F_initial": (0.0, 1.0),
    "F_matched": (0.0, 1.0),
    "F_bar": (0.0, 1.0),
    "F0": (0.0, 1.0),
    "std_err": (0.0, math.inf),
}


def golden_text(name: str) -> str:
    with gzip.open(GOLDEN_DIR / f"{name}.csv.gz", "rt", encoding="utf-8") as fh:
        return fh.read()


def table(text: str) -> tuple[list[str], list[list[str]]]:
    """Column names and data rows of a gspp CSV (comment lines dropped)."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _shape_problems(name, columns, rows, ref_columns, ref_rows) -> list[str]:
    if columns != ref_columns:
        return [f"{name}: columns {columns} differ from the golden {ref_columns}"]
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, golden has {len(ref_rows)}"]
    return []


def compare_golden(name: str, text: str, ref_text: str, skip=()) -> list[str]:
    """Cell-by-cell comparison at RTOL; `skip` names columns left out."""
    columns, rows = table(text)
    ref_columns, ref_rows = table(ref_text)
    problems = _shape_problems(name, columns, rows, ref_columns, ref_rows)
    if problems:
        return problems
    for c, col in enumerate(columns):
        if col in skip:
            continue
        ref_values = [_number(r[c]) for r in ref_rows]
        finite = [abs(v) for v in ref_values if v is not None and math.isfinite(v)]
        floor = FLOOR * max(finite, default=0.0)
        for i, (row, ref) in enumerate(zip(rows, ref_values)):
            cell = row[c]
            if ref is None:
                ok = cell == ref_rows[i][c]
            else:
                got = _number(cell)
                ok = got is not None and (
                    (math.isnan(got) and math.isnan(ref))
                    or abs(got - ref) <= RTOL * max(abs(ref), floor))
            if not ok:
                problems.append(f"{name}: row {i} {col} = {cell}, golden {ref_rows[i][c]}")
                break
    return problems


def invariants(name: str, text: str) -> list[str]:
    columns, rows = table(text)
    problems = []
    for c, col in enumerate(columns):
        if col not in BOUNDS:
            continue
        lo, hi = BOUNDS[col]
        for i, row in enumerate(rows):
            value = _number(row[c])
            if value is None or not lo <= value <= hi:
                problems.append(f"{name}: row {i} {col} = {row[c]} outside [{lo}, {hi}]")
                break
    return problems


def qec_against_reference(name: str, text: str, ref_text: str, exact: bool) -> list[str]:
    """The deterministic columns match the reference at RTOL; F_bar lies
    within SIGMAS combined standard errors of it.  With `exact` (same seed
    as the reference) the table must match it byte for byte."""
    columns, rows = table(text)
    ref_columns, ref_rows = table(ref_text)
    if exact:
        if (columns, rows) != (ref_columns, ref_rows):
            return [f"{name}: table differs from the stored --workers 1 reference"]
        return []
    problems = compare_golden(name, text, ref_text, skip=("F_bar", "std_err"))
    if problems:
        return problems
    fb, se = columns.index("F_bar"), columns.index("std_err")
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        sigma = math.hypot(float(row[se]), float(ref[se]))
        if abs(float(row[fb]) - float(ref[fb])) > SIGMAS * sigma + 1e-12:
            problems.append(f"{name}: row {i} F_bar = {row[fb]} is more than {SIGMAS:g}"
                            f" standard errors from the reference {ref[fb]}")
    return problems
