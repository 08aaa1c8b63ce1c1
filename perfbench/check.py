"""Row checks for the CSV files the CLI writes with ``--out``.

A row fails when
- any numeric cell is non-finite;
- a ``decomposition`` row's ``value`` exceeds its ``error_budget``;
- a ``density_residual`` row's ``value`` exceeds ``solver.tol * rho``;
- (with a reference file) an input or index cell differs from the
  reference, or a result cell differs by more than the reference row's
  ``error_budget`` plus ``REL_SLACK`` times the row's largest result
  magnitude.

``REL_SLACK`` leaves room for an exact algorithm that sums in another
order (a blocked-FFT recursion moves values by about 1e-12).
"""

from __future__ import annotations

import math

REL_SLACK = 1e-8
SOLVER_TOL = 1e-12  # the CLI default; the workloads do not override it

# Columns echoed from the inputs or naming the row; they must match exactly.
EXACT_COLUMNS = frozenset(
    ("alpha1", "alpha2", "alpha3", "volume", "beta", "rho", "quantity", "label",
     "n", "n1", "n2", "n3", "eta", "lam")
)
BUDGET = "error_budget"
# A residual is held to its own bound, not to the reference.
RESIDUAL = "density_residual"


def read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def check_row(row: dict) -> list[str]:
    """Invariant failures of one row (no reference needed)."""
    problems = []
    for col, cell in row.items():
        x = _number(cell)
        if x is not None and not math.isfinite(x):
            problems.append(f"{col}={cell} is not finite")
    quantity = row.get("quantity")
    value, budget = _number(row.get("value", "")), _number(row.get(BUDGET, ""))
    if quantity == "decomposition" and not (
        value is not None and budget is not None and value <= budget
    ):
        problems.append(f"decomposition gap {value!r} exceeds budget {budget!r}")
    if quantity == RESIDUAL:
        limit = SOLVER_TOL * float(row["rho"])
        if not (value is not None and value <= limit):
            problems.append(f"density residual {value!r} exceeds {limit!r}")
    return problems


def compare_row(row: dict, ref: dict) -> list[str]:
    """Differences of one row from its reference row."""
    if list(row) != list(ref):
        return [f"columns {list(row)} differ from reference {list(ref)}"]
    problems = []
    results = [c for c in ref if c not in EXACT_COLUMNS and c != BUDGET]
    for col in ref:
        if col in EXACT_COLUMNS and row[col] != ref[col]:
            problems.append(f"{col}={row[col]} differs from reference {ref[col]}")
    if ref.get("quantity") == RESIDUAL:
        return problems
    budget = _number(ref.get(BUDGET, "")) or 0.0
    scale = max((abs(_number(ref[c])) for c in results if _number(ref[c]) is not None),
                default=0.0)
    tol = budget + REL_SLACK * scale
    for col in results:
        x, r = _number(row[col]), _number(ref[col])
        if (x is None) != (r is None) or (x is None and row[col] != ref[col]):
            problems.append(f"{col}={row[col]!r} differs from reference {ref[col]!r}")
        elif x is not None and not abs(x - r) <= tol:
            problems.append(f"{col}={x!r} differs from reference {r!r} by more than {tol!r}")
    return problems


def check_file(path: str, reference: str | None = None) -> list[str]:
    """All row failures of one output file, as readable strings."""
    rows = read_csv(path)
    if not rows:
        return [f"{path}: no rows"]
    failures = []
    refs = read_csv(reference) if reference is not None else None
    if refs is not None and len(refs) != len(rows):
        failures.append(f"{path}: {len(rows)} rows, reference has {len(refs)}")
        refs = None
    for i, row in enumerate(rows):
        problems = check_row(row)
        if refs is not None:
            problems += compare_row(row, refs[i])
        failures += [f"{path} row {i + 1}: {p}" for p in problems]
    return failures
