"""Exact dense simplex over rationals for the small LPs in this package.

Its one caller in the package is the concave extension's profile LP
(oracle.concave_extension_exact).  The tests call it too: they check the
relaxation's direction LP and the oracle's relaxation optimum against it,
and both are solved without it, by the integer hull walk.  All inputs must
be Fractions (or ints).  Bland's rule keeps the method finite; nothing here
is tuned for scale beyond a few thousand variables and a handful of
constraint rows.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
# Bland's rule always terminates, but may take exponentially many pivots.
MAX_PIVOTS = 200000


def maximize(
    objective: list[Fraction],
    lhs: list[list[Fraction]],
    rhs: list[Fraction],
) -> tuple[Fraction, list[Fraction]]:
    """Maximize objective.x subject to lhs.x <= rhs and x >= 0, exactly.

    Every rhs entry must be non-negative so the all-slack basis is feasible.
    Returns (optimal value, optimal x).  Raises on an unbounded program.
    """
    n = len(objective)
    m = len(lhs)
    if len(rhs) != m:
        raise ValueError("rhs length does not match number of rows")
    for b in rhs:
        if b < 0:
            raise ValueError("rhs entries must be non-negative")

    # tableau rows: [A | I | b]; objective row holds reduced costs, negated.
    rows: list[list[Fraction]] = []
    for i in range(m):
        if len(lhs[i]) != n:
            raise ValueError(f"row {i} has wrong width")
        row = [Fraction(a) for a in lhs[i]]
        row.extend(ONE if j == i else ZERO for j in range(m))
        row.append(Fraction(rhs[i]))
        rows.append(row)
    obj = [-Fraction(c) for c in objective]
    obj.extend(ZERO for _ in range(m + 1))
    basis = list(range(n, n + m))

    width = n + m
    for _ in range(MAX_PIVOTS + 1):  # the last pass may only confirm optimality
        # Bland: entering variable is the lowest-index negative reduced cost.
        enter = -1
        for j in range(width):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                ratio = rows[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise ValueError("linear program is unbounded")
        pivot_row = rows[leave]
        pivot = pivot_row[enter]
        inv = ONE / pivot
        for j in range(width + 1):
            pivot_row[j] *= inv
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                factor = rows[i][enter]
                row = rows[i]
                for j in range(width + 1):
                    row[j] -= factor * pivot_row[j]
        if obj[enter] != 0:
            factor = obj[enter]
            for j in range(width + 1):
                obj[j] -= factor * pivot_row[j]
        basis[leave] = enter
    else:
        raise RuntimeError("simplex did not terminate within the pivot limit")

    x = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = rows[i][-1]
    return obj[-1], x
