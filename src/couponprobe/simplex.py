"""Exact dense simplex over rationals for the small LPs in this package.

Its one caller in the package is the concave extension's profile LP
(oracle.concave_extension_exact).  The tests call it too: they check the
relaxation's direction LP and the oracle's relaxation optimum against it,
and both are solved without it, by the integer hull walk.  All inputs must
be Fractions (or ints).  Bland's rule keeps the method finite, but no
bound on its pivots is known before they are made, so each pivot is
admitted (influence._admit) against a budget of cell updates, MAX_PIVOT_CELLS.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .influence import _admit

ZERO = Fraction(0)
ONE = Fraction(1)
# The most cell updates, pivots times tableau cells, one call may make.  The
# concave extension's tableaus (256 to 1,024 profiles; 2-core x86 host,
# Python 3.11) took 0.6-1.6 us an update, so a refusal comes within about 7 s.
MAX_PIVOT_CELLS = 1 << 22


def maximize(
    objective: list[Fraction],
    lhs: list[list[Fraction]],
    rhs: list[Fraction],
) -> tuple[Fraction, list[Fraction]]:
    """Maximize objective.x subject to lhs.x <= rhs and x >= 0, exactly.

    Every rhs entry must be non-negative so the all-slack basis is feasible.
    Returns (optimal value, optimal x).  Raises ValueError on an unbounded
    program, and before a pivot that takes the cell updates past
    MAX_PIVOT_CELLS.
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
    for pivots in itertools.count(1):  # the last pass may only confirm optimality
        # Bland: entering variable is the lowest-index negative reduced cost.
        enter = -1
        for j in range(width):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        _admit(pivots * (m + 1) * (width + 1), MAX_PIVOT_CELLS, "the simplex", "cell updates",
               f"{pivots} pivots so far x {m + 1} x {width + 1} tableau cells")
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

    x = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = rows[i][-1]
    return obj[-1], x
