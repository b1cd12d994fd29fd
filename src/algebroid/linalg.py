"""Exact linear algebra over the rationals and over polynomial entries.

Ranks, kernels, and row-span tests are computed by one-step fraction-free
Bareiss elimination (Bareiss 1968), in pure Python on arbitrary-precision
integers, so every result is exact.

Matrices are lists of rows; callers pass the column count explicitly so
empty matrices keep their shape.  Rational input rows are scaled by the
lcm of their denominators before elimination — row scaling preserves both
the row space and the kernel exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from algebroid.poly import Poly

# The only elimination path; benchmark results record it to compare like with like.
BACKEND = "pure-python"


def _row_echelon(rows, ncols):
    """Reduce ``rows`` (lists of ints, mutated in place) to row echelon form.

    One-step Bareiss: after processing pivot column c with pivot p, every
    remaining entry is updated to (p*a - head*b) // prev, where prev is the
    previous pivot (1 initially); all divisions are exact.  Pivots are chosen
    as the first nonzero entry scanning down each column, so the result is
    deterministic.

    Returns (rank, pivot_columns).
    """
    nrows = len(rows)
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        row_r = rows[r]
        for i in range(r + 1, nrows):
            row_i = rows[i]
            head = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = (piv * row_i[j] - head * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots


def _to_integer_rows(rows, ncols):
    out = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        scale = 1
        for value in row:
            if isinstance(value, Fraction):
                scale = lcm(scale, value.denominator)
        out.append([int(value * scale) for value in row])
    return out


def echelon(rows, ncols):
    """Echelon form of a rational matrix: (rank, pivot_columns, integer_rows)."""
    work = _to_integer_rows(rows, ncols)
    rank_, pivots = _row_echelon(work, ncols)
    return rank_, pivots, work


def rank(rows, ncols) -> int:
    return echelon(rows, ncols)[0]


def nullspace(rows, ncols):
    """Integer kernel basis, one vector per free column, in column order.

    Each vector is scaled to integer entries with content 1 and a positive
    coordinate at its free column, so the basis is canonical.
    """
    rank_, pivots, work = echelon(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for t in reversed(range(rank_)):
            col = pivots[t]
            row = work[t]
            acc = Fraction(0)
            for j in range(col + 1, ncols):
                if x[j]:
                    acc += row[j] * x[j]
            x[col] = -acc / row[col]
        scale = 1
        for value in x:
            scale = lcm(scale, value.denominator)
        ints = [int(value * scale) for value in x]
        content = 0
        for value in ints:
            content = gcd(content, value)
        if content > 1:
            ints = [value // content for value in ints]
        basis.append(tuple(ints))
    return basis


def row_space_contains(rows, vector, ncols) -> bool:
    base = rank(rows, ncols)
    return rank(list(rows) + [list(vector)], ncols) == base


# -- elimination over polynomial entries -----------------------------------


def echelon_generic(rows, ncols):
    """Fraction-free Bareiss over ``Poly`` entries.

    Returns (rank, pivot_columns, echelon_rows, pivot_entries).  The rank is
    the rank at the generic point (pivot polynomials are nonzero as
    polynomials); non-constant pivots are the caller's caveats.
    """
    work = [list(row) for row in rows]
    nrows = len(work)
    zero = Poly.zero()
    pivots = []
    pivot_entries = []
    prev = None
    r = 0
    for c in range(ncols):
        pivot_row = -1
        for i in range(r, nrows):
            if not work[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
        piv = work[r][c]
        row_r = work[r]
        for i in range(r + 1, nrows):
            row_i = work[i]
            head = row_i[c]
            for j in range(c + 1, ncols):
                value = piv * row_i[j] - head * row_r[j]
                row_i[j] = value if prev is None else value.exact_div(prev)
            row_i[c] = zero
        prev = piv
        pivots.append(c)
        pivot_entries.append(piv)
        r += 1
        if r == nrows:
            break
    return r, pivots, work, pivot_entries


def rank_generic(rows, ncols):
    """(generic rank, pivot entries) of a matrix of ``Poly`` values."""
    r, _, _, pivot_entries = echelon_generic(rows, ncols)
    return r, pivot_entries


def nullspace_generic(rows, ncols):
    """Kernel basis of a ``Poly`` matrix at the generic point.

    Back-substitution runs in the fraction field, carried as (num, den)
    pairs of polynomials; denominators are cleared at the end, so each
    returned vector has ``Poly`` entries and satisfies M v = 0 identically.
    """
    rank_, pivots, work, _ = echelon_generic(rows, ncols)
    pivot_set = set(pivots)
    one = Poly.one()
    zero = Poly.zero()
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        x = [(zero, one)] * ncols
        x[free] = (one, one)
        for t in reversed(range(rank_)):
            col = pivots[t]
            row = work[t]
            num, den = zero, one
            for j in range(col + 1, ncols):
                xn, xd = x[j]
                if xn.is_zero():
                    continue
                # num/den += row[j] * xn/xd
                num = num * xd + row[j] * xn * den
                den = den * xd
            x[col] = (-num, den * row[col])
        clear = one
        for _, xd in x:
            clear = clear * xd
        vector = [xn * clear.exact_div(xd) for xn, xd in x]
        basis.append(vector)
    return basis
