"""Exact linear algebra over the rationals and over polynomial entries.

A matrix of either entry type is a list of sparse rows, and a sparse row is
a list of ``(column, nonzero value)`` pairs, the values ints, ``Fraction``s
or ``Poly``s; kernel vectors come back in the same form.  Callers pass the
column count explicitly so empty matrices keep their shape.

Int and ``Fraction`` matrices go through one sparse eliminator,
``_echelon`` (row-by-row elimination on dict rows, as for exact homology
ranks: Dumas, Saunders & Villard 2001), which touches nonzeros only.  A rank
does not depend on the elimination order, and the leading columns of an
echelon basis depend only on the row space, so the free columns and the
canonical kernel vectors of ``nullspace`` are those of any exact elimination.

``Poly`` matrices are split into connected blocks by ``_blocks``, and each
block is eliminated by ``_row_echelon``, one-step fraction-free Bareiss
(Bareiss 1968) on packed integer polynomials (``_pack_rows``), and
back-substituted by ``_back_substitute`` with one exact ``//`` per entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from algebroid.poly import Poly, _Packing

# One pure-Python path per entry type; benchmark results record it to compare like with like.
BACKEND = "pure-python"


def _echelon(rows, ncols, pivots):
    """``pivots`` (leading column -> pivot row, a dict column -> int)
    extended by the sparse rational ``rows``, in order, and returned.

    Each row becomes a dict of ints, scaled by the lcm of its denominators,
    then b row - a p while a pivot row p sits at its leading column c, with
    a/b = row[c]/p[c] in lowest terms.  A row left with a new leading column
    is stored there divided by the gcd of its entries; a zero row is dropped.
    """
    for row in rows:
        v, scale = {}, 0  # scale stays 0 while every entry is an int
        for j, value in row:
            if not 0 <= j < ncols:
                raise ValueError(f"column {j} is out of range for {ncols} columns")
            v[j] = value
            if type(value) is not int:
                scale = lcm(scale or 1, value.denominator)
        if scale:
            v = {j: value.numerator * (scale // value.denominator) for j, value in v.items()}
        while v:
            c = min(v)
            p = pivots.get(c)
            if p is None:
                content = gcd(*v.values())
                pivots[c] = {j: a // content for j, a in v.items()} if content > 1 else v
                break
            g = gcd(v[c], p[c])
            a, b = v[c] // g, p[c] // g
            if b != 1:
                for j in v:
                    v[j] *= b
            for j, x in p.items():
                y = v.get(j, 0) - a * x
                if y:
                    v[j] = y
                else:
                    del v[j]
    return pivots


def rank(rows, ncols) -> int:
    """Rank of a sparse rational matrix: the number of its pivot rows."""
    return len(_echelon(rows, ncols, {}))


def nullspace(rows, ncols):
    """Integer kernel basis, one sparse vector per free column, in column order.

    The vector of free column f is 1 at f and 0 at the other free columns,
    back-substituted on the pivot rows left of f, scaled up where a division
    is inexact, then divided by the gcd of its entries and signed so that
    its entry at f is positive: the primitive integer vector on that line of
    kernel vectors, so the basis is canonical.
    """
    pivots = _echelon(rows, ncols, {})
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = {free: 1}
        for c in sorted((c for c in pivots if c < free), reverse=True):
            p = pivots[c]
            s = sum(a * x[j] for j, a in p.items() if j in x)
            if s:
                g = gcd(s, p[c])
                for j in x:
                    x[j] *= p[c] // g
                x[c] = -s // g
        content = gcd(*x.values()) if x[free] > 0 else -gcd(*x.values())
        basis.append([(j, x[j] // content) for j in sorted(x)])
    return basis


def row_space_contains(rows, vector, ncols) -> bool:
    """Whether the sparse ``vector`` lies in the span of the sparse ``rows``:
    whether it adds no pivot row to theirs."""
    pivots = _echelon(rows, ncols, {})
    rank_ = len(pivots)
    return len(_echelon([vector], ncols, pivots)) == rank_


# -- elimination over polynomial entries -----------------------------------


def _row_echelon(rows, ncols):
    """Reduce ``rows`` (lists of packed ``Poly`` entries, mutated in place)
    to row echelon form.

    One-step Bareiss: after processing pivot column c with pivot p, every
    entry right of c in a lower row is updated to (p*a - head*b) // prev,
    where prev is the previous pivot; the first step divides by nothing.
    All divisions are exact polynomial divisions.
    Pivots are chosen as the first nonzero entry scanning down each column,
    so the result is deterministic.  Entries below a pivot are left as they
    were: nothing reads them again.

    Returns (rank, pivot_columns); row t of the result holds pivot t.
    """
    nrows = len(rows)
    pivots = []
    prev = None
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
                value = piv * row_i[j] - head * row_r[j]
                row_i[j] = value if prev is None else value // prev
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots


def _blocks(rows, ncols, zero):
    """Split a sparse matrix into its connected blocks: a list of (columns,
    rows), the block's columns in ascending order and its rows, in input
    order, as dense lists over those columns filled with ``zero``.  Blocks
    come in the order of their first column; columns no row touches belong
    to no block.
    """
    parent = list(range(ncols))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for row in rows:
        root = -1
        for j, _ in row:
            if not 0 <= j < ncols:
                raise ValueError(f"column {j} is out of range for {ncols} columns")
            other = find(j)
            if root < 0:
                root = other
            elif other != root:
                parent[other] = root

    block_rows = {}  # root -> rows, keyed in first-row order
    for row in rows:
        if row:
            block_rows.setdefault(find(row[0][0]), []).append(row)
    columns = {}  # root -> columns in ascending order, keyed in first-column order
    for j in range(ncols):
        root = find(j)
        if root in block_rows:
            columns.setdefault(root, []).append(j)
    out = []
    for root, cols in columns.items():
        local = {j: position for position, j in enumerate(cols)}
        dense = []
        for row in block_rows[root]:
            values = [zero] * len(cols)
            for j, value in row:
                values[local[j]] = value
            dense.append(values)
        out.append((cols, dense))
    return out


def _back_substitute(rows, rank_, pivots, free, ncols, one):
    """The kernel vector of ``_row_echelon``'s packed ``rows`` that is zero
    at every free column but ``free``.

    Its entry at ``free`` is the last pivot (``one`` at rank 0); pivot t, at
    column c, is ``-(sum over j > c of U[t][j] x[j]) // U[t][c]``.  By
    Cramer's rule each entry is then a minor of the pivot rows, so every
    division is exact (Bareiss 1968; Nakos, Turner & Williams 1997) and
    every product, of two minors, stays inside the elimination's bound.
    """
    zero = one - one
    x = [zero] * ncols
    x[free] = rows[rank_ - 1][pivots[rank_ - 1]] if rank_ else one
    for t in reversed(range(rank_)):
        col = pivots[t]
        row = rows[t]
        acc = zero
        for j in range(col + 1, ncols):
            if x[j]:
                acc = acc - row[j] * x[j]
        x[col] = acc // row[col]
    return x


def _pack_rows(rows):
    """Dense ``rows`` of ``Poly`` scaled to Z[x] and packed for ``_row_echelon``.

    Each row is scaled by the lcm of its coefficients' denominators, which
    changes no zero test and no kernel, and each entry is packed once
    (``poly._Packing``).  Each Bareiss entry is a minor of the scaled
    matrix, so by Leibniz expansion its degree is at most S, the sum over
    rows of their largest entry degree, and a product before a division at
    most 2S: that bounds the fields.  Returns (packing, packed rows, scales
    keyed by the id of each packed row, as ``_row_echelon`` swaps them).
    """
    bound = 2 * sum(max((entry.total_degree() for entry in row), default=0) for row in rows)
    packing = _Packing([entry for row in rows for entry in row], bound)
    work = []
    scales = {}
    for row in rows:
        scale = lcm(*(entry.denominator() for entry in row))
        packed = [packing.pack(entry * scale) for entry in row]
        scales[id(packed)] = scale
        work.append(packed)
    return packing, work, scales


def rank_generic(rows, ncols):
    """(generic rank, pivot entries in column order) of a sparse matrix of
    ``Poly`` values: the rank at the generic point, where pivots are nonzero
    polynomials.  Non-constant pivot entries are the caller's caveats.
    Pivot t of a block is a minor over the block's first t + 1 pivot rows,
    so it carries the product of their scales; only pivots are unpacked
    and divided back.
    """
    rank_ = 0
    entries = {}  # pivot column -> pivot entry
    for columns, block in _blocks(rows, ncols, Poly.zero()):
        packing, work, scales = _pack_rows(block)
        block_rank, pivots = _row_echelon(work, len(columns))
        rank_ += block_rank
        product = 1
        for t, c in enumerate(pivots):
            product *= scales[id(work[t])]
            entry = packing.unpack(work[t][c].terms)
            entries[columns[c]] = entry if product == 1 else entry * Fraction(1, product)
    return rank_, [entries[j] for j in sorted(entries)]


def nullspace_generic(rows, ncols):
    """Kernel basis of a sparse ``Poly`` matrix at the generic point, as
    ``nullspace`` gives it: one vector per free column, in column order.
    Each is divided by the integer content and the common monomial of its
    entries, and signed so that the first of ``sorted_terms`` of its free
    entry is positive.
    """
    basis = {}
    untouched = set(range(ncols))
    for columns, block in _blocks(rows, ncols, Poly.zero()):
        untouched.difference_update(columns)
        width = len(columns)
        packing, work, _ = _pack_rows(block)
        rank_, pivots = _row_echelon(work, width)
        one = packing.pack(Poly.one())
        for free in range(width):
            if free in pivots:
                continue
            x = _back_substitute(work, rank_, pivots, free, width, one)
            content = gcd(*(c for entry in x for c in entry.terms.values()))
            common = packing.common_monomial([key for entry in x for key in entry.terms])
            vector = {
                j: packing.unpack({key - common: c // content for key, c in entry.terms.items()})
                for j, entry in zip(columns, x) if entry
            }
            if vector[columns[free]].sorted_terms()[0][1] < 0:
                vector = {j: -entry for j, entry in vector.items()}
            basis[columns[free]] = list(vector.items())
    for j in untouched:
        basis[j] = [(j, Poly.one())]
    return [basis[j] for j in sorted(basis)]
