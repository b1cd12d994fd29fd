"""Exact linear algebra over the rationals and over polynomial entries.

A matrix of either entry type is a list of sparse rows, and a sparse row is
a list of ``(column, nonzero value)`` pairs, the values ints, ``Fraction``s
or ``Poly``s; kernel vectors come back in the same form.  Callers pass the
column count explicitly so empty matrices keep their shape.

``_blocks`` splits a matrix once into connected blocks: columns that share
a row are joined by union-find over the row supports.  Each block is
eliminated on its own columns; ranks add up over blocks and kernel vectors
vanish outside their block, so the results equal those of eliminating the
whole matrix.  The cochain differentials and constant flat maps split into
blocks of a few columns, so elimination cost follows the largest block,
not the size of the matrix.

One kernel, ``_row_echelon``, eliminates every block: one-step
fraction-free Bareiss (Bareiss 1968) in pure Python, on arbitrary-precision
integers or on packed integer polynomials (``_pack_rows``), so every result
is exact.  Each row is scaled by the lcm of its coefficients' denominators
first, which preserves both the row space and the kernel, so
``_row_echelon`` multiplies and divides no ``Fraction``.  One back-substitution,
``_back_substitute``, turns echelon rows of either entry type into kernel
vectors with one exact ``//`` per coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from algebroid.poly import Poly, _Packing

# The only elimination path; benchmark results record it to compare like with like.
BACKEND = "pure-python"


def _row_echelon(rows, ncols):
    """Reduce ``rows`` (lists of ints or of ``Poly``, mutated in place) to
    row echelon form.

    One-step Bareiss: after processing pivot column c with pivot p, every
    entry right of c in a lower row is updated to (p*a - head*b) // prev,
    where prev is the previous pivot; the first step divides by nothing.
    All divisions are exact, over the integers and over polynomials alike.
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


def _blocks(rows, ncols, zero=0):
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


def _integer_rows(rows):
    """Sparse rational rows, each scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        denominators = [value.denominator for _, value in row if type(value) is Fraction]
        if denominators:
            scale = lcm(*denominators)
            row = [(j, int(value * scale)) for j, value in row]
        out.append(row)
    return out


def rank(rows, ncols) -> int:
    """Rank of a sparse rational matrix: the sum of its blocks' ranks."""
    return sum(_row_echelon(block, len(columns))[0]
               for columns, block in _blocks(_integer_rows(rows), ncols))


def _back_substitute(rows, rank_, pivots, free, ncols, one):
    """The kernel vector of ``_row_echelon``'s ``rows`` (ints or ``_Packed``)
    that is zero at every free column but ``free``.

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


def nullspace(rows, ncols):
    """Integer kernel basis, one sparse vector per free column, in column order.

    Each vector is back-substituted, then divided by the gcd of its entries
    and signed so that its free coordinate is positive: the primitive
    integer vector on the line of kernel vectors that vanish at the other
    free columns, so the basis is canonical.  It is solved inside the block
    of its free column and is zero outside it; a column no row touches gets
    its unit vector.
    """
    basis = {}
    untouched = set(range(ncols))
    for columns, block in _blocks(_integer_rows(rows), ncols):
        untouched.difference_update(columns)
        width = len(columns)
        rank_, pivots = _row_echelon(block, width)
        for free in range(width):
            if free in pivots:
                continue
            x = _back_substitute(block, rank_, pivots, free, width, 1)
            content = gcd(*x) if x[free] > 0 else -gcd(*x)
            basis[columns[free]] = [(j, value // content) for j, value in zip(columns, x) if value]
    for j in untouched:
        basis[j] = [(j, 1)]
    return [basis[j] for j in sorted(basis)]


def row_space_contains(rows, vector, ncols) -> bool:
    """Whether the sparse ``vector`` lies in the span of the sparse ``rows``."""
    base = rank(rows, ncols)
    return rank(list(rows) + [vector], ncols) == base


# -- elimination over polynomial entries -----------------------------------


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
