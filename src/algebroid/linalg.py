"""Exact linear algebra over the rationals and over polynomial entries.

One kernel, ``_row_echelon``, eliminates for the whole package: one-step
fraction-free Bareiss (Bareiss 1968) in pure Python, on arbitrary-precision
integers or on ``Poly`` entries, so every result is exact.  A rational
matrix is split into connected blocks first: columns that share a row are
joined by union-find over the row supports, and each block is reduced on
its own columns.  Ranks add up over blocks and kernel vectors vanish
outside their block, so the results equal those of eliminating the whole
matrix; a dense matrix is one block.  The cochain differentials hold about
two nonzeros per row and split into blocks of a few columns, so
elimination cost follows the largest block, not the size of the matrix.
A ``Poly`` matrix is reduced whole, so its pivot entries (the caveats of a
generic rank) are those of the dense matrix.  It is eliminated over Z[x]:
each row is scaled by the lcm of its coefficients' denominators, and each
pivot is divided back by the product of the scales of the pivot rows at
and above it, so the kernel multiplies and divides no ``Fraction`` and the
pivots equal those of eliminating the rational rows.  Its entries are
packed once for the whole matrix (``poly._Packing``, described in the
``poly`` module docstring), with fields wide enough for twice the sum over
rows of their largest entry degree, which bounds every Bareiss product.

One back-substitution, ``_back_substitute``, turns echelon rows of either
entry type into kernel vectors with one exact ``//`` per coordinate, so no
fraction arises and every product stays inside the fields' bound.

A rational matrix is a list of sparse rows, and a sparse row is a list of
``(column, nonzero value)`` pairs; kernel vectors come back in the same
form.  Callers pass the column count explicitly so empty matrices keep
their shape.  Each row is scaled by the lcm of its denominators before
elimination — row scaling preserves both the row space and the kernel
exactly.  ``Poly`` matrices stay dense lists of rows.
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


def _blocks(rows, ncols):
    """Split a sparse rational matrix into its connected blocks.

    Each row is scaled by the lcm of its denominators.  Columns that share a
    row are joined (union-find over row supports), so no row has entries in
    two blocks.  Returns a list of (columns, integer_rows): the block's
    columns in ascending order, and its rows as dense integer lists over
    those columns, in input order.  Blocks come in the order of their first
    column; columns no row touches belong to no block.
    """
    parent = list(range(ncols))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    scaled = []
    for row in rows:
        if not row:
            continue
        scale = 1
        for j, value in row:
            if not 0 <= j < ncols:
                raise ValueError(f"column {j} is out of range for {ncols} columns")
            if isinstance(value, Fraction):
                scale = lcm(scale, value.denominator)
        root = find(row[0][0])
        for j, _ in row:
            other = find(j)
            if other != root:
                parent[other] = root
        scaled.append([(j, int(value * scale)) for j, value in row])

    block_rows = {}  # root -> rows, keyed in first-row order
    for row in scaled:
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
            values = [0] * len(cols)
            for j, value in row:
                values[local[j]] = value
            dense.append(values)
        out.append((cols, dense))
    return out


def echelon(rows, ncols):
    """Rank and pivot columns of a rational matrix, block by block.

    A column is a pivot when it is not in the span of the columns before it;
    that does not depend on row order, so the blocks' pivots, merged in
    column order, are the pivots of the whole matrix.
    """
    rank_ = 0
    pivots = []
    for columns, block in _blocks(rows, ncols):
        block_rank, block_pivots = _row_echelon(block, len(columns))
        rank_ += block_rank
        pivots.extend(columns[c] for c in block_pivots)
    pivots.sort()
    return rank_, pivots


def rank(rows, ncols) -> int:
    return echelon(rows, ncols)[0]


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
    for columns, block in _blocks(rows, ncols):
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
    """``rows`` of ``Poly`` scaled to Z[x] and packed for ``_row_echelon``.

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
    """(generic rank, pivot entries) of a matrix of ``Poly`` values.

    The rank is the rank at the generic point (pivot polynomials are nonzero
    as polynomials); non-constant pivot entries are the caller's caveats.
    Pivot t is a minor over the first t + 1 pivot rows, so it carries the
    product of their scales; only pivots are unpacked and divided back.
    """
    packing, work, scales = _pack_rows(rows)
    rank_, pivots = _row_echelon(work, ncols)
    entries = []
    product = 1
    for t, c in enumerate(pivots):
        product *= scales[id(work[t])]
        entry = packing.unpack(work[t][c].terms)
        entries.append(entry if product == 1 else entry * Fraction(1, product))
    return rank_, entries


def nullspace_generic(rows, ncols):
    """Kernel vectors of a ``Poly`` matrix at the generic point, one per free
    column, in column order, each computed when it is asked for.

    Each is back-substituted on the packed rows, divided by the integer
    content and the common monomial of its entries, and signed so that the
    first of ``sorted_terms`` of its free entry is positive.  Its entries
    have integer coefficients, and M v = 0 identically.
    """
    packing, work, _ = _pack_rows(rows)
    rank_, pivots = _row_echelon(work, ncols)
    one = packing.pack(Poly.one())
    for free in range(ncols):
        if free in pivots:
            continue
        x = _back_substitute(work, rank_, pivots, free, ncols, one)
        content = gcd(*(c for entry in x for c in entry.terms.values()))
        common = packing.common_monomial([key for entry in x for key in entry.terms])
        vector = [packing.unpack({key - common: c // content for key, c in entry.terms.items()})
                  for entry in x]
        if vector[free].sorted_terms()[0][1] < 0:
            vector = [-entry for entry in vector]
        yield vector
