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
pivot row is divided back by the product of the scales of the pivot rows at
and above it, so the kernel multiplies and divides no ``Fraction`` and the
results equal those of eliminating the rational rows.  Its entries are
packed once for the whole matrix (``poly._Packing``): each monomial is one
int, with the total degree in the top field over one field per variable,
so a product of monomials is an addition and a quotient a subtraction
whose guard bits prove divisibility.  Fields are wide enough for twice the
sum over rows of their largest entry degree, which bounds every Bareiss
product, so they never carry.  ``Poly.exact_div`` runs the same packed
division.

A rational matrix is a list of sparse rows, and a sparse row is a list of
``(column, nonzero value)`` pairs; kernel vectors come back in the same
form.  Callers pass the column count explicitly so empty matrices keep
their shape.  Each row is scaled by the lcm of its denominators before
elimination — row scaling preserves both the row space and the kernel
exactly.  ``Poly`` matrices stay dense lists of rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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


def _block_kernel(block, width):
    """(free column, kernel vector) pairs of one integer block, in column order.

    The vector for free column f is the kernel vector that is 1 at f and 0
    at the other free columns, scaled by the lcm of its denominators.  Its
    content is then 1: a prime dividing every entry divides the entry at f,
    which is the lcm, and so leaves the coordinate whose denominator holds
    that prime's full power with an integer prime to it.
    """
    rank_, pivots = _row_echelon(block, width)
    pivot_set = set(pivots)
    out = []
    for free in range(width):
        if free in pivot_set:
            continue
        x = [Fraction(0)] * width
        x[free] = Fraction(1)
        for t in reversed(range(rank_)):
            col = pivots[t]
            row = block[t]
            acc = Fraction(0)
            for j in range(col + 1, width):
                if x[j]:
                    acc += row[j] * x[j]
            x[col] = -acc / row[col]
        scale = 1
        for value in x:
            scale = lcm(scale, value.denominator)
        out.append((free, [int(value * scale) for value in x]))
    return out


def nullspace(rows, ncols):
    """Integer kernel basis, one sparse vector per free column, in column order.

    Each vector is scaled to integer entries with content 1 and a positive
    coordinate at its free column, so the basis is canonical.  It is solved
    inside the block of its free column and is zero outside it; a column no
    row touches gets its unit vector.
    """
    basis = {}
    untouched = set(range(ncols))
    for columns, block in _blocks(rows, ncols):
        untouched.difference_update(columns)
        for free, values in _block_kernel(block, len(columns)):
            basis[columns[free]] = [(j, value) for j, value in zip(columns, values) if value]
    for j in untouched:
        basis[j] = [(j, 1)]
    return [basis[j] for j in sorted(basis)]


def row_space_contains(rows, vector, ncols) -> bool:
    """Whether the sparse ``vector`` lies in the span of the sparse ``rows``."""
    base = rank(rows, ncols)
    return rank(list(rows) + [vector], ncols) == base


# -- elimination over polynomial entries -----------------------------------


def _echelon_generic(rows, ncols):
    """Row echelon form of a ``Poly`` matrix, eliminated over Z[x] on packed keys.

    Each row is scaled by the lcm of the denominators of its entries'
    coefficients, so the kernel sees integer coefficients only.  A nonzero
    scale changes no zero test, so pivots and row swaps are those of the
    unscaled rows.  Every entry is then packed once (``poly._Packing``), so
    ``_row_echelon`` multiplies monomials by adding ints.  Each Bareiss
    entry is a minor of the scaled matrix, so by Leibniz expansion its
    degree is at most S, the sum over rows of their largest entry degree,
    and a product before a division at most 2S: that bounds the fields.
    From its pivot on, pivot row t holds minors over the first t + 1 pivot
    rows, so each entry carries exactly the product of their scales;
    dividing it back gives the entry of unscaled elimination.

    Returns (rank, pivot_columns, rows): row t holds pivot t, zero before
    its pivot column; the caller's rows are not touched.
    """
    bound = 2 * sum(max((entry.total_degree() for entry in row), default=0) for row in rows)
    packing = _Packing([entry for row in rows for entry in row], bound)
    work = []
    scales = {}  # id of a working row -> its scale; _row_echelon swaps the lists
    for row in rows:
        scale = lcm(*(entry.denominator() for entry in row))
        packed = [packing.pack(entry * scale) for entry in row]
        scales[id(packed)] = scale
        work.append(packed)
    rank_, pivots = _row_echelon(work, ncols)
    echelon_rows = []
    product = 1
    for t, c in enumerate(pivots):
        product *= scales[id(work[t])]
        tail = [packing.unpack(entry.terms) for entry in work[t][c:]]
        if product != 1:
            inverse = Fraction(1, product)
            tail = [entry * inverse for entry in tail]
        echelon_rows.append([Poly.zero()] * c + tail)
    return rank_, pivots, echelon_rows


def rank_generic(rows, ncols):
    """(generic rank, pivot entries) of a matrix of ``Poly`` values.

    The rank is the rank at the generic point (pivot polynomials are nonzero
    as polynomials); non-constant pivot entries are the caller's caveats.
    """
    rank_, pivots, work = _echelon_generic(rows, ncols)
    return rank_, [work[t][c] for t, c in enumerate(pivots)]


def nullspace_generic(rows, ncols):
    """Kernel basis of a ``Poly`` matrix at the generic point.

    Back-substitution runs in the fraction field, carried as (num, den)
    pairs of polynomials; denominators are cleared at the end, so each
    returned vector has ``Poly`` entries and satisfies M v = 0 identically.
    """
    rank_, pivots, work = _echelon_generic(rows, ncols)
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
