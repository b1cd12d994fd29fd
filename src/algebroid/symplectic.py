"""Constant-coefficient symplectic structures and the Poisson calculus they induce.

A ``ConstantSymplectic`` is a closed 2-form with constant rational
coefficients, in one of two kinds:

- ``standard()``: the countable pairing sum_i dx_{2i} ^ dx_{2i+1}, never
  materialized as a whole; each computation touches a finite block and the
  pairing is expanded lazily over it.
- ``explicit(indices, matrix)``: an antisymmetric rational matrix on a
  finite index block.  The matrix must be invertible on its block (checked
  eagerly); coordinates outside the block are simply unpaired.

One index table serves both tensors: row i of W (column i of -W) and
column j of W^{-1}; for the standard pairing both are
``[(j ^ 1, +1 if j is even else -1)]``.  ``flat_components`` and
``sharp_components`` give these lists.  ``closure`` (the smallest index set
closed under the pairing) and ``paired_indices`` (the part of it that the
pairing pairs) answer the other modules; only the DSL serializer reads the
kind, to write the declaration back.

``materialize(cover)`` is the 2-form omega, a grade-2 KForm, and
``bivector(cover)`` the Poisson bivector pi, a grade-2 KVector read off
W^{-1} and zero on unpaired coordinates.  Below the CLI a structure
reaches the other modules only as these two tensors: the Dirac graph, its
orthogonal complement and the weak check read omega; the cotangent
algebroid (anchor a -> i_a pi), sigma = -[pi, .], cohomology and
``poisson_bracket`` read pi, so degenerate blocks still carry their
Poisson calculus.

Sign conventions, fixed once, on a cover holding every index involved:

- X -> i_X omega is row i of W on e_i;
- a -> i_a pi is column j of W^{-1} on dx_j, so i_{i_a pi} omega = -a
  when every index of a is paired;
- X_f = i_{df} pi and {f, g} = X_f(g), which is omega(X_f, X_g) on paired
  indices; sigma f = -[pi, f] = -X_f.

``strict_bivector(indices)`` is the strict refusal: it builds pi only when
the pairing pairs every index, and otherwise raises NotInvertible at the
first unpaired one.  The ``bracket`` subcommand passes it the indices of df
then dg, or of a then b, so a bracket that would need an unpaired
coordinate fails instead of reading zero there.
"""

from __future__ import annotations

from fractions import Fraction

from algebroid import linalg
from algebroid.errors import GradeError, NotInvertible
from algebroid.exterior import KForm, KVector, de_rham, interior_product, vector_apply
from algebroid.poly import Poly


class ConstantSymplectic:
    """A constant closed 2-form, standard pairing or explicit block."""

    __slots__ = ("kind", "block", "matrix", "inverse", "_columns")

    def __init__(self, kind, block=None, matrix=None, inverse=None):
        self.kind = kind
        self.block = block
        self.matrix = matrix
        self.inverse = inverse
        self._columns = {}

    @classmethod
    def standard(cls) -> "ConstantSymplectic":
        return cls("standard")

    @classmethod
    def explicit(cls, indices, matrix) -> "ConstantSymplectic":
        block = tuple(sorted(indices))
        if len(set(block)) != len(block):
            raise ValueError("explicit block indices must be distinct")
        if any(i < 0 for i in block):
            raise ValueError("coordinate indices are natural numbers")
        n = len(block)
        rows = [[Fraction(value) for value in row] for row in matrix]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError("matrix shape must match the block")
        for i in range(n):
            if rows[i][i]:
                raise ValueError("matrix must have a zero diagonal")
            for j in range(i + 1, n):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("matrix must be antisymmetric")
        sparse = [[(j, value) for j, value in enumerate(row) if value] for row in rows]
        kernel = linalg.nullspace(sparse, n)
        if kernel:
            witness = KVector(1, {(block[i],): Fraction(v) for i, v in kernel[0]})
            error = NotInvertible(
                f"the matrix is singular on its block; kernel contains {witness}"
            )
            error.witness = witness
            raise error
        # The kernel of [W | -I] is {(x, W x)}.  W is invertible, so the
        # free columns of [W | -I] are its last n, and the kernel vector v of
        # free column n + j is a multiple of (W^-1 e_j, e_j): column j of
        # W^-1 is v[:n] / v[n + j].
        augmented = [row + [(n + i, -1)] for i, row in enumerate(sparse)]
        columns = [dict(v) for v in linalg.nullspace(augmented, 2 * n)]
        inverse = [
            [Fraction(columns[j].get(i, 0), columns[j][n + j]) for j in range(n)]
            for i in range(n)
        ]
        return cls("explicit", block, rows, inverse)

    # -- entries and pairing ------------------------------------------------

    def flat_components(self, i: int):
        """i_{e_i} omega, row i of W, as [(index, Fraction)]; empty if unpaired."""
        return self._column(False, i) or []

    def sharp_components(self, j: int):
        """i_{dx_j} pi, column j of W^-1, as [(index, Fraction)]; None if unpaired."""
        return self._column(True, j)

    def _column(self, inverse: bool, j: int):
        """The table behind both tensors: column j of W^-1 if ``inverse``,
        else row j of W (column j of -W); None when j is unpaired."""
        if self.kind == "standard":
            return [(j ^ 1, Fraction(1 if j % 2 == 0 else -1))]
        key = (inverse, j)
        cached = self._columns.get(key)
        if cached is None:
            if j not in self.block:
                return None
            b = self.block.index(j)
            values = [row[b] for row in self.inverse] if inverse else self.matrix[b]
            cached = [(self.block[a], value) for a, value in enumerate(values) if value]
            self._columns[key] = cached
        return cached

    def closure(self, indices) -> tuple:
        """Smallest index set containing ``indices`` and closed under pairing."""
        out = set(indices)
        if self.kind == "standard":
            out |= {i ^ 1 for i in out}
        else:
            out |= set(self.block)
        return tuple(sorted(out))

    def paired_indices(self, indices) -> tuple:
        """The indices of ``closure(indices)`` that the pairing pairs."""
        if self.kind == "standard":
            return self.closure(indices)
        return self.block

    def is_closed_support(self, indices) -> bool:
        indices = set(indices)
        return set(self.closure(indices)) == indices

    def bivector(self, indices) -> KVector:
        """pi over ``closure(indices)``: (W^-1)_ji on e_i ^ e_j for paired
        i < j, so i_a pi is W^-1 a for a 1-form a on paired indices of
        ``closure(indices)``, and zero on unpaired ones."""
        terms = {}
        for i in self.paired_indices(indices):
            for j, value in self.sharp_components(i):
                if i < j:
                    terms[i, j] = Poly.constant(value)
        return KVector._raw(2, terms)

    def strict_bivector(self, indices) -> KVector:
        """``bivector(indices)`` once the pairing pairs every index; the first
        unpaired one, in ``indices`` order, raises NotInvertible with it as
        the witness."""
        for i in indices:
            if self.sharp_components(i) is None:
                error = NotInvertible(
                    f"the 2-form is singular on the needed support: dx[{i}] is unpaired"
                )
                error.witness = i
                raise error
        return self.bivector(indices)

    def materialize(self, cover) -> KForm:
        """The 2-form as a KForm, restricted to blades meeting ``cover``."""
        rows = ((i, self.flat_components(i)) for i in self.closure(cover))
        return KForm(2, {(i, j): Poly.constant(v) for i, row in rows for j, v in row if i < j})

    def __repr__(self):
        if self.kind == "standard":
            return "ConstantSymplectic(standard)"
        return f"ConstantSymplectic(explicit, block={self.block})"


def poisson_bracket(pi: KVector, f: Poly, g: Poly) -> Poly:
    """{f, g} = X_f(g) with X_f = i_{df} pi."""
    return vector_apply(interior_product(de_rham(f), pi), g)


class WeakSymplecticReport:
    """Outcome of check_weak_symplectic."""

    __slots__ = ("passed", "closed", "closed_witness", "injective", "injective_witness",
                 "rank", "dimension", "generic", "caveats")

    def __init__(self, passed, closed, closed_witness, injective, injective_witness,
                 rank, dimension, generic, caveats):
        self.passed = passed
        self.closed = closed
        self.closed_witness = closed_witness  # KForm of grade 3, or None
        self.injective = injective
        self.injective_witness = injective_witness  # KVector of grade 1, or None
        self.rank = rank
        self.dimension = dimension
        self.generic = generic
        self.caveats = caveats


def check_weak_symplectic(form: KForm, support) -> WeakSymplecticReport:
    """Check closedness and injectivity of X -> i_X form over a finite support.

    ``form`` is a grade-2 KForm.  Injectivity is of the map
    X -> interior(X, form) restricted to fields spanned by the support
    coordinates; the matrix may have polynomial entries, in which case the
    rank is the generic one and the non-constant pivots are reported as
    caveats.
    """
    if type(form) is not KForm or form.grade != 2:
        raise GradeError("check_weak_symplectic needs a grade-2 KForm")
    support = tuple(sorted(set(support)))
    columns = sorted(set(support) | form.support())

    closed_defect = de_rham(form)
    closed = closed_defect.is_zero()

    # Sparse row i of the matrix holds the components of interior(e_i, form).
    position = {j: k for k, j in enumerate(columns)}
    rows = [[(position[j], value) for (j,), value in
             interior_product(KVector.coordinate(i), form).terms.items()] for i in support]
    n = len(support)
    m = len(columns)
    rank_, pivot_entries = linalg.rank_generic(rows, m)
    caveats = [p for p in pivot_entries if not p.is_constant()]
    injective = rank_ == n
    witness = None
    if not injective:
        # The left kernel: the kernel of the transpose.
        transposed = [[] for _ in range(m)]
        for i, row in enumerate(rows):
            for k, value in row:
                transposed[k].append((i, value))
        vector = linalg.nullspace_generic(transposed, n)[0]
        witness = KVector(1, {(support[i],): value for i, value in vector})
    return WeakSymplecticReport(
        passed=closed and injective,
        closed=closed,
        closed_witness=None if closed else closed_defect,
        injective=injective,
        injective_witness=witness,
        rank=rank_,
        dimension=n,
        generic=bool(caveats),
        caveats=caveats,
    )

