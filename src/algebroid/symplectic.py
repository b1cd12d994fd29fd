"""Constant-coefficient symplectic structures and the Poisson calculus they induce.

A ``ConstantSymplectic`` is a closed 2-form with constant rational
coefficients, in one of two kinds:

- ``standard()``: the countable pairing sum_i dx_{2i} ^ dx_{2i+1}, never
  materialized as a whole; each computation touches a finite block and the
  pairing is expanded lazily over it.
- ``explicit(indices, matrix)``: an antisymmetric rational matrix on a
  finite index block.  The matrix must be invertible on its block (checked
  eagerly); coordinates outside the block are simply unpaired.

Both musical maps read one index table.  flat(e_i) is row i of W (column
i of -W), and sharp(dx_j) is column j of W^{-1}; for the standard pairing
both are ``[(j ^ 1, +1 if j is even else -1)]``.  ``flat_components`` and
``sharp_components`` give these lists, and ``flat`` and ``sharp`` share one
loop over them.  ``closure`` (the smallest index set closed under the
pairing) and ``paired_indices`` (the part of it that the pairing pairs)
answer the other modules; only the DSL serializer reads the kind, to write
the declaration back.

``materialize(cover)`` is the 2-form omega, a grade-2 KForm, and
``bivector(cover)`` the Poisson bivector pi, a grade-2 KVector read off
sharp's table and zero on unpaired coordinates.  Below the CLI a structure
reaches the other modules only as these two tensors: the Dirac graph, its
orthogonal complement and the weak check read omega; the cotangent
algebroid (anchor a -> i_a pi), sigma = -[pi, .] and cohomology read pi,
so degenerate blocks still carry their Poisson calculus.

Musical conventions, fixed once:

- ``flat(w, X) = interior(X, w)``;
- ``sharp(w, a)`` is the unique X with ``interior(X, w) = -a`` (equivalently
  X = W^{-1} a in matrix form), so ``flat(sharp(a)) = -a``;
- ``hamiltonian_vf(w, f) = sharp(w, d f)``;
- ``poisson_bracket(w, f, g) = w(X_f, X_g)``.

``sharp`` is strict: it raises NotInvertible when the 1-form touches an
unpaired coordinate.  On paired coordinates it equals i_a pi.  The Koszul
bracket ``_koszul_bracket`` takes its anchor as an argument, so the strict
``oneform_bracket`` and the cotangent algebroid share it; it sums its three
Cartan terms into one accumulation and wraps once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from algebroid import linalg
from algebroid.errors import GradeError, NotInvertible
from algebroid.exterior import (
    KForm, KVector, _contract, _differentiate, _wrap, de_rham, interior_product,
)
from algebroid.poly import Poly, _add_scaled, _normal


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
        """flat(e_i), row i of W, as [(index, Fraction)]; empty if unpaired."""
        return self._column(False, i) or []

    def sharp_components(self, j: int):
        """sharp(dx_j), column j of W^-1, as [(index, Fraction)]; None if unpaired."""
        return self._column(True, j)

    def _column(self, inverse: bool, j: int):
        """The table behind both musical maps: column j of W^-1 if ``inverse``,
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
        """pi over ``closure(indices)``: sharp(dx_i)_j on e_i ^ e_j for paired
        i < j, so i_a pi = sharp(a) for a 1-form a on paired indices of
        ``closure(indices)``, and zero on unpaired ones."""
        terms = {}
        for i in self.paired_indices(indices):
            for j, value in self.sharp_components(i):
                if i < j:
                    terms[i, j] = Poly.constant(value)
        return KVector._raw(2, terms)

    def materialize(self, cover) -> KForm:
        """The 2-form as a KForm, restricted to blades meeting ``cover``."""
        rows = ((i, self.flat_components(i)) for i in self.closure(cover))
        return KForm(2, {(i, j): Poly.constant(v) for i, row in rows for j, v in row if i < j})

    def __repr__(self):
        if self.kind == "standard":
            return "ConstantSymplectic(standard)"
        return f"ConstantSymplectic(explicit, block={self.block})"


def _check_grade1(value, cls, what):
    if type(value) is not cls or value.grade != 1:
        raise GradeError(f"{what} must be a grade-1 {cls.__name__}")


def _musical(components, value, cls):
    """sum_i value_i * components(i) as a grade-1 ``cls``; an unpaired index
    (components None) raises NotInvertible."""
    terms = {}
    for (i,), coeff in value.terms.items():
        images = components(i)
        if images is None:
            error = NotInvertible(
                f"the 2-form is singular on the needed support: dx[{i}] is unpaired"
            )
            error.witness = i
            raise error
        for target, scale in images:
            _add_scaled(terms.setdefault((target,), {}), coeff.terms, _normal(scale))
    return cls._raw(1, _wrap(terms))


def flat(w: ConstantSymplectic, field: KVector) -> KForm:
    """flat(X) = interior(X, w)."""
    _check_grade1(field, KVector, "flat's argument")
    return _musical(w.flat_components, field, KForm)


def sharp(w: ConstantSymplectic, oneform: KForm) -> KVector:
    """The unique X with interior(X, w) = -a; raises NotInvertible off the block."""
    _check_grade1(oneform, KForm, "sharp's argument")
    return _musical(w.sharp_components, oneform, KVector)


def hamiltonian_vf(w: ConstantSymplectic, function: Poly) -> KVector:
    """X_f = sharp(d f)."""
    return sharp(w, de_rham(function))


def poisson_bracket(w: ConstantSymplectic, f: Poly, g: Poly) -> Poly:
    """{f, g} = w(X_f, X_g), evaluated on the materialized 2-form."""
    xf = hamiltonian_vf(w, f)
    xg = hamiltonian_vf(w, g)
    cover = sorted(xf.support() | xg.support())
    return w.materialize(cover).evaluate(xf, xg)


def _koszul_bracket(anchor, a: KForm, b: KForm) -> KForm:
    """{a, b} = L_{anchor a} b - L_{anchor b} a - d(b(anchor a)), in Cartan
    form (L_X b = i_X db + d(b(X))): i_{xa} db - i_{xb} da - d(a(xb)).  No
    antisymmetry of the anchor is used; da and db are memoized on the forms."""
    _check_grade1(a, KForm, "the Koszul bracket's first argument")
    _check_grade1(b, KForm, "the Koszul bracket's second argument")
    xa = anchor(a)
    xb = anchor(b)
    out = {}
    _contract(out, xa, de_rham(b))
    _contract(out, xb, de_rham(a), -1)
    value = {}
    _contract(value, xb, a)
    _differentiate(out, value.get((), {}), -1)
    return KForm._raw(1, _wrap(out))


def oneform_bracket(w: ConstantSymplectic, a: KForm, b: KForm) -> KForm:
    """The Koszul bracket through the strict sharp; raises NotInvertible
    when a or b touches an unpaired coordinate."""
    return _koszul_bracket(lambda form: sharp(w, form), a, b)


@dataclass
class WeakSymplecticReport:
    """Outcome of check_weak_symplectic."""

    passed: bool
    closed: bool
    closed_witness: object  # KForm of grade 3, or None
    injective: bool
    injective_witness: object  # KVector of grade 1, or None
    rank: int
    dimension: int
    generic: bool
    caveats: list


def check_weak_symplectic(form: KForm, support) -> WeakSymplecticReport:
    """Check closedness and injectivity of flat over a finite support.

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

