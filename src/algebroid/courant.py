"""The generalized tangent structure TM + T*M: pairing, Dorfman and Courant
brackets, and Dirac structures given as graphs of 2-forms.

A generalized section is a pair (X, a) of a vector field and a 1-form.
Conventions:

- pairing(s1, s2) = a1(X2) + a2(X1);
- dorfman_bracket((X, a), (Y, b)) = ([X, Y], L_X b - i_Y da);
- courant_bracket = the antisymmetrization,
  ([X, Y], L_X b - L_Y a + (1/2) d(a(Y) - b(X)));
- both are computed in Cartan form, L_X b = i_X db + d(b(X)):
  ([X, Y], i_X db - i_Y da + d(b(X))) and
  ([X, Y], i_X db - i_Y da + (1/2) d(b(X) - a(Y))), so the only new
  derivative per call is of a function; da and db are memoized on the forms,
  and the form part's terms accumulate into one sum, wrapped once, as do
  the pairing's.  ``_dorfman`` and ``_courant`` add sign times a bracket
  into a (vector, form) pair of blade sums; the public brackets wrap them;
- delta_operator(f) = (0, d f), which satisfies
  pairing(delta(f), s) = anchor(s)(f).

The graph of a 2-form w, a grade-2 KForm such as ``materialize(cover)`` of
a constant structure, collects the sections (X, i_X w).  For a closed w
the graph is involutive; in general
courant(graph X, graph Y) - graph([X, Y]) = (0, i_Y i_X dw), which
``check_dirac`` verifies on each pair of vector fields it is given.
``orthogonal_complement`` compares the graph of a constant w with its
orthogonal complement in the fiber over an ambient index set.  Both take
the 2-form itself, not the symplectic structure it may come from.

``check_courant_axioms`` checks the Courant axioms on every tuple of
section indices (i, j[, k]), and delta's defining property on every pair
(function f, section i); a failing check's witness is its first failing
tuple in lexicographic index order.  It takes the bracket in accumulating
form, and builds each defect as one raw sum, wrapped only for a witness.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from algebroid import linalg
from algebroid.algebroids import (
    _ONE,
    AlgebroidStructure,
    AxiomReport,
    check_algebroid_axioms,
    first_witness,
)
from algebroid.errors import GradeError
from algebroid.exterior import (
    KForm,
    KVector,
    _all_vanish,
    _apply,
    _contract,
    _differentiate,
    _lie,
    _wrapped,
    de_rham,
    interior_product,
    lie_bracket,
)
from algebroid.poly import Poly, _add_scaled, _poly


class GeneralizedSection:
    """A pair (vector field, 1-form)."""

    __slots__ = ("vector", "form")

    def __init__(self, vector: KVector, form: KForm):
        if type(vector) is not KVector or vector.grade != 1:
            raise GradeError("the vector part must be a grade-1 KVector")
        if type(form) is not KForm or form.grade != 1:
            raise GradeError("the form part must be a grade-1 KForm")
        self.vector = vector
        self.form = form

    @classmethod
    def zero(cls) -> "GeneralizedSection":
        return cls(KVector.zero(1), KForm.zero(1))

    def is_zero(self) -> bool:
        return self.vector.is_zero() and self.form.is_zero()

    def __eq__(self, other) -> bool:
        if type(other) is not GeneralizedSection:
            return NotImplemented
        return self.vector == other.vector and self.form == other.form

    __hash__ = None

    def __add__(self, other):
        if type(other) is not GeneralizedSection:
            return NotImplemented
        return GeneralizedSection(self.vector + other.vector, self.form + other.form)

    def __neg__(self):
        return GeneralizedSection(-self.vector, -self.form)

    def __sub__(self, other):
        if type(other) is not GeneralizedSection:
            return NotImplemented
        return GeneralizedSection(self.vector - other.vector, self.form - other.form)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return GeneralizedSection(self.vector * other, self.form * other)
        return NotImplemented

    __rmul__ = __mul__

    # accumulation, as in exterior: the sums are a (vector, form) pair
    @staticmethod
    def _sums():
        return {}, {}

    @classmethod
    def _of_sums(cls, out):
        return cls(KVector._of_sums(out[0]), KForm._of_sums(out[1]))

    def _add_into(self, out, f, sign=1):
        self.vector._add_into(out[0], f, sign)
        self.form._add_into(out[1], f, sign)

    def __str__(self) -> str:
        return f"({self.vector}, {self.form})"

    def __repr__(self) -> str:
        return f"GeneralizedSection({self})"


def _check_section(value, what):
    if type(value) is not GeneralizedSection:
        raise TypeError(f"{what} must be a GeneralizedSection")


def tm_pairing(s1: GeneralizedSection, s2: GeneralizedSection) -> Poly:
    """The symmetric pairing a1(X2) + a2(X1)."""
    _check_section(s1, "tm_pairing's first argument")
    _check_section(s2, "tm_pairing's second argument")
    out = {}
    _contract(out, s2.vector, s1.form)
    _contract(out, s1.vector, s2.form)
    return _poly(out.get((), {}))


def _cartan_part(form, s1, s2, sign):
    """Add ``sign`` times i_X db - i_Y da into the 1-form blade sums ``form``,
    for sections (X, a) and (Y, b)."""
    _contract(form, s1.vector, de_rham(s2.form), sign)
    _contract(form, s2.vector, de_rham(s1.form), -sign)


def _dorfman(out, s1, s2, sign=1):
    """Add ``sign`` times dorfman_bracket(s1, s2) into the pair ``out``."""
    vector, form = out
    _lie(vector, s1.vector, s2.vector, sign)
    _cartan_part(form, s1, s2, sign)
    value = {}
    _contract(value, s1.vector, s2.form)
    _differentiate(form, value.get((), {}), sign)


def _courant(out, s1, s2, sign=1):
    """Add ``sign`` times courant_bracket(s1, s2) into the pair ``out``."""
    vector, form = out
    _lie(vector, s1.vector, s2.vector, sign)
    _cartan_part(form, s1, s2, sign)
    correction = {}
    _contract(correction, s1.vector, s2.form)
    _contract(correction, s2.vector, s1.form, -1)
    _differentiate(form, correction.get((), {}), Fraction(sign, 2))


def dorfman_bracket(
    s1: GeneralizedSection, s2: GeneralizedSection
) -> GeneralizedSection:
    """([X, Y], L_X b - i_Y da), in Cartan form (see the module docstring)."""
    _check_section(s1, "dorfman_bracket's first argument")
    _check_section(s2, "dorfman_bracket's second argument")
    return _wrapped(_dorfman, s1, s2)


def courant_bracket(
    s1: GeneralizedSection, s2: GeneralizedSection
) -> GeneralizedSection:
    """([X, Y], L_X b - L_Y a + (1/2) d(a(Y) - b(X))), in Cartan form."""
    _check_section(s1, "courant_bracket's first argument")
    _check_section(s2, "courant_bracket's second argument")
    return _wrapped(_courant, s1, s2)


def delta_operator(function: Poly) -> GeneralizedSection:
    """delta(f) = (0, d f)."""
    if isinstance(function, (int, Fraction)):
        function = Poly.constant(function)
    return GeneralizedSection(KVector.zero(1), de_rham(function))


def anchor(section: GeneralizedSection) -> KVector:
    return section.vector


def _function_of_sums(out):
    """The function of monomial sums held on the blade ``()``."""
    return _poly(out[()])


def check_courant_axioms(
    sections,
    functions,
    *,
    bracket=_dorfman,
    pairing=tm_pairing,
) -> AxiomReport:
    """Verify the three Courant axioms on concrete sections:

    1. [s1, [s2, s3]] = [[s1, s2], s3] + [s2, [s1, s3]];
    2. anchor(s1)(pairing(s2, s3)) = pairing([s1, s2], s3) + pairing(s2, [s1, s3]);
    3. [s1, s2] + [s2, s1] = delta(pairing(s1, s2));

    plus the defining property of delta, pairing(delta(f), s) = anchor(s)(f),
    on the supplied functions.  ``bracket``, in the accumulating form of
    ``_dorfman``, and ``pairing`` are injectable so deliberately corrupted
    structures can be probed.  Every bracket [s_i, s_j], [s_i, [s_j, s_k]]
    (i != j) and [[s_i, s_j], s_k], and every pairing pairing(s_j, s_k), is
    computed once, and every defect is one accumulation.
    """
    s = list(sections)
    functions = [f if isinstance(f, Poly) else Poly.constant(f) for f in functions]
    n = len(s)
    B = [[_wrapped(bracket, a, b) for b in s] for a in s]
    P = [[pairing(a, b) for b in s] for a in s]

    def jacobi():
        # For i < j the defects on (i, j, k) and (j, i, k) share x - y, with
        # x = [s_i, [s_j, s_k]] and y = [s_j, [s_i, s_k]]: both defects are
        # summed and tested when (i, j, k) comes up, and the one on (j, i, k)
        # waits for its turn only when it is not zero.  On i == j, x = y and
        # the defect is -[[s_i, s_i], s_k].
        waiting = {}
        for i, j, k in product(range(n), repeat=3):
            if i > j:
                defect = waiting.pop((i, j, k), ({}, {}))
            else:
                defect = {}, {}
                if i < j:
                    bracket(defect, s[i], B[j][k])
                    bracket(defect, s[j], B[i][k], -1)
                    other = tuple(
                        {blade: {m: -c for m, c in sums.items()} for blade, sums in part.items()}
                        for part in defect
                    )
                    bracket(other, B[j][i], s[k], -1)
                    if not _all_vanish(other):
                        waiting[j, i, k] = other
                bracket(defect, B[i][j], s[k], -1)
            yield f"leibniz-jacobi defect on (s{i}, s{j}, s{k}): ", defect

    def invariance():
        for i, j, k in product(range(n), repeat=3):
            out = {}
            _apply(out, anchor(s[i]), P[j][k].terms)
            _add_scaled(out, pairing(B[i][j], s[k]).terms, -1)
            _add_scaled(out, pairing(s[j], B[i][k]).terms, -1)
            yield f"pairing invariance fails on (s{i}, s{j}, s{k}): ", {(): out}

    def symmetric():
        for i, j in product(range(n), repeat=2):
            out = {}, {}
            B[i][j]._add_into(out, _ONE)
            B[j][i]._add_into(out, _ONE)
            _differentiate(out[1], P[i][j].terms, -1)
            yield f"symmetric part defect on (s{i}, s{j}): ", out

    def delta():
        for fi, f in enumerate(functions):
            for i in range(n):
                out = dict(pairing(delta_operator(f), s[i]).terms)
                _apply(out, anchor(s[i]), f.terms, -1)
                yield f"pairing(delta(f{fi}), s{i}) - anchor(s{i})(f{fi}) = ", {(): out}

    return AxiomReport.of(
        [
            first_witness("bracket-jacobi", jacobi(), GeneralizedSection._of_sums),
            first_witness("pairing-invariance", invariance(), _function_of_sums),
            first_witness("symmetric-part", symmetric(), GeneralizedSection._of_sums),
            first_witness("delta-defining", delta(), _function_of_sums),
        ]
    )


def _graph(form: KForm, field: KVector) -> GeneralizedSection:
    """The section (X, i_X w) of the graph of ``form`` over the field X."""
    return GeneralizedSection(field, interior_product(field, form))


# The algebroid the Courant bracket induces on graph sections.
_DIRAC = AlgebroidStructure("dirac", "generalized", anchor, _courant)


class ComplementReport:
    __slots__ = ("ambient_indices", "fiber_dimension", "dim_subbundle", "dim_complement",
                 "isotropic", "equals_complement", "witness")

    def __init__(self, ambient_indices, fiber_dimension, dim_subbundle, dim_complement,
                 isotropic, equals_complement, witness: GeneralizedSection = None):
        self.ambient_indices = ambient_indices
        self.fiber_dimension = fiber_dimension
        self.dim_subbundle = dim_subbundle
        self.dim_complement = dim_complement
        self.isotropic = isotropic
        self.equals_complement = equals_complement
        self.witness = witness


def orthogonal_complement(form: KForm, ambient) -> ComplementReport:
    """The orthogonal complement of the graph of a constant 2-form ``form``
    inside the fiber over ``ambient``, which holds the form's support.

    The fiber over the generic point is spanned by the coordinate frame and
    coframe over ``ambient``; the subbundle is generated by the graph
    sections (e_i, i_{e_i} w) of the indices the form pairs, its nonzero
    rows.  Everything is exact integer linear algebra.

    The graph of a 2-form is isotropic: the pairing of the sections over
    e_i and e_j is w_ij + w_ji = 0.  The fiber pairing [[0, I], [I, 0]] is
    nondegenerate on the 2n-dimensional fiber, so the complement has
    dimension 2n - dim L, and L equals its complement exactly when
    dim L = n.  A complement basis is computed only to find a witness when
    it does not.
    """
    ambient = tuple(ambient)
    n = len(ambient)
    position = {index: k for k, index in enumerate(ambient)}

    flat = {}  # i -> i_{e_i} w as [(j, w_ij)]
    for (i, j), coeff in form.terms.items():
        flat.setdefault(i, []).append((j, coeff.constant_term()))
        flat.setdefault(j, []).append((i, -coeff.constant_term()))
    basis_rows = [
        [(position[i], Fraction(1))] + [(n + position[j], value) for j, value in flat[i]]
        for i in ambient
        if i in flat
    ]
    # Row i has a 1 in generator i's frame column and no other row touches
    # that column, so the rows are independent and the rank is their count.
    dim_sub = len(basis_rows)

    equals = dim_sub == n
    witness = None
    if not equals:
        # pairing matrix in block form [[0, I], [I, 0]]: swap the two halves
        constraint_rows = [[(k + n if k < n else k - n, a) for k, a in row] for row in basis_rows]
        for vec in linalg.nullspace(constraint_rows, 2 * n):
            if not linalg.row_space_contains(basis_rows, vec, 2 * n):
                vector = {(ambient[k],): Fraction(v) for k, v in vec if k < n}
                coframe = {(ambient[k - n],): Fraction(v) for k, v in vec if k >= n}
                witness = GeneralizedSection(KVector(1, vector), KForm(1, coframe))
                break
    return ComplementReport(
        ambient_indices=ambient,
        fiber_dimension=2 * n,
        dim_subbundle=dim_sub,
        dim_complement=2 * n - dim_sub,
        isotropic=True,
        equals_complement=equals,
        witness=witness,
    )


class DiracReport:
    __slots__ = ("isotropy_failures", "involutivity_failures", "defect_matches_prediction",
                 "axioms", "passed")

    def __init__(self, isotropy_failures, involutivity_failures, defect_matches_prediction,
                 axioms, passed):
        self.isotropy_failures = isotropy_failures
        self.involutivity_failures = involutivity_failures
        self.defect_matches_prediction = defect_matches_prediction
        self.axioms = axioms
        self.passed = passed


def check_dirac(form: KForm, pairs, fields, functions) -> DiracReport:
    """Isotropy and involutivity of the graph of the 2-form ``form`` on each
    pair (X, Y) of vector fields in ``pairs``, then the algebroid axioms on
    the graph sections of ``fields`` with ``functions``.

    Involutivity compares courant(graph X, graph Y) with graph([X, Y]); the
    form-part defect is also compared against the predicted i_Y i_X (dw).
    """
    if type(form) is not KForm or form.grade != 2:
        raise GradeError("a Dirac structure is the graph of a grade-2 KForm")
    curvature = de_rham(form)
    isotropy_failures = []
    involutivity_failures = []
    defect_ok = True
    for x, y in pairs:
        s1 = _graph(form, x)
        s2 = _graph(form, y)
        value = tm_pairing(s1, s2)
        if not value.is_zero():
            isotropy_failures.append((x, y, value))
        bracket = courant_bracket(s1, s2)
        expected = _graph(form, lie_bracket(x, y))
        defect = bracket - expected
        predicted = interior_product(y, interior_product(x, curvature)) if not curvature.is_zero() else KForm.zero(1)
        if not (defect.vector.is_zero() and (defect.form - predicted).is_zero()):
            defect_ok = False
        if not defect.is_zero():
            involutivity_failures.append((x, y, defect.form))

    axioms = check_algebroid_axioms(_DIRAC, [_graph(form, x) for x in fields], functions)
    passed = (
        not isotropy_failures
        and not involutivity_failures
        and defect_ok
        and axioms.passed
    )
    return DiracReport(
        isotropy_failures=isotropy_failures,
        involutivity_failures=involutivity_failures,
        defect_matches_prediction=defect_ok,
        axioms=axioms,
        passed=passed,
    )
