"""Exterior algebra and calculus: wedge, interior product, evaluation,
exterior derivative, Lie derivative, Lie bracket.

Evaluation and the exterior derivative are checked against independent
oracles:

* a k-form applied to k fields is expanded as the full signed sum over
  permutations (the determinant's Leibniz formula), term by term;
* d is compared with the coordinate-free alternating-sum formula

    (dw)(X_0..X_k) = sum_i (-1)^i X_i(w(..no X_i..))
                   + sum_{i<j} (-1)^{i+j} w([X_i,X_j], ..no X_i, X_j..)

  which never takes a coordinate partial of a form coefficient directly.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid.algebroids import contravariant_differential, cotangent_algebroid
from algebroid.errors import ArityError, GradeError, NotInvertible
from algebroid.exterior import (
    KForm,
    KVector,
    de_rham,
    interior_product,
    lie_bracket,
    lie_derivative,
    schouten_bracket,
    vector_apply,
    wedge,
)
from algebroid.poly import Poly
from algebroid.sampling import Sampler

from conftest import (
    INDICES,
    alternating,
    constant_structures,
    flat_by_omega,
    polys,
    sgn,
    sharp_by_pi,
)

SUPPORT = (0, 1, 2, 3)


def permutation_evaluate(form, vectors):
    """Independent evaluation of a form on fields via the signed-sum formula."""
    total = Poly.zero()
    for blade, coeff in form.terms.items():
        for perm in itertools.permutations(range(len(vectors))):
            sign = _perm_sign(perm)
            prod = coeff
            for slot, vec_index in enumerate(perm):
                component = vectors[vec_index].coefficient((blade[slot],))
                prod = prod * component
                if prod.is_zero():
                    break
            total = total + prod * sign
    return total


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class TestWedge:
    def test_basis_antisymmetry(self):
        e0, e1 = KVector.coordinate(0), KVector.coordinate(1)
        assert wedge(e0, e1) == -wedge(e1, e0)
        assert wedge(e0, e0).is_zero()

    def test_graded_commutativity(self):
        s = Sampler(101)
        for _ in range(40):
            p, q = s.rng.randint(0, 3), s.rng.randint(0, 3)
            a = s.kform(p, SUPPORT, 2)
            b = s.kform(q, SUPPORT, 2)
            assert wedge(a, b) == wedge(b, a) * sgn(p * q)

    def test_associativity(self):
        s = Sampler(102)
        for _ in range(40):
            a = s.kform(s.rng.randint(0, 2), SUPPORT, 1)
            b = s.kform(s.rng.randint(0, 2), SUPPORT, 1)
            c = s.kform(s.rng.randint(0, 2), SUPPORT, 1)
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    def test_scalar_operand_is_module_multiplication(self):
        a = KForm.blade((0, 2))
        f = Poly.variable(1)
        assert wedge(f, a) == a * f
        assert wedge(a, f) == a * f

    def test_mixed_variance_rejected(self):
        with pytest.raises(GradeError):
            wedge(KForm.coordinate(0), KVector.coordinate(1))

    def test_overlap_cancels(self):
        a = KForm.blade((0, 1))
        b = KForm.blade((1, 2))
        assert wedge(a, b).is_zero()


class TestEvaluation:
    def test_matches_permutation_expansion(self):
        s = Sampler(103)
        for _ in range(60):
            k = s.rng.randint(1, 3)
            form = s.kform(k, SUPPORT, 2)
            vectors = [s.vector_field(SUPPORT, 2) for _ in range(k)]
            assert form.evaluate(*vectors) == permutation_evaluate(form, vectors)

    def test_alternating_in_arguments(self):
        s = Sampler(104)
        form = s.kform(2, SUPPORT, 2)
        x = s.vector_field(SUPPORT, 2)
        y = s.vector_field(SUPPORT, 2)
        assert form.evaluate(x, y) == -form.evaluate(y, x)
        assert form.evaluate(x, x).is_zero()

    def test_wrong_arity(self):
        form = KForm.blade((0, 1))
        with pytest.raises(ArityError):
            form.evaluate(KVector.coordinate(0))

    def test_vector_side_pairing(self):
        field = KVector.blade((0, 1))
        assert field.evaluate(KForm.coordinate(0), KForm.coordinate(1)) == 1
        assert field.evaluate(KForm.coordinate(1), KForm.coordinate(0)) == -1


class TestInteriorProduct:
    def test_evaluation_oracle(self):
        # (i_X w)(V_1..V_{k-1}) = w(X, V_1..V_{k-1})
        s = Sampler(105)
        for _ in range(40):
            k = s.rng.randint(1, 3)
            form = s.kform(k, SUPPORT, 2)
            x = s.vector_field(SUPPORT, 2)
            rest = [s.vector_field(SUPPORT, 1) for _ in range(k - 1)]
            lhs = interior_product(x, form)
            if k == 1:
                assert lhs.as_poly() == form.evaluate(x)
            else:
                assert lhs.evaluate(*rest) == form.evaluate(x, *rest)

    def test_antiderivation(self):
        s = Sampler(106)
        for _ in range(40):
            p = s.rng.randint(1, 2)
            a = s.kform(p, SUPPORT, 2)
            b = s.kform(s.rng.randint(1, 2), SUPPORT, 2)
            x = s.vector_field(SUPPORT, 2)
            lhs = interior_product(x, wedge(a, b))
            rhs = wedge(interior_product(x, a), b) + wedge(
                a, interior_product(x, b)
            ) * sgn(p)
            assert lhs == rhs

    def test_square_zero(self):
        s = Sampler(107)
        for _ in range(30):
            form = s.kform(3, SUPPORT, 2)
            x = s.vector_field(SUPPORT, 2)
            assert interior_product(x, interior_product(x, form)).is_zero()

    def test_dual_contraction_on_fields(self):
        # i_a (X ^ Y) = a(X) Y - a(Y) X for a 1-form a
        s = Sampler(108)
        for _ in range(30):
            a = s.oneform(SUPPORT, 2)
            x = s.vector_field(SUPPORT, 2)
            y = s.vector_field(SUPPORT, 2)
            lhs = interior_product(a, wedge(x, y))
            rhs = y * a.evaluate(x) - x * a.evaluate(y)
            assert lhs == rhs


class TestDeRham:
    def test_on_functions(self):
        f = Poly.variable(0) * Poly.variable(1)
        df = de_rham(f)
        assert df == KForm.blade((0,), Poly.variable(1)) + KForm.blade(
            (1,), Poly.variable(0)
        )

    def test_square_zero(self):
        s = Sampler(109)
        for _ in range(60):
            form = s.kform(s.rng.randint(0, 3), SUPPORT, 3)
            assert de_rham(de_rham(form)).is_zero()

    def test_graded_leibniz(self):
        s = Sampler(110)
        for _ in range(40):
            p = s.rng.randint(0, 2)
            a = s.kform(p, SUPPORT, 2)
            b = s.kform(s.rng.randint(0, 2), SUPPORT, 2)
            lhs = de_rham(wedge(a, b))
            rhs = wedge(de_rham(a), b) + wedge(a, de_rham(b)) * sgn(p)
            assert lhs == rhs

    def test_intrinsic_formula_oracle(self):
        s = Sampler(111)
        for _ in range(60):
            k = s.rng.randint(0, 2)
            form = s.kform(k, SUPPORT, 2)
            fields = [s.vector_field(SUPPORT, 2) for _ in range(k + 1)]
            assert de_rham(form).evaluate(*fields) == intrinsic_d(form, fields)

    def test_each_form_is_differentiated_once(self):
        s = Sampler(112)
        for k in (0, 1, 2, 1):
            form = s.kform(k, SUPPORT, 3)
            d = de_rham(form)
            assert de_rham(form) is d
            # The memo holds what a freshly built equal form computes.
            assert d == de_rham(KForm(k, form.terms))
            # Arithmetic on the derivative builds new values; the memo stays.
            results = [
                d + d,
                d + KForm.blade(range(k + 1), Poly.variable(1)),
                -d,
                d - d,
                d * 3,
                d * Poly.variable(0),
                Fraction(1, 2) * d,
            ]
            assert all(value is not d for value in results)
            assert de_rham(form) is d
            assert d == de_rham(KForm(k, form.terms))


def intrinsic_d(form, fields):
    """The coordinate-free alternating-sum formula for (d form)(fields)."""
    k = len(fields) - 1
    total = Poly.zero()
    for i in range(k + 1):
        rest = fields[:i] + fields[i + 1 :]
        inner = form.evaluate(*rest) if k else form.as_poly()
        total = total + vector_apply(fields[i], inner) * sgn(i)
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            if k == 0:
                continue
            rest = [
                fields[m] for m in range(k + 1) if m != i and m != j
            ]
            value = form.evaluate(lie_bracket(fields[i], fields[j]), *rest)
            total = total + value * sgn(i + j)
    return total


class TestLieBracket:
    def test_application_oracle(self):
        s = Sampler(112)
        for _ in range(40):
            x = s.vector_field(SUPPORT, 2)
            y = s.vector_field(SUPPORT, 2)
            f = s.poly(SUPPORT, 3)
            lhs = vector_apply(lie_bracket(x, y), f)
            rhs = vector_apply(x, vector_apply(y, f)) - vector_apply(
                y, vector_apply(x, f)
            )
            assert lhs == rhs

    def test_antisymmetry_and_jacobi(self):
        s = Sampler(113)
        for _ in range(30):
            x, y, z = (s.vector_field(SUPPORT, 2) for _ in range(3))
            assert lie_bracket(x, y) == -lie_bracket(y, x)
            jac = (
                lie_bracket(x, lie_bracket(y, z))
                + lie_bracket(y, lie_bracket(z, x))
                + lie_bracket(z, lie_bracket(x, y))
            )
            assert jac.is_zero()

    def test_module_rule(self):
        s = Sampler(114)
        for _ in range(30):
            x, y = (s.vector_field(SUPPORT, 2) for _ in range(2))
            f = s.poly(SUPPORT, 2)
            assert lie_bracket(x, y * f) == y * vector_apply(x, f) + lie_bracket(
                x, y
            ) * f


class TestLieDerivative:
    def test_on_functions_is_application(self):
        s = Sampler(115)
        for _ in range(20):
            x = s.vector_field(SUPPORT, 2)
            f = s.poly(SUPPORT, 3)
            assert lie_derivative(x, f) == vector_apply(x, f)

    def test_commutes_with_d(self):
        s = Sampler(116)
        for _ in range(40):
            x = s.vector_field(SUPPORT, 2)
            form = s.kform(s.rng.randint(0, 2), SUPPORT, 2)
            assert lie_derivative(x, de_rham(form)) == de_rham(
                lie_derivative(x, form)
            )

    def test_bracket_compatibility(self):
        # L_[X,Y] = L_X L_Y - L_Y L_X on forms
        s = Sampler(117)
        for _ in range(40):
            x = s.vector_field(SUPPORT, 2)
            y = s.vector_field(SUPPORT, 2)
            form = s.kform(s.rng.randint(0, 2), SUPPORT, 2)
            lhs = lie_derivative(lie_bracket(x, y), form)
            rhs = lie_derivative(x, lie_derivative(y, form)) - lie_derivative(
                y, lie_derivative(x, form)
            )
            assert lhs == rhs

    def test_wedge_derivation(self):
        s = Sampler(118)
        for _ in range(30):
            x = s.vector_field(SUPPORT, 2)
            a = s.kform(1, SUPPORT, 2)
            b = s.kform(2, SUPPORT, 2)
            assert lie_derivative(x, wedge(a, b)) == wedge(
                lie_derivative(x, a), b
            ) + wedge(a, lie_derivative(x, b))

    def test_on_fields_restricts_to_lie_bracket(self):
        s = Sampler(119)
        for _ in range(20):
            x = s.vector_field(SUPPORT, 2)
            y = s.vector_field(SUPPORT, 2)
            assert lie_derivative(x, y) == lie_bracket(x, y)


class TestGradeAndArityErrors:
    def test_add_mismatched_grades(self):
        with pytest.raises(GradeError):
            KForm.blade((0,)) + KForm.blade((0, 1))

    def test_wedge_same_kind_only(self):
        with pytest.raises(GradeError):
            wedge(KVector.coordinate(0), KForm.coordinate(1))

    def test_blade_validation(self):
        with pytest.raises(GradeError):
            KForm(1, {(0, 1): Poly.one()})
        with pytest.raises(ValueError):
            KForm(2, {(1, 0): Poly.one()})
        with pytest.raises(ValueError):
            KForm(2, {(1, 1): Poly.one()})


def assert_canonical_poly(poly):
    """Every stored coefficient is a nonzero int, or a Fraction that is not one."""
    assert type(poly) is Poly, repr(poly)
    for coeff in poly.terms.values():
        assert coeff and (
            type(coeff) is int or type(coeff) is Fraction and coeff.denominator > 1
        ), repr(coeff)


def assert_canonical_terms(value):
    """Every stored coefficient is a nonzero canonical Poly, and the
    validating constructor rebuilds the value unchanged; a bare Poly result
    has canonical coefficients."""
    if type(value) is Poly:
        assert_canonical_poly(value)
        return
    for coeff in value.terms.values():
        assert_canonical_poly(coeff)
        assert not coeff.is_zero(), repr(coeff)
    assert value == type(value)(value.grade, value.terms)


multivectors = st.integers(min_value=0, max_value=3).flatmap(
    lambda grade: alternating(KVector, grade)
)


class TestCanonicalTerms:
    @given(
        alternating(KVector, 1),
        alternating(KVector, 1),
        alternating(KVector, 1),
        alternating(KForm, 1),
        alternating(KForm, 2),
        alternating(KForm, 3),
        multivectors,
        multivectors,
        polys,
        polys,
    )
    @settings(deadline=None)
    def test_every_operation_stores_canonical_terms(self, x, y, z, a, b, c, p, q, f, g):
        results = [
            a.evaluate(x), b.evaluate(x, y), c.evaluate(x, y, z), x.evaluate(a),
            vector_apply(x, f), vector_apply(x, f * g), f * g, f * f - g * g, (f + g) * (f - g),
            a + a, a - a, a + (-a), b + b, b - b, p + p, p - p, p + (-p),
            a.wedge(a), a.wedge(b), b.wedge(b), x.wedge(y), p.wedge(q),
            interior_product(x, b), interior_product(x, interior_product(x, b)),
            interior_product(a, p.wedge(x)), interior_product(a, x.wedge(x)),
            de_rham(f), de_rham(de_rham(f)), de_rham(a), de_rham(de_rham(a)), de_rham(b),
            lie_bracket(x, y), lie_bracket(x, x), lie_bracket(y, x) + lie_bracket(x, y),
            lie_derivative(x, a), lie_derivative(x, b), lie_derivative(x, p),
            lie_derivative(x, x),
            schouten_bracket(p, q), schouten_bracket(x, x), schouten_bracket(p, p),
            schouten_bracket(f, p), schouten_bracket(x, y) - lie_bracket(x, y),
        ]
        for value in results:
            assert_canonical_terms(value)

    @given(
        constant_structures(),
        alternating(KVector, 1),
        alternating(KForm, 1),
        multivectors,
        polys,
    )
    @settings(deadline=None)
    def test_musical_maps_and_contravariant_differential(self, w, x, a, p, f):
        pi = w.bivector(INDICES)
        results = [
            flat_by_omega(w, x), flat_by_omega(w, x) + flat_by_omega(w, -x),
            cotangent_algebroid(w.bivector(a.support())).anchor(a),
            contravariant_differential(pi, f), contravariant_differential(pi, p),
            contravariant_differential(pi, contravariant_differential(pi, p)),
        ]
        try:
            xa = sharp_by_pi(w, a)
        except NotInvertible:
            pass
        else:
            results += [xa, flat_by_omega(w, xa) + a]
        for value in results:
            assert_canonical_terms(value)
