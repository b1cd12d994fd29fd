"""Constant weak-symplectic structures: the 2-form omega and the Poisson
bivector pi, Hamiltonian fields, Poisson and 1-form brackets, the strict
refusal, nondegeneracy reports.

Sign conventions under test (fixed across the whole package), with omega
and pi over a cover holding every index involved:

* X -> i_X omega reads row i of W on e_i;
* a -> i_a pi reads column j of W^-1 on dx_j, so i_{i_a pi} omega = -a
  and i_{i_X omega} pi = -X on paired indices;
* X_f = i_{df} pi, equivalently df = -i_{X_f} omega on paired indices;
* {f, g} = X_f(g) = omega(X_f, X_g).

For the standard structure (pairs (x_{2i}, x_{2i+1}) with
w = sum dx_{2i} ^ dx_{2i+1}): i_{dx_{2i}} pi = e_{2i+1} and
i_{dx_{2i+1}} pi = -e_{2i}.

``flat_by_omega`` and ``sharp_by_pi`` are the two contractions; the second
runs the strict check first, as the ``bracket`` subcommand does.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid.algebroids import _koszul_bracket, cotangent_algebroid
from algebroid.errors import GradeError, NotInvertible
from algebroid.exterior import (
    KForm,
    KVector,
    de_rham,
    interior_product,
    lie_derivative,
    schouten_bracket,
)
from algebroid.poly import Poly
from algebroid.sampling import Sampler
from algebroid.symplectic import ConstantSymplectic, check_weak_symplectic, poisson_bracket

from conftest import (
    INDICES,
    alternating,
    constant_structures,
    flat_by_omega,
    is_canonical,
    polys,
    reference_sharp_components,
    sharp_by_pi,
)

STD = ConstantSymplectic.standard()
SUPPORT = (0, 1, 2, 3)
STD_PI = STD.bivector(SUPPORT)


def cotangent(w, cover):
    """The cotangent algebroid of w's Poisson bivector over ``cover``."""
    return cotangent_algebroid(w.bivector(cover))


def strict_bracket(w, a, b):
    """The 1-form bracket of the ``bracket`` subcommand: the cotangent
    bracket of pi over the indices of a then b, after the strict check."""
    indices = [i for form in (a, b) for (i,) in form.terms]
    return cotangent_algebroid(w.strict_bivector(indices)).bracket(a, b)


def explicit_rotation():
    # w(e0, e1) = 2, w(e0, e2) = -1, w(e1, e2) = 3 on block {0, 1, 2} is
    # singular (odd size); use a 4x4 nondegenerate example instead.
    matrix = [
        [0, 2, -1, 0],
        [-2, 0, 3, 0],
        [1, -3, 0, Fraction(1, 2)],
        [0, 0, Fraction(-1, 2), 0],
    ]
    return ConstantSymplectic.explicit((0, 1, 2, 3), matrix)


class TestMusicalMaps:
    def test_standard_basis_images(self):
        assert flat_by_omega(STD, KVector.coordinate(0)) == KForm.coordinate(1)
        assert flat_by_omega(STD, KVector.coordinate(1)) == -KForm.coordinate(0)
        assert sharp_by_pi(STD, KForm.coordinate(0)) == KVector.coordinate(1)
        assert sharp_by_pi(STD, KForm.coordinate(1)) == -KVector.coordinate(0)

    def test_flat_is_interior_product(self):
        # omega over the field's own indices contracts as omega over SUPPORT
        s = Sampler(301)
        w_form = STD.materialize(SUPPORT)
        for _ in range(30):
            x = s.vector_field(SUPPORT, 2)
            assert flat_by_omega(STD, x) == interior_product(x, w_form)

    def test_round_trips_are_minus_identity(self):
        s = Sampler(302)
        for w in (STD, explicit_rotation()):
            for _ in range(30):
                x = s.vector_field(SUPPORT, 2)
                a = s.oneform(SUPPORT, 2)
                assert sharp_by_pi(w, flat_by_omega(w, x)) == -x
                assert flat_by_omega(w, sharp_by_pi(w, a)) == -a

    def test_sharp_defining_equation(self):
        s = Sampler(303)
        w = explicit_rotation()
        w_form = w.materialize(SUPPORT)
        for _ in range(30):
            a = s.oneform(SUPPORT, 2)
            x = sharp_by_pi(w, a)
            assert interior_product(x, w_form) == -a

    def test_sharp_off_block_raises_with_witness(self):
        w = ConstantSymplectic.explicit((0, 1), [[0, 1], [-1, 0]])
        with pytest.raises(NotInvertible) as info:
            sharp_by_pi(w, KForm.coordinate(5))
        assert info.value.witness == 5

    def test_strict_check_stops_at_the_first_unpaired_index(self):
        w = ConstantSymplectic.explicit((0, 1), [[0, 1], [-1, 0]])
        with pytest.raises(NotInvertible) as info:
            w.strict_bivector([1, 7, 0, 3])
        assert info.value.witness == 7
        assert str(info.value) == "the 2-form is singular on the needed support: dx[7] is unpaired"
        assert w.strict_bivector([1, 0]) == w.bivector([1, 0])

    def test_bivector_anchor_zeroes_off_block(self):
        w = ConstantSymplectic.explicit((0, 1), [[0, 1], [-1, 0]])
        anchor = cotangent(w, (0, 1, 5)).anchor
        assert anchor(KForm.coordinate(5)).is_zero()
        assert anchor(KForm.coordinate(0)) == sharp_by_pi(w, KForm.coordinate(0))

    def test_bivector_anchor_needs_a_cover_of_the_section(self):
        # pi over (0, 1) has no blade on index 2, so the section must be
        # inside the cover for the anchor to be i_a pi of the whole pairing
        dx2 = KForm.coordinate(2)
        assert cotangent(STD, (0, 1)).anchor(dx2).is_zero()
        assert cotangent(STD, (0, 1, 2)).anchor(dx2) == sharp_by_pi(STD, dx2)


class TestHamiltonian:
    def test_standard_examples(self):
        x0 = Poly.variable(0)
        assert sharp_by_pi(STD, de_rham(x0)) == KVector.coordinate(1)
        assert poisson_bracket(STD.bivector((0, 1)), x0, Poly.variable(1)) == Poly.one()
        assert poisson_bracket(STD_PI, x0, Poly.variable(2)).is_zero()

    def test_sign_coherence(self):
        # df = -i_{X_f} omega with X_f = i_{df} pi, and X_f is the reference's
        s = Sampler(304)
        for w in (STD, explicit_rotation()):
            pi = w.bivector(SUPPORT)
            for _ in range(40):
                f = s.poly(SUPPORT, 3)
                xf = interior_product(de_rham(f), pi)
                assert xf == reference_sharp(w, de_rham(f), False)
                assert de_rham(f) == -flat_by_omega(w, xf)

    def test_poisson_is_evaluation_on_hamiltonians(self):
        s = Sampler(305)
        w = explicit_rotation()
        w_form = w.materialize(SUPPORT)
        pi = w.bivector(SUPPORT)
        for _ in range(30):
            f = s.poly(SUPPORT, 2)
            g = s.poly(SUPPORT, 2)
            assert poisson_bracket(pi, f, g) == w_form.evaluate(
                sharp_by_pi(w, de_rham(f)), sharp_by_pi(w, de_rham(g))
            )

    def test_poisson_laws(self):
        s = Sampler(306)
        for _ in range(40):
            f = s.poly(SUPPORT, 2)
            g = s.poly(SUPPORT, 2)
            h = s.poly(SUPPORT, 2)
            assert poisson_bracket(STD_PI, f, g) == -poisson_bracket(STD_PI, g, f)
            assert poisson_bracket(STD_PI, f, g * h) == poisson_bracket(
                STD_PI, f, g
            ) * h + g * poisson_bracket(STD_PI, f, h)
            jac = (
                poisson_bracket(STD_PI, f, poisson_bracket(STD_PI, g, h))
                + poisson_bracket(STD_PI, g, poisson_bracket(STD_PI, h, f))
                + poisson_bracket(STD_PI, h, poisson_bracket(STD_PI, f, g))
            )
            assert jac.is_zero()

    def test_hamiltonian_flow_preserves_w(self):
        # L_{X_f} w = 0: Cartan + closedness makes this d(i_{X_f} w) = -ddf
        s = Sampler(307)
        w_form = STD.materialize(SUPPORT)
        for _ in range(20):
            f = s.poly(SUPPORT, 3)
            assert lie_derivative(sharp_by_pi(STD, de_rham(f)), w_form).is_zero()

    @given(polys)
    @settings(deadline=None)
    def test_variables_come_in_the_order_of_df(self, f):
        # the bracket subcommand checks the variables of f, for df's indices
        assert list(f.variables()) == [i for (i,) in de_rham(f).terms]


class TestOneFormBracket:
    def test_exact_forms_bracket_to_exact(self):
        # {df, dg} = d{f, g}
        s = Sampler(308)
        for w in (STD, explicit_rotation()):
            pi = w.bivector(SUPPORT)
            for _ in range(40):
                f = s.poly(SUPPORT, 3)
                g = s.poly(SUPPORT, 3)
                lhs = strict_bracket(w, de_rham(f), de_rham(g))
                assert lhs == de_rham(poisson_bracket(pi, f, g))

    def test_antisymmetry(self):
        s = Sampler(309)
        for _ in range(30):
            a = s.oneform(SUPPORT, 2)
            b = s.oneform(SUPPORT, 2)
            assert strict_bracket(STD, a, b) == -strict_bracket(STD, b, a)

    def test_jacobi(self):
        s = Sampler(310)
        for _ in range(20):
            a, b, c = (s.oneform(SUPPORT, 2) for _ in range(3))
            jac = (
                strict_bracket(STD, a, strict_bracket(STD, b, c))
                + strict_bracket(STD, b, strict_bracket(STD, c, a))
                + strict_bracket(STD, c, strict_bracket(STD, a, b))
            )
            assert jac.is_zero()

    def test_bivector_bracket_agrees_with_strict_on_block(self):
        w = ConstantSymplectic.explicit((0, 1), [[0, 1], [-1, 0]])
        bracket = cotangent(w, (0, 1)).bracket
        s = Sampler(311)
        for _ in range(20):
            a = s.oneform((0, 1), 2)
            b = s.oneform((0, 1), 2)
            assert bracket(a, b) == strict_bracket(w, a, b)

    @pytest.mark.parametrize(
        "w, strict",
        [
            (STD, True),
            # x2 and x3 are unpaired: only the bivector's bracket is defined.
            (ConstantSymplectic.explicit((0, 1), [[0, 1], [-1, 0]]), False),
            (explicit_rotation(), True),
        ],
        ids=["standard", "block-with-unpaired", "non-unit-4x4"],
    )
    def test_defining_expansion(self, w, strict):
        # The brackets are computed in Cartan form; check them against the
        # definition L_{xa} b - L_{xb} a - d(b(xa)), evaluated on fresh copies
        # of the forms so that no derivative memoized by the bracket is reused.
        s = Sampler(312)
        for _ in range(20):
            a = s.oneform(SUPPORT, 2)
            b = s.oneform(SUPPORT, 2)
            got = [cotangent(w, SUPPORT).bracket(a, b)]
            if strict:
                got.append(strict_bracket(w, a, b))
            a, b = KForm(1, a.terms), KForm(1, b.terms)
            xa, xb = reference_sharp(w, a, True), reference_sharp(w, b, True)
            expected = (
                lie_derivative(xa, b) - lie_derivative(xb, a) - de_rham(b.evaluate(xa))
            )
            assert got == [expected] * len(got)


def cartan_koszul(anchor, a, b):
    """i_{xa} db - i_{xb} da - d(a(xb)), one operator call per term, on
    copies of the forms that carry no memoized derivative."""
    a, b = KForm(1, a.terms), KForm(1, b.terms)
    xa, xb = anchor(a), anchor(b)
    return (
        interior_product(xa, de_rham(b))
        - interior_product(xb, de_rham(a))
        - de_rham(a.evaluate(xb))
    )


class TestKoszulAgainstComposition:
    """The fused Koszul bracket against its composition of operators.  The
    anchor a -> i_a P of any grade-2 KVector P is allowed, with polynomial
    coefficients, so nothing rests on P being Poisson or constant."""

    @given(alternating(KVector, 2), alternating(KForm, 1), alternating(KForm, 1))
    @settings(deadline=None)
    def test_any_bivector_anchor(self, p, a, b):
        def anchor(form):
            return interior_product(form, p)

        value = _koszul_bracket(anchor, a, b)
        assert value == cartan_koszul(anchor, a, b)
        assert is_canonical(value)

    @given(constant_structures(), alternating(KForm, 1), alternating(KForm, 1))
    @settings(deadline=None, max_examples=50)
    def test_cotangent_and_strict_brackets(self, w, a, b):
        algebroid = cotangent(w, a.support() | b.support())
        assert algebroid.bracket(a, b) == cartan_koszul(algebroid.anchor, a, b)
        strict = outcome(strict_bracket, w, a, b)
        assert strict == outcome(
            cartan_koszul, lambda form: reference_sharp(w, form, False), a, b
        )


class TestInducedPairing:
    """The pairing b(i_a pi) of 1-forms induced by the 2-form."""

    def test_standard_partners(self):
        dx0, dx1, dx2 = (KForm.coordinate(i) for i in range(3))
        assert dx1.evaluate(sharp_by_pi(STD, dx0)) == 1
        assert dx0.evaluate(sharp_by_pi(STD, dx1)) == -1
        assert dx2.evaluate(sharp_by_pi(STD, dx0)).is_zero()

    def test_antisymmetry(self):
        s = Sampler(312)
        w = explicit_rotation()
        for _ in range(30):
            a = s.oneform(SUPPORT, 2)
            b = s.oneform(SUPPORT, 2)
            assert b.evaluate(sharp_by_pi(w, a)) == -a.evaluate(sharp_by_pi(w, b))


class TestWeakSymplecticCheck:
    def test_standard_passes(self):
        report = check_weak_symplectic(STD.materialize(SUPPORT), SUPPORT)
        assert report.passed and report.closed and report.injective
        assert report.rank == 4 and report.dimension == 4
        assert not report.generic and report.caveats == []

    def test_takes_only_a_two_form(self):
        # a constant structure enters as its 2-form over a cover
        for target in (STD, STD.bivector(SUPPORT), KForm.coordinate(0)):
            with pytest.raises(GradeError):
                check_weak_symplectic(target, SUPPORT)

    def test_constant_form_target(self):
        w_form = STD.materialize((0, 1))
        report = check_weak_symplectic(w_form, (0, 1))
        assert report.passed and report.rank == 2

    def test_nonclosed_form_fails_with_witness(self):
        bad = KForm.blade((1, 2), Poly.variable(0))
        report = check_weak_symplectic(bad, (0, 1, 2))
        assert not report.passed and not report.closed
        assert report.closed_witness == de_rham(bad)

    def test_degenerate_form_fails_with_witness(self):
        w_form = STD.materialize((0, 1))
        report = check_weak_symplectic(w_form, (0, 1, 2))
        assert not report.passed and not report.injective
        assert report.injective_witness is not None
        # the witness is in the kernel of the flat map
        assert interior_product(report.injective_witness, w_form).is_zero()

    def test_polynomial_coefficients_reported_generic(self):
        # x0-scaled area form: nondegenerate generically, with a caveat
        target = KForm.blade((0, 1), Poly.variable(0) + 1)
        report = check_weak_symplectic(target, (0, 1))
        assert report.generic
        assert report.caveats
        assert report.closed

    def test_weak_but_injective_on_partial_support(self):
        # the standard form restricted to one pair, checked on that pair
        report = check_weak_symplectic(STD.materialize((0, 1)), (0, 1))
        assert report.passed


class TestExplicitValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            ConstantSymplectic.explicit((0, 1), [[0, 1], [1, 0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            ConstantSymplectic.explicit((0, 1), [[1, 0], [0, -1]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ConstantSymplectic.explicit((0, 1, 2), [[0, 1], [-1, 0]])

    def test_singular_matrix_raises_with_kernel_witness(self):
        with pytest.raises(NotInvertible) as info:
            ConstantSymplectic.explicit(
                (0, 1, 2, 3),
                [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            )
        witness = info.value.witness
        assert witness == KVector.coordinate(2)

    def test_materialize_matches_entries(self):
        w = explicit_rotation()
        form = w.materialize((0, 1, 2, 3))
        assert form.coefficient((0, 1)) == Poly.constant(2)
        assert form.coefficient((0, 2)) == Poly.constant(-1)
        assert form.coefficient((1, 2)) == Poly.constant(3)
        assert form.coefficient((2, 3)) == Poly.constant(Fraction(1, 2))


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def congruent_standard(rng, n, rank):
    """P^T J P for a seeded invertible rational P, where J pairs the first
    ``rank`` coordinates as the standard form does and is zero elsewhere.

    The result is antisymmetric, with rank ``rank`` because P is invertible
    (a unit lower triangular times a diagonal times a unit upper triangular
    matrix), so it is invertible exactly when ``rank == n``.
    """
    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    lower = [[entry() if j < i else Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[entry() if j > i else Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diagonal = [
        [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) if i == j else Fraction(0)
         for j in range(n)]
        for i in range(n)
    ]
    p = matmul(matmul(lower, diagonal), upper)
    j = [[Fraction(0)] * n for _ in range(n)]
    for k in range(0, rank, 2):
        j[k][k + 1], j[k + 1][k] = Fraction(1), Fraction(-1)
    transpose = [list(col) for col in zip(*p)]
    return matmul(matmul(transpose, j), p)


class TestExplicitInverse:
    @pytest.mark.parametrize("n", [0, 2, 4, 6])
    def test_inverse_is_exact(self, n):
        rng = random.Random(900 + n)
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(10):
            matrix = congruent_standard(rng, n, n)
            w = ConstantSymplectic.explicit(range(n), matrix)
            assert matmul(matrix, w.inverse) == identity
            assert matmul(w.inverse, matrix) == identity

    @pytest.mark.parametrize("n, rank", [(2, 0), (4, 2), (6, 2), (6, 4), (5, 4)])
    def test_singular_block_raises_with_kernel_witness(self, n, rank):
        rng = random.Random(950 + 10 * n + rank)
        block = tuple(range(1, 2 * n, 2))  # odd indices, to exercise the mapping
        for _ in range(5):
            matrix = congruent_standard(rng, n, rank)
            with pytest.raises(NotInvertible) as info:
                ConstantSymplectic.explicit(block, matrix)
            witness = info.value.witness
            vector = [witness.coefficient((i,)).constant_term() for i in block]
            assert any(vector)
            assert matmul(matrix, [[v] for v in vector]) == [[0]] * n


# -- references: the musical maps and the table readers as they were written
# before both musical maps read ``flat_components``/``sharp_components`` ----


def reference_flat(w, field):
    """flat with its own standard/explicit branch, reading rows of W."""
    terms = {}
    for (i,), component in field.terms.items():
        if w.kind == "standard":
            images = [(i + 1, Fraction(1))] if i % 2 == 0 else [(i - 1, Fraction(-1))]
        else:
            if i not in w.block:
                continue
            a = w.block.index(i)
            images = [
                (w.block[b], w.matrix[a][b])
                for b in range(len(w.block))
                if w.matrix[a][b]
            ]
        for target, scale in images:
            acc = terms.get((target,), Poly.zero()) + component * scale
            if acc.is_zero():
                terms.pop((target,), None)
            else:
                terms[(target,)] = acc
    return KForm(1, terms)


def reference_sharp(w, oneform, lenient):
    """sharp (strict) and the Poisson bivector's anchor (lenient: zero on
    unpaired indices), reading columns of W^-1."""
    terms = {}
    for (j,), component in oneform.terms.items():
        images = reference_sharp_components(w, j)
        if images is None:
            if lenient:
                continue
            error = NotInvertible(
                f"the 2-form is singular on the needed support: dx[{j}] is unpaired"
            )
            error.witness = j
            raise error
        for target, scale in images:
            acc = terms.get((target,), Poly.zero()) + component * scale
            if acc.is_zero():
                terms.pop((target,), None)
            else:
                terms[(target,)] = acc
    return KVector(1, terms)


def reference_entry(w, i, j):
    if w.kind == "standard":
        if j == i + 1 and i % 2 == 0:
            return Fraction(1)
        if j == i - 1 and i % 2 == 1:
            return Fraction(-1)
        return Fraction(0)
    try:
        a = w.block.index(i)
        b = w.block.index(j)
    except ValueError:
        return Fraction(0)
    return w.matrix[a][b]


def reference_materialize(w, cover):
    terms = {}
    if w.kind == "standard":
        for p in sorted({i // 2 for i in cover}):
            terms[(2 * p, 2 * p + 1)] = Poly.one()
    else:
        n = len(w.block)
        for a in range(n):
            for b in range(a + 1, n):
                if w.matrix[a][b]:
                    terms[(w.block[a], w.block[b])] = Poly.constant(w.matrix[a][b])
    return KForm(2, terms)


def reference_is_closed_support(w, indices):
    indices = set(indices)
    if w.kind == "standard":
        return all(i ^ 1 in indices for i in indices)
    return set(w.block) <= indices


def outcome(function, *args):
    """The value of ``function(*args)``, or the message and witness of the
    NotInvertible it raises."""
    try:
        return function(*args)
    except NotInvertible as error:
        return ("NotInvertible", str(error), error.witness)


class TestMusicalMapsAgainstReference:
    @given(constant_structures(), alternating(KVector, 1))
    @settings(deadline=None)
    def test_flat(self, w, field):
        cover = field.support()
        assert interior_product(field, w.materialize(cover)) == reference_flat(w, field)

    @given(constant_structures(), alternating(KForm, 1))
    @settings(deadline=None)
    def test_sharp_and_bivector_anchor(self, w, oneform):
        # the strict check of the indices, then i_a pi
        assert outcome(sharp_by_pi, w, oneform) == outcome(reference_sharp, w, oneform, False)
        anchor = cotangent(w, oneform.support()).anchor
        assert anchor(oneform) == reference_sharp(w, oneform, True)

    @given(constant_structures(), alternating(KForm, 1), alternating(KForm, 1))
    @settings(deadline=None, max_examples=50)
    def test_koszul_brackets_use_the_same_sharp(self, w, a, b):
        xa = reference_sharp(w, a, True)
        xb = reference_sharp(w, b, True)
        expected = (
            lie_derivative(xa, b) - lie_derivative(xb, a) - de_rham(b.evaluate(xa))
        )
        assert cotangent(w, a.support() | b.support()).bracket(a, b) == expected

    @given(constant_structures(), st.sampled_from(INDICES))
    @settings(deadline=None)
    def test_component_tables(self, w, index):
        assert w.sharp_components(index) == reference_sharp_components(w, index)
        row = [(j, reference_entry(w, index, j)) for j in range(10)]
        assert w.flat_components(index) == [(j, v) for j, v in row if v]

    @given(constant_structures(), polys)
    @settings(deadline=None)
    def test_bivector_brackets_a_function_to_its_anchor(self, w, f):
        pi = w.bivector(f.variables())
        assert pi.grade == 2
        assert schouten_bracket(pi, f) == reference_sharp(w, de_rham(f), True)
        assert schouten_bracket(pi, f) == cotangent_algebroid(pi).anchor(de_rham(f))
        closure = w.closure(f.variables())
        for (i, j), coeff in pi.terms.items():
            assert i < j and i in closure and j in closure
            # no blade on an unpaired index; the coefficient is sharp(dx_i)_j
            assert reference_sharp_components(w, j) is not None
            assert coeff == dict(reference_sharp_components(w, i))[j]

    def test_bivector_closed_forms(self):
        assert STD.bivector((0, 3)) == KVector.blade((0, 1)) + KVector.blade((2, 3))
        w = ConstantSymplectic.explicit((1, 2), [[0, 2], [-2, 0]])
        # sharp(dx_1) = 1/2 e_2, column 1 of W^-1; the unpaired 0 and 3 get no blade
        assert w.bivector((0, 3)) == KVector.blade((1, 2), Fraction(1, 2))

    @given(constant_structures())
    @settings(deadline=None)
    def test_flat_components_read_the_matrix(self, w):
        for i in range(10):
            row = dict(w.flat_components(i))
            assert all(type(value) is Fraction for value in row.values())
            for j in range(10):
                value = row.get(j, 0)
                assert value == reference_entry(w, i, j)
                if w.kind == "explicit" and i in w.block and j in w.block:
                    assert value == w.matrix[w.block.index(i)][w.block.index(j)]

    def test_standard_flat_components_closed_form(self):
        # w = sum_p dx_{2p} ^ dx_{2p+1}: w(e_i, e_j) is +1 for (2p, 2p+1),
        # -1 for (2p+1, 2p) and 0 elsewhere.
        pairs = {(2 * p, 2 * p + 1): 1 for p in range(6)}
        pairs.update({(2 * p + 1, 2 * p): -1 for p in range(6)})
        for i in range(12):
            row = dict(STD.flat_components(i))
            for j in range(12):
                assert row.get(j, 0) == pairs.get((i, j), 0)

    @given(constant_structures(), st.sets(st.sampled_from(INDICES)))
    @settings(deadline=None)
    def test_materialize_and_closed_support(self, w, cover):
        assert w.materialize(cover) == reference_materialize(w, cover)
        assert w.is_closed_support(cover) == reference_is_closed_support(w, cover)
        assert w.is_closed_support(w.closure(cover))
