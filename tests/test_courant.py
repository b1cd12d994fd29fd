"""Generalized sections, the Dorfman and Courant brackets, and the axiom
checker with injectable structure.

Oracles: every identity is checked against its defining expansion computed
from the independently tested exterior-calculus operators (Lie derivative,
interior product, exterior derivative), never against the bracket code
itself.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algebroid import courant, exterior
from algebroid.courant import (
    GeneralizedSection,
    anchor,
    check_courant_axioms,
    courant_bracket,
    delta_operator,
    dorfman_bracket,
    tm_pairing,
)
from algebroid.errors import GradeError
from algebroid.exterior import (
    KForm,
    KVector,
    de_rham,
    interior_product,
    lie_bracket,
    lie_derivative,
    vector_apply,
)
from algebroid.poly import Poly
from algebroid.sampling import Sampler

from conftest import accumulating, alternating, is_canonical

SUPPORT = (0, 1, 2, 3)


def sample_sections(seed, count=3, degree=2):
    s = Sampler(seed)
    return [s.section(SUPPORT, degree) for _ in range(count)]


class TestGeneralizedSection:
    def test_constructors(self):
        x = KVector.coordinate(0)
        a = KForm.coordinate(1)
        s = GeneralizedSection(x, a)
        assert s.vector == x and s.form == a
        only_vector = GeneralizedSection(x, KForm.zero(1))
        assert only_vector.vector == x and only_vector.form.is_zero()
        only_form = GeneralizedSection(KVector.zero(1), a)
        assert only_form.vector.is_zero() and only_form.form == a
        assert GeneralizedSection.zero().is_zero()

    def test_arithmetic(self):
        s1, s2 = sample_sections(501, 2)
        total = s1 + s2
        assert total.vector == s1.vector + s2.vector
        assert total.form == s1.form + s2.form
        assert (s1 - s1).is_zero()
        scaled = s1 * Fraction(3, 2)
        assert scaled.vector == s1.vector * Fraction(3, 2)
        f = Poly.variable(0)
        assert (f * s1).form == s1.form * f

    def test_grade_validation(self):
        with pytest.raises(GradeError):
            GeneralizedSection(KVector.zero(2), KForm.zero(1))
        with pytest.raises(GradeError):
            GeneralizedSection(KVector.zero(1), KForm.zero(2))

    def test_type_validation(self):
        with pytest.raises(TypeError):
            tm_pairing(KVector.coordinate(0), GeneralizedSection.zero())
        with pytest.raises(TypeError):
            dorfman_bracket(GeneralizedSection.zero(), "nope")


class TestPairing:
    def test_defining_expansion(self):
        for s1, s2 in zip(sample_sections(502), sample_sections(503)):
            assert tm_pairing(s1, s2) == s1.form.evaluate(s2.vector) + (
                s2.form.evaluate(s1.vector)
            )

    def test_symmetric(self):
        for s1, s2 in zip(sample_sections(504), sample_sections(505)):
            assert tm_pairing(s1, s2) == tm_pairing(s2, s1)

    def test_function_bilinear(self):
        (s1, s2) = sample_sections(506, 2)
        f = Poly.variable(2) + 1
        assert tm_pairing(f * s1, s2) == f * tm_pairing(s1, s2)


class TestDorfmanBracket:
    def test_defining_expansion(self):
        for s1, s2 in zip(sample_sections(507), sample_sections(508)):
            value = dorfman_bracket(s1, s2)
            assert value.vector == lie_bracket(s1.vector, s2.vector)
            assert value.form == lie_derivative(s1.vector, s2.form) - (
                interior_product(s2.vector, de_rham(s1.form))
            )

    def test_not_antisymmetric(self):
        s = GeneralizedSection(
            KVector.coordinate(0), KForm.blade((0,), Poly.variable(0))
        )
        square = dorfman_bracket(s, s)
        assert square.vector.is_zero()
        assert square.form == de_rham(Poly.variable(0))
        assert square == delta_operator(tm_pairing(s, s)) * Fraction(1, 2)

    def test_axioms_pass_on_random_sections(self):
        sections = sample_sections(31)
        s = Sampler(131)
        functions = [s.nonzero_poly(SUPPORT, 2) for _ in range(2)]
        report = check_courant_axioms(sections, functions)
        assert report.passed
        assert sorted(c.axiom for c in report.checks) == [
            "bracket-jacobi",
            "delta-defining",
            "pairing-invariance",
            "symmetric-part",
        ]

    def test_symmetric_part_is_delta_of_pairing(self):
        for s1, s2 in zip(sample_sections(509), sample_sections(510)):
            lhs = dorfman_bracket(s1, s2) + dorfman_bracket(s2, s1)
            assert lhs == delta_operator(tm_pairing(s1, s2))


class TestCourantBracket:
    def test_defining_expansion(self):
        # The bracket is computed in Cartan form; the definition is checked
        # on fresh copies of the forms, so no memoized derivative is reused.
        for s1, s2 in zip(sample_sections(519), sample_sections(520)):
            value = courant_bracket(s1, s2)
            x, y = s1.vector, s2.vector
            a, b = KForm(1, s1.form.terms), KForm(1, s2.form.terms)
            assert value.vector == lie_bracket(x, y)
            assert value.form == lie_derivative(x, b) - lie_derivative(y, a) + (
                de_rham(a.evaluate(y) - b.evaluate(x)) * Fraction(1, 2)
            )

    def test_is_antisymmetrized_dorfman(self):
        for s1, s2 in zip(sample_sections(511), sample_sections(512)):
            anti = (dorfman_bracket(s1, s2) - dorfman_bracket(s2, s1)) * (
                Fraction(1, 2)
            )
            assert courant_bracket(s1, s2) == anti

    def test_differs_from_dorfman_by_half_delta(self):
        for s1, s2 in zip(sample_sections(513), sample_sections(514)):
            correction = delta_operator(tm_pairing(s1, s2)) * Fraction(1, 2)
            assert dorfman_bracket(s1, s2) == courant_bracket(s1, s2) + correction

    def test_antisymmetric(self):
        for s1, s2 in zip(sample_sections(515), sample_sections(516)):
            assert courant_bracket(s1, s2) == -courant_bracket(s2, s1)

    def test_fails_jacobi_generically(self):
        sections = sample_sections(1)
        s = Sampler(101)
        functions = [s.nonzero_poly(SUPPORT, 2) for _ in range(2)]
        report = check_courant_axioms(
            sections, functions, bracket=accumulating(courant_bracket)
        )
        assert not report.passed
        assert report.first_failure.axiom == "bracket-jacobi"
        assert report.first_failure.witness


# -- the fused brackets against the compositions of operators ------------------


def fresh(section):
    """A copy whose forms carry no memoized derivative."""
    return GeneralizedSection(KVector(1, section.vector.terms), KForm(1, section.form.terms))


def cartan_pairing(s1, s2):
    return s1.form.evaluate(s2.vector) + s2.form.evaluate(s1.vector)


def cartan_dorfman(s1, s2):
    """([X, Y], i_X db - i_Y da + d(b(X))), one operator call per term."""
    (x, a), (y, b) = (s1.vector, s1.form), (s2.vector, s2.form)
    return GeneralizedSection(
        lie_bracket(x, y),
        interior_product(x, de_rham(b))
        - interior_product(y, de_rham(a))
        + de_rham(b.evaluate(x)),
    )


def cartan_courant(s1, s2):
    """([X, Y], i_X db - i_Y da + (1/2) d(b(X) - a(Y))), one operator call per term."""
    (x, a), (y, b) = (s1.vector, s1.form), (s2.vector, s2.form)
    return GeneralizedSection(
        lie_bracket(x, y),
        interior_product(x, de_rham(b))
        - interior_product(y, de_rham(a))
        + de_rham(b.evaluate(x) - a.evaluate(y)) * Fraction(1, 2),
    )


# Rational coefficients from conftest; a part is zero about one time in four,
# and a drawn 1-form is almost never closed.
sections = st.builds(
    GeneralizedSection,
    st.one_of(st.just(KVector.zero(1)), alternating(KVector, 1), alternating(KVector, 1)),
    st.one_of(st.just(KForm.zero(1)), alternating(KForm, 1), alternating(KForm, 1)),
)
# x1 dx0 + 1/2 x0^2 dx1 is not closed, and its field pairs with it to a
# polynomial whose derivative has rational coefficients.
NOT_CLOSED = GeneralizedSection(
    KVector(1, {(0,): Poly.variable(1), (1,): Fraction(2, 3)}),
    KForm(1, {(0,): Poly.variable(1), (1,): Poly({((0, 2),): Fraction(1, 2)})}),
)


class TestFusedAgainstComposition:
    @given(sections, sections)
    @example(NOT_CLOSED, NOT_CLOSED)
    @example(NOT_CLOSED, GeneralizedSection.zero())
    @settings(deadline=None)
    def test_pairing(self, s1, s2):
        value = tm_pairing(s1, s2)
        assert value == cartan_pairing(s1, s2)
        assert is_canonical(value)

    @given(sections, sections)
    @example(NOT_CLOSED, NOT_CLOSED)
    @example(GeneralizedSection.zero(), NOT_CLOSED)
    @settings(deadline=None)
    def test_dorfman(self, s1, s2):
        value = dorfman_bracket(s1, s2)
        assert value == cartan_dorfman(fresh(s1), fresh(s2))
        assert is_canonical(value.vector) and is_canonical(value.form)

    @given(sections, sections)
    @example(NOT_CLOSED, NOT_CLOSED)
    @example(NOT_CLOSED, GeneralizedSection.zero())
    @settings(deadline=None)
    def test_courant(self, s1, s2):
        value = courant_bracket(s1, s2)
        assert value == cartan_courant(fresh(s1), fresh(s2))
        assert is_canonical(value.vector) and is_canonical(value.form)

    def test_not_closed_example_is_not_closed(self):
        assert not de_rham(NOT_CLOSED.form).is_zero()


class TestDeltaOperator:
    def test_shape(self):
        f = Poly.variable(0) * Poly.variable(1)
        value = delta_operator(f)
        assert value.vector.is_zero()
        assert value.form == de_rham(f)

    def test_accepts_scalars(self):
        assert delta_operator(3).is_zero()
        assert delta_operator(Fraction(1, 2)).is_zero()

    def test_defining_property(self):
        s = Sampler(517)
        for _ in range(20):
            f = s.poly(SUPPORT, 3)
            section = s.section(SUPPORT, 2)
            assert tm_pairing(delta_operator(f), section) == vector_apply(
                anchor(section), f
            )


class TestInjectableCorruption:
    def test_asymmetric_pairing_breaks_invariance(self):
        sections = sample_sections(31)
        s = Sampler(131)
        functions = [s.nonzero_poly(SUPPORT, 2) for _ in range(2)]

        def lopsided(a, b):
            return a.form.evaluate(b.vector)

        report = check_courant_axioms(sections, functions, pairing=lopsided)
        assert not report.passed
        assert report.first_failure.axiom == "pairing-invariance"
        assert report.first_failure.witness
        failed = {c.axiom for c in report.checks if not c.passed}
        assert failed == {"pairing-invariance", "symmetric-part"}

    def test_zero_bracket_passes_jacobi_but_little_else(self):
        sections = sample_sections(31)
        s = Sampler(131)
        functions = [s.nonzero_poly(SUPPORT, 2) for _ in range(2)]

        def null_bracket(a, b):
            return GeneralizedSection.zero()

        report = check_courant_axioms(
            sections, functions, bracket=accumulating(null_bracket)
        )
        assert not report.passed
        by_name = {c.axiom: c.passed for c in report.checks}
        assert by_name["bracket-jacobi"]
        assert not by_name["pairing-invariance"]
        assert not by_name["symmetric-part"]


# generalized sections whose pairwise brackets are easy to read off
PLAIN = [
    GeneralizedSection(KVector.coordinate(0), KForm.zero(1)),
    GeneralizedSection(
        KVector.blade((1,), Poly.variable(0)), KForm.blade((0,), Poly.variable(1))
    ),
    GeneralizedSection(
        KVector.blade((2,), Poly.variable(1)), KForm.blade((1,), Poly.variable(2))
    ),
]


def corrupt_dorfman(term):
    """The Dorfman bracket plus ``term`` on exactly the pair (s2, s1),
    compared by identity, so only tuples built from that pair can fail."""

    def bracket(a, b):
        value = dorfman_bracket(a, b)
        return value + term if a is PLAIN[2] and b is PLAIN[1] else value

    return bracket


def pairing_off_at_s2(a, b):
    """tm_pairing plus x3 when s2 is paired with a nonzero value that is
    not a section.  delta(f0) = delta(0) is zero, so the delta-defining
    check fails only at (f1, s2)."""
    value = tm_pairing(a, b)
    if b is PLAIN[2] and all(a is not s for s in PLAIN) and not a.is_zero():
        return value + Poly.variable(3)
    return value


class TestWitnessOrder:
    """Each corruption fails on a late tuple only; the pinned witness is the
    first failing tuple in lexicographic index order."""

    @pytest.mark.parametrize(
        "axiom, bracket, pairing, witness",
        [
            (
                "bracket-jacobi",
                corrupt_dorfman(GeneralizedSection(KVector.coordinate(2), KForm.zero(1))),
                tm_pairing,
                "leibniz-jacobi defect on (s2, s1, s2): (0, -dx[1])",
            ),
            (
                "pairing-invariance",
                corrupt_dorfman(
                    GeneralizedSection(KVector.zero(1), KForm.blade((2,), Poly.variable(0)))
                ),
                tm_pairing,
                "pairing invariance fails on (s2, s1, s2): -x0*x1",
            ),
            (
                "symmetric-part",
                corrupt_dorfman(GeneralizedSection(KVector.coordinate(3), KForm.zero(1))),
                tm_pairing,
                "symmetric part defect on (s1, s2): (e[3], 0)",
            ),
            (
                "delta-defining",
                dorfman_bracket,
                pairing_off_at_s2,
                "pairing(delta(f1), s2) - anchor(s2)(f1) = x3",
            ),
        ],
        ids=[
            "bracket-jacobi",
            "pairing-invariance",
            "symmetric-part",
            "delta-defining",
        ],
    )
    def test_first_failing_tuple(self, axiom, bracket, pairing, witness):
        report = check_courant_axioms(
            PLAIN, [0, Poly.variable(0)], bracket=accumulating(bracket), pairing=pairing
        )
        by_axiom = {c.axiom: c for c in report.checks}
        assert not by_axiom[axiom].passed
        assert by_axiom[axiom].witness == witness


class TestBracketTable:
    @pytest.mark.parametrize("n, m", [(0, 0), (1, 1), (3, 2), (8, 4)])
    def test_each_bracket_is_computed_once(self, n, m):
        # n^2 entries [s_i, s_j]; for Jacobi, n^3 - n^2 nested
        # [s_i, [s_j, s_k]] (none on i == j, where the defect is
        # -[[s_i, s_i], s_k]) and n^3 [[s_i, s_j], s_k]; no check brackets
        # anything else
        calls = []

        def counting(a, b):
            calls.append(None)
            return dorfman_bracket(a, b)

        s = Sampler(518)
        sections = [s.section(SUPPORT, 1) for _ in range(n)]
        functions = [s.nonzero_poly(SUPPORT, 1) for _ in range(m)]
        report = check_courant_axioms(sections, functions, bracket=accumulating(counting))
        assert report.passed
        assert len(calls) == 2 * n**3

    @pytest.mark.parametrize("n, m", [(3, 2), (8, 4)])
    def test_each_form_is_differentiated_once(self, n, m, monkeypatch):
        # Only the n section forms and the n^2 forms of the entries of B are
        # ever differentiated as 1-forms; every bracket reuses their memoized
        # derivatives, and differentiates nothing new but a function.
        computed = {}  # id -> derivative, held so that no id is reused

        def counting(form):
            value = de_rham(form)
            if type(form) is KForm and form.grade == 1:
                computed.setdefault(id(value), value)
            return value

        monkeypatch.setattr(courant, "de_rham", counting)
        monkeypatch.setattr(exterior, "de_rham", counting)
        s = Sampler(518)
        sections = [s.section(SUPPORT, 1) for _ in range(n)]
        functions = [s.nonzero_poly(SUPPORT, 1) for _ in range(m)]
        assert check_courant_axioms(sections, functions).passed
        assert 0 < len(computed) <= n + n * n

    @pytest.mark.parametrize("n, m", [(0, 0), (1, 1), (3, 2), (8, 4)])
    def test_each_pairing_of_two_sections_is_computed_once(self, n, m):
        # n^2 entries pairing(s_j, s_k), shared by invariance and the
        # symmetric part; 2n^3 pairings with a bracket for invariance; n*m
        # pairing(delta(f), s_i) for the defining property of delta
        calls = []

        def counting(a, b):
            calls.append(None)
            return tm_pairing(a, b)

        s = Sampler(518)
        sections = [s.section(SUPPORT, 1) for _ in range(n)]
        functions = [s.nonzero_poly(SUPPORT, 1) for _ in range(m)]
        report = check_courant_axioms(sections, functions, pairing=counting)
        assert report.passed
        assert len(calls) == n * n + 2 * n**3 + n * m

    def test_empty_inputs_pass_vacuously(self):
        report = check_courant_axioms([], [])
        assert report.passed and report.first_failure is None
        assert [c.passed for c in report.checks] == [True] * 4
        assert all(c.witness is None for c in report.checks)
