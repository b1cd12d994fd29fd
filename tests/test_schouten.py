"""The Schouten bracket on multivector fields.

The implementation is a closed termwise formula; the oracle here computes
the same bracket by a different route entirely — structural recursion on
the right slot using only the defining characterization:

* [P, g]        = i_{dg} P                     (grade-0 right slot),
* [P, e_j]      = (-1)^p  d/dx_j (P)           (coefficientwise derivative,
                  from graded symmetry and the frame Lie derivative),
* [P, A ^ B]    = [P, A] ^ B + (-1)^{(p-1) a} A ^ [P, B]
                  (right Leibniz rule, a = grade of A),

which pins the bracket uniquely by bilinearity.  Grade bookkeeping in the
oracle drops identically zero pieces before combining: a bracket's nominal
grade is clamped at max(p+q-1, 0), so zero values of mismatched grades may
appear and must not poison sums.
"""

from algebroid import exterior
from algebroid.exterior import (
    KVector,
    de_rham,
    interior_product,
    lie_bracket,
    lie_derivative,
    schouten_bracket,
    vector_apply,
    wedge,
)
from algebroid.poly import Poly, decode
from algebroid.sampling import Sampler

from conftest import graded_zero_sum, sgn

SUPPORT = (0, 1, 2, 3, 4, 5)


def coefficient_partial(field, var):
    out = KVector.zero(field.grade)
    for blade, coeff in field.terms.items():
        d = coeff.partial(var)
        if not d.is_zero():
            out = out + KVector.blade(blade, d)
    return out


def schouten_oracle(left, right):
    """Independent bracket via recursion on the right slot."""
    p = left.grade
    if right.grade == 0:
        # graded symmetry gives [P, g] = [g, P] = i_{dg} P
        dg = de_rham(right.as_poly())
        if p == 0:
            return KVector.zero(0)
        return interior_product(dg, left)
    total = KVector.zero(max(p + right.grade - 1, 0))
    for blade, coeff in right.terms.items():
        head = KVector.blade(blade[:-1], coeff)  # A = coeff * e_{j_1..j_{q-1}}
        tail = KVector.coordinate(blade[-1])  # B = e_{j_q}
        term1 = schouten_oracle(left, head)
        if not term1.is_zero():
            total = total + wedge(term1, tail)
        term2 = coefficient_partial(left, blade[-1]) * sgn(p)
        if not term2.is_zero():
            piece = wedge(head, term2) * sgn((p - 1) * (right.grade - 1))
            if not piece.is_zero():
                total = total + piece
    return total


def brackets_agree(lhs, rhs) -> bool:
    if lhs.is_zero() and rhs.is_zero():
        return True
    return graded_zero_sum([lhs, -rhs])


class TestSchoutenBase:
    def test_restricts_to_lie_bracket(self):
        s = Sampler(201)
        for _ in range(30):
            x = s.vector_field(SUPPORT, 2)
            y = s.vector_field(SUPPORT, 2)
            assert schouten_bracket(x, y) == lie_bracket(x, y)

    def test_field_against_function_is_application(self):
        s = Sampler(202)
        for _ in range(30):
            x = s.vector_field(SUPPORT, 2)
            f = s.poly(SUPPORT, 3)
            got = schouten_bracket(x, f)
            assert got.grade == 0
            assert got.as_poly() == vector_apply(x, f)

    def test_functions_commute(self):
        f = Poly.variable(0) ** 2
        g = Poly.variable(1) + 3
        assert schouten_bracket(f, g).is_zero()

    def test_grade_one_slot_is_lie_derivative(self):
        s = Sampler(203)
        for _ in range(30):
            x = s.vector_field(SUPPORT, 2)
            q = s.kvector(s.rng.randint(0, 3), SUPPORT, 2)
            assert brackets_agree(schouten_bracket(x, q), lie_derivative(x, q))


class TestSchoutenLaws:
    def test_graded_symmetry(self):
        s = Sampler(204)
        for _ in range(60):
            p = s.rng.randint(0, 3)
            q = s.rng.randint(0, 3)
            a = s.kvector(p, SUPPORT, 2)
            b = s.kvector(q, SUPPORT, 2)
            assert brackets_agree(schouten_bracket(a, b), schouten_bracket(b, a) * sgn(p * q))

    def test_right_leibniz(self):
        s = Sampler(205)
        for _ in range(60):
            p = s.rng.randint(0, 2)
            q = s.rng.randint(0, 2)
            r = s.rng.randint(0, 2)
            a = s.kvector(p, SUPPORT, 2)
            b = s.kvector(q, SUPPORT, 2)
            c = s.kvector(r, SUPPORT, 2)
            lhs = schouten_bracket(a, wedge(b, c))
            pieces = [
                wedge(schouten_bracket(a, b), c),
                wedge(b, schouten_bracket(a, c)) * sgn((p - 1) * q),
                -lhs,
            ]
            assert graded_zero_sum(pieces)

    def test_graded_jacobi(self):
        s = Sampler(206)
        for _ in range(40):
            p = s.rng.randint(0, 2)
            q = s.rng.randint(0, 2)
            r = s.rng.randint(0, 2)
            a = s.kvector(p, SUPPORT, 2)
            b = s.kvector(q, SUPPORT, 2)
            c = s.kvector(r, SUPPORT, 2)
            pieces = [
                schouten_bracket(a, schouten_bracket(b, c)) * sgn((p - 1) * (r - 1) + r),
                schouten_bracket(b, schouten_bracket(c, a)) * sgn((q - 1) * (p - 1) + p),
                schouten_bracket(c, schouten_bracket(a, b)) * sgn((r - 1) * (q - 1) + q),
            ]
            assert graded_zero_sum(pieces)


class TestSchoutenOracle:
    def test_matches_recursive_oracle(self):
        s = Sampler(207)
        for _ in range(120):
            p = s.rng.randint(0, 3)
            q = s.rng.randint(0, 3)
            a = s.kvector(p, SUPPORT, 2)
            b = s.kvector(q, SUPPORT, 2)
            assert brackets_agree(schouten_bracket(a, b), schouten_oracle(a, b))

    def test_oracle_on_handpicked_terms(self):
        # [e0 ^ e1, x1 e2] = e0 ^ e2 against both implementations
        x1 = Poly.variable(1)
        P = KVector.blade((0, 1))
        Q = KVector.blade((2,), x1)
        expected = -KVector.blade((0, 2))
        got = schouten_bracket(P, Q)
        assert got == expected or got == -expected  # sign fixed below
        assert schouten_bracket(P, Q) == schouten_oracle(P, Q)

    def test_handpicked_sign(self):
        # [e0 ^ e1, x1 e2]: only d/dx1 acts; removing e1 from position 2
        # carries (-1)^(2+1) inside the closed formula, giving -e0 ^ e2.
        x1 = Poly.variable(1)
        P = KVector.blade((0, 1))
        Q = KVector.blade((2,), x1)
        assert schouten_bracket(P, Q) == -KVector.blade((0, 2))


class TestDifferentiatedIndices:
    """The bracket differentiates a coefficient only along its own variables."""

    def record_partials(self, monkeypatch):
        # The operators differentiate terms dicts through the derivative
        # helper of ``poly``, not through ``Poly.partial``.
        calls = []
        derivative = exterior._derivative

        def recording(terms, index):
            calls.append((tuple(sorted({v for mono in terms for v, _ in decode(mono)})), index))
            return derivative(terms, index)

        monkeypatch.setattr(exterior, "_derivative", recording)
        return calls

    def test_partials_only_along_occurring_indices(self, monkeypatch):
        calls = self.record_partials(monkeypatch)
        s = Sampler(208)
        for _ in range(60):
            a = s.kvector(s.rng.randint(0, 3), SUPPORT, 2)
            b = s.kvector(s.rng.randint(0, 3), SUPPORT, 2)
            schouten_bracket(a, b)
        assert calls
        assert all(index in variables for variables, index in calls)

    def test_a_constant_bivector_differentiates_only_the_field(self, monkeypatch):
        # [e0 ^ e1 + e2 ^ e3, x0 x2 e4]: the bivector's blades hold 0..3 and
        # the field's coefficient depends on x0 and x2, so exactly d/dx0 and
        # d/dx2 of that coefficient are taken, and nothing of the constants.
        calls = self.record_partials(monkeypatch)
        pi = KVector.blade((0, 1)) + KVector.blade((2, 3))
        field = KVector.blade((4,), Poly.variable(0) * Poly.variable(2))
        assert schouten_bracket(pi, field) == KVector.blade(
            (1, 4), Poly.variable(2)
        ) + KVector.blade((3, 4), Poly.variable(0))
        assert calls == [((0, 2), 0), ((0, 2), 2)]
