"""Algebroid structures: axiom checks, the Chevalley-Eilenberg differential,
and the contravariant differential of a constant symplectic structure.

Oracles:

* the tangent structure's CE differential must agree with the exterior
  derivative evaluated on fields (both sides computed by independent code
  paths);
* the cotangent structure's CE differential must agree with the
  materialized contravariant differential;
* d_CE squared is checked through nested closures, so the composite is
  evaluated without ever materializing a cochain.
"""

import functools
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algebroid import algebroids
from algebroid.algebroids import (
    AlgebroidStructure,
    ce_differential,
    ce_value,
    check_algebroid_axioms,
    contravariant_differential,
    cotangent_algebroid,
    tangent_algebroid,
)
from algebroid.errors import ArityError, GradeError
from algebroid.exterior import (
    KForm,
    KVector,
    de_rham,
    lie_bracket,
    schouten_bracket,
    vector_apply,
    wedge,
)
from algebroid.poly import Poly
from algebroid.sampling import Sampler
from algebroid.symplectic import ConstantSymplectic, poisson_bracket

from conftest import (
    INDICES,
    accumulating,
    alternating,
    constant_structures,
    graded_zero_sum,
    is_canonical,
    reference_sharp_components,
    sgn,
    sharp_by_pi,
)

STD = ConstantSymplectic.standard()
SUPPORT = (0, 1, 2, 3)
STD_PI = STD.bivector(SUPPORT)
STD_COTANGENT = cotangent_algebroid(STD_PI)


def sample_sections(sampler, structure, count, degree=2):
    if structure.section_kind == "vector":
        return [sampler.vector_field(SUPPORT, degree) for _ in range(count)]
    return [sampler.oneform(SUPPORT, degree) for _ in range(count)]


class TestAxiomChecks:
    def test_tangent_passes(self):
        s = Sampler(401)
        sections = sample_sections(s, tangent_algebroid(), 4)
        functions = [s.nonzero_poly(SUPPORT, 2) for _ in range(3)]
        report = check_algebroid_axioms(tangent_algebroid(), sections, functions)
        assert report.passed
        assert sorted(c.axiom for c in report.checks) == [
            "anchor-homomorphism",
            "antisymmetry",
            "jacobi",
            "leibniz",
        ]
        assert report.first_failure is None

    def test_cotangent_passes(self):
        s = Sampler(402)
        structure = STD_COTANGENT
        sections = sample_sections(s, structure, 4)
        functions = [s.nonzero_poly(SUPPORT, 2) for _ in range(3)]
        report = check_algebroid_axioms(structure, sections, functions)
        assert report.passed

    def test_cotangent_with_degenerate_block_passes(self):
        # pi has no blade off the block, so those directions are absent
        w = ConstantSymplectic.explicit((0, 1), [[0, 1], [-1, 0]])
        structure = cotangent_algebroid(w.bivector((0, 1, 2)))
        s = Sampler(403)
        sections = [s.oneform((0, 1, 2), 2) for _ in range(3)]
        functions = [s.nonzero_poly((0, 1, 2), 2) for _ in range(2)]
        report = check_algebroid_axioms(structure, sections, functions)
        assert report.passed

    def test_zero_bracket_fails_leibniz_with_witness(self):
        broken = AlgebroidStructure(
            name="broken",
            section_kind="vector",
            anchor=lambda section: section,
            add_bracket=accumulating(lambda a, b: KVector.zero(1)),
        )
        s = Sampler(404)
        sections = [s.vector_field(SUPPORT, 2) for _ in range(3)]
        functions = [s.nonzero_poly(SUPPORT, 2) for _ in range(2)]
        report = check_algebroid_axioms(broken, sections, functions)
        assert not report.passed
        failed = {c.axiom for c in report.checks if not c.passed}
        assert "leibniz" in failed
        assert report.first_failure is not None
        assert report.first_failure.witness

    def test_corrupted_anchor_fails_homomorphism(self):
        broken = AlgebroidStructure(
            name="broken",
            section_kind="vector",
            anchor=lambda section: section * Poly.constant(2),
            add_bracket=accumulating(lie_bracket),
        )
        s = Sampler(405)
        sections = [s.vector_field(SUPPORT, 2) for _ in range(3)]
        functions = [s.nonzero_poly(SUPPORT, 2) for _ in range(2)]
        report = check_algebroid_axioms(broken, sections, functions)
        assert not report.passed
        failed = {c.axiom for c in report.checks if not c.passed}
        assert "anchor-homomorphism" in failed or "leibniz" in failed


def field(index, coefficient=1):
    return KVector.blade((index,), coefficient)


# s0 = e[0] and s_i = x_(i-1) e[i]: tangent sections with short brackets
PLAIN = [field(i, Poly.variable(i - 1) if i else 1) for i in range(4)]


def corrupt_bracket(first, second, term):
    """The Lie bracket plus ``term`` on exactly the pair (first, second),
    compared by identity, so only tuples built from that pair can fail."""

    def bracket(a, b):
        value = lie_bracket(a, b)
        return value + term if a is first and b is second else value

    return bracket


class TestWitnessOrder:
    """Each corruption fails on a late tuple only; the pinned witness is the
    first failing tuple in lexicographic index order."""

    @pytest.mark.parametrize(
        "axiom, bracket, anchor, witness",
        [
            (
                "antisymmetry",
                corrupt_bracket(PLAIN[2], PLAIN[1], field(3)),
                None,
                "[s1, s2] + [s2, s1] = e[3]",
            ),
            (
                "jacobi",
                corrupt_bracket(PLAIN[2], PLAIN[3], field(0)),
                None,
                "jacobiator(s1, s2, s3) = -e[1]",
            ),
            (
                "anchor-homomorphism",
                lie_bracket,
                lambda s: s + field(0, Poly.variable(1)) if s is PLAIN[2] else s,
                "anchor([s1, s2]) - [anchor(s1), anchor(s2)] = -x0 * e[0] + x1 * e[1]",
            ),
            (
                "leibniz",
                corrupt_bracket(PLAIN[2], PLAIN[1], field(3)),
                None,
                "[s2, f1 s1] - f1 [s2, s1] - anchor(s2)(f1) s1 = -x0 * e[3]",
            ),
        ],
        ids=["antisymmetry", "jacobi", "anchor-homomorphism", "leibniz"],
    )
    def test_first_failing_tuple(self, axiom, bracket, anchor, witness):
        structure = AlgebroidStructure(
            name="corrupted",
            section_kind="vector",
            anchor=anchor or (lambda s: s),
            add_bracket=accumulating(bracket),
        )
        report = check_algebroid_axioms(structure, PLAIN, [0, Poly.variable(0)])
        by_axiom = {c.axiom: c for c in report.checks}
        assert not by_axiom[axiom].passed
        assert by_axiom[axiom].witness == witness


class TestBracketTable:
    @pytest.mark.parametrize("n, m", [(0, 0), (1, 1), (3, 2), (10, 4)])
    def test_each_bracket_is_computed_once(self, n, m):
        # n^2 table entries, 3 nested brackets per Jacobi triple, and one
        # [s_i, f s_j] per Leibniz case
        calls = []

        def counting(a, b):
            calls.append(None)
            return lie_bracket(a, b)

        structure = AlgebroidStructure("counted", "vector", lambda s: s, accumulating(counting))
        s = Sampler(407)
        sections = [s.vector_field(SUPPORT, 1) for _ in range(n)]
        functions = [s.nonzero_poly(SUPPORT, 1) for _ in range(m)]
        report = check_algebroid_axioms(structure, sections, functions)
        assert report.passed
        assert len(calls) == n * n + 3 * comb(n, 3) + m * n * n

    @pytest.mark.parametrize("n, m", [(3, 2), (10, 4)])
    def test_each_leibniz_operand_is_formed_once(self, n, m, monkeypatch):
        # The products f s_j are shared by every i, so the Koszul bracket
        # differentiates only the n sections, the n^2 table entries and the
        # m n products; one product per (i, j, f) would make m n^2 of them.
        computed = {}  # id -> derivative, held so that no id is reused

        def counting(form):
            value = de_rham(form)
            computed.setdefault(id(value), value)
            return value

        monkeypatch.setattr(algebroids, "de_rham", counting)
        s = Sampler(413)
        sections = [s.oneform(SUPPORT, 1) for _ in range(n)]
        functions = [s.nonzero_poly(SUPPORT, 1) for _ in range(m)]
        assert check_algebroid_axioms(STD_COTANGENT, sections, functions).passed
        assert 0 < len(computed) <= n + n * n + m * n

    @pytest.mark.parametrize(
        "pi",
        [STD.bivector(SUPPORT), KVector.blade((0, 1), Poly.variable(2)) + KVector.blade((2, 3))],
        ids=["poisson", "not-poisson"],
    )
    def test_each_form_is_anchored_once(self, pi, monkeypatch):
        # The Koszul bracket asks for anchor(a) and anchor(b) on every call;
        # the structure keeps each form's anchor, so every form is contracted
        # with pi once, and the report, witnesses included, is unchanged.
        contract = algebroids.interior_product
        calls = {"memo": [], "plain": []}

        def counting(into):
            def anchor(section, bivector):
                calls[into].append(section)  # held, so that no id is reused
                return contract(section, bivector)

            return anchor

        s = Sampler(419)
        sections = [s.oneform(SUPPORT, 2) for _ in range(6)]
        functions = [s.nonzero_poly(SUPPORT, 2) for _ in range(3)]
        monkeypatch.setattr(algebroids, "interior_product", counting("memo"))
        report = check_algebroid_axioms(cotangent_algebroid(pi), sections, functions)
        plain_anchor = functools.partial(counting("plain"), bivector=pi)
        plain = AlgebroidStructure(
            "cotangent", "form", plain_anchor,
            accumulating(lambda a, b: algebroids._koszul_bracket(plain_anchor, a, b)),
        )
        assert report == check_algebroid_axioms(plain, sections, functions)
        assert report.passed == (pi == STD.bivector(SUPPORT))
        distinct = {id(form) for form in calls["plain"]}
        assert len(calls["memo"]) == len({id(form) for form in calls["memo"]}) == len(distinct)
        assert len(calls["plain"]) > 2 * len(distinct)

    def test_empty_inputs_pass_vacuously(self):
        for structure in (tangent_algebroid(), STD_COTANGENT):
            report = check_algebroid_axioms(structure, [], [])
            assert report.passed and report.first_failure is None
            assert [c.passed for c in report.checks] == [True] * 4
            assert all(c.witness is None for c in report.checks)

    def test_cotangent_takes_only_a_bivector(self):
        # a constant structure enters as its Poisson bivector over a cover
        for value in (STD, STD.materialize(SUPPORT), KVector.coordinate(0)):
            with pytest.raises(GradeError):
                cotangent_algebroid(value)


class TestCeDifferential:
    def test_degree_zero_is_anchor_application(self):
        s = Sampler(406)
        structure = tangent_algebroid()
        for _ in range(30):
            f = s.poly(SUPPORT, 3)
            x = s.vector_field(SUPPORT, 2)
            assert ce_differential(structure, f, [x]) == vector_apply(x, f)

    def test_degree_one_formula(self):
        # (d phi)(s1, s2) = a(s1) phi(s2) - a(s2) phi(s1) - phi([s1, s2])
        s = Sampler(407)
        structure = tangent_algebroid()
        a = s.kform(1, SUPPORT, 2)
        for _ in range(20):
            x = s.vector_field(SUPPORT, 2)
            y = s.vector_field(SUPPORT, 2)
            lhs = ce_differential(structure, a, [x, y])
            rhs = (
                vector_apply(x, a.evaluate(y))
                - vector_apply(y, a.evaluate(x))
                - a.evaluate(lie_bracket(x, y))
            )
            assert lhs == rhs

    def test_tangent_matches_de_rham(self):
        s = Sampler(408)
        structure = tangent_algebroid()
        for _ in range(40):
            k = s.rng.randint(0, 2)
            form = s.kform(k, SUPPORT, 2)
            fields = [s.vector_field(SUPPORT, 2) for _ in range(k + 1)]
            assert ce_differential(structure, form, fields) == de_rham(
                form
            ).evaluate(*fields)

    def test_cotangent_matches_contravariant(self):
        s = Sampler(409)
        structure = STD_COTANGENT
        for _ in range(40):
            k = s.rng.randint(0, 2)
            field = s.kvector(k, SUPPORT, 2)
            forms = [s.oneform(SUPPORT, 2) for _ in range(k + 1)]
            assert ce_differential(structure, field, forms) == (
                contravariant_differential(STD_PI, field).evaluate(*forms)
            )

    def test_square_zero_via_nested_closures(self):
        # evaluate d(d phi) without materializing d phi
        s = Sampler(410)
        structure = tangent_algebroid()
        for _ in range(15):
            k = s.rng.randint(0, 1)
            form = s.kform(k, SUPPORT, 2)

            def d_phi(*sections):
                return ce_differential(structure, form, list(sections))

            fields = [s.vector_field(SUPPORT, 2) for _ in range(k + 2)]
            value = ce_value(structure, k + 1, d_phi, fields)
            assert value.is_zero()

    def test_wrong_section_count(self):
        structure = tangent_algebroid()
        with pytest.raises(ArityError):
            ce_differential(structure, KForm.blade((0,)), [])

    def test_wrong_section_kind(self):
        structure = tangent_algebroid()
        with pytest.raises(Exception):
            ce_differential(structure, Poly.variable(0), [KForm.coordinate(0)])


def add_chain_ce_value(structure, k, value_fn, sections):
    """The Chevalley-Eilenberg formula as a chain of Poly additions, one
    term at a time."""
    total = Poly.zero()
    for i in range(k + 1):
        rest = sections[:i] + sections[i + 1 :]
        piece = vector_apply(structure.anchor(sections[i]), value_fn(*rest))
        total = total - piece if i & 1 else total + piece
    for i, j in combinations(range(k + 1), 2):
        bracketed = structure.bracket(sections[i], sections[j])
        rest = [bracketed] + [t for l, t in enumerate(sections) if l != i and l != j]
        value = value_fn(*rest)
        total = total - value if (i + j) & 1 else total + value
    return total


@st.composite
def ce_cases(draw):
    """(structure, k, cochain, k + 1 sections): the tangent structure, or the
    cotangent structure of any grade-2 KVector, since the formula needs no
    Jacobi identity; rational coefficients and zero values included."""
    k = draw(st.integers(min_value=0, max_value=2))
    if draw(st.booleans()):
        structure, section_cls, cochain_cls = tangent_algebroid(), KVector, KForm
    else:
        structure = cotangent_algebroid(draw(alternating(KVector, 2)))
        section_cls, cochain_cls = KForm, KVector
    cochain = draw(alternating(cochain_cls, k))
    sections = [draw(alternating(section_cls, 1)) for _ in range(k + 1)]
    return structure, k, cochain, sections


# (1/2 e0)(2 x0) is an integral Fraction until it is wrapped; on X = Y the
# two anchor terms of a 1-cochain cancel.
HALF_FIELD = KVector.blade((0,), Fraction(1, 2))
X0_FIELD = KVector.blade((0,), Poly.variable(0))


class TestCeValueAgainstAddChain:
    @given(ce_cases())
    @example((tangent_algebroid(), 0, KForm.from_poly(2 * Poly.variable(0)), [HALF_FIELD]))
    @example((tangent_algebroid(), 1, KForm.blade((0,), Poly.variable(0)), [X0_FIELD] * 2))
    @settings(deadline=None, max_examples=60)
    def test_cochains(self, case):
        structure, k, cochain, sections = case
        value = ce_value(structure, k, cochain.evaluate, sections)
        assert value == add_chain_ce_value(structure, k, cochain.evaluate, sections)
        assert is_canonical(value)

    @pytest.mark.parametrize("scalar", [3, Fraction(-1, 2)])
    def test_scalar_valued_evaluator(self, scalar):
        # A constant evaluator differentiates to zero; the bracket terms
        # keep it with their signs.
        structure = tangent_algebroid()
        fields = [KVector.coordinate(0), KVector.blade((1,), Poly.variable(0))]
        for k in (0, 1):
            value = ce_value(structure, k, lambda *_: scalar, fields[: k + 1])
            expected = add_chain_ce_value(structure, k, lambda *_: scalar, fields[: k + 1])
            assert value == expected == Poly.constant(-scalar if k else 0)
            assert is_canonical(value)


class TestContravariantDifferential:
    def test_on_functions_is_minus_hamiltonian(self):
        s = Sampler(411)
        for _ in range(30):
            f = s.poly(SUPPORT, 3)
            assert contravariant_differential(STD_PI, f) == -sharp_by_pi(STD, de_rham(f))

    def test_square_zero(self):
        s = Sampler(412)
        for _ in range(40):
            field = s.kvector(s.rng.randint(0, 2), SUPPORT, 2)
            assert contravariant_differential(
                STD_PI, contravariant_differential(STD_PI, field)
            ).is_zero()

    def test_wedge_antiderivation(self):
        s = Sampler(413)
        for _ in range(40):
            p = s.rng.randint(0, 2)
            a = s.kvector(p, SUPPORT, 2)
            b = s.kvector(s.rng.randint(0, 2), SUPPORT, 2)
            pieces = [
                wedge(contravariant_differential(STD_PI, a), b),
                wedge(a, contravariant_differential(STD_PI, b)) * sgn(p),
                -contravariant_differential(STD_PI, wedge(a, b)),
            ]
            assert graded_zero_sum(pieces)

    def test_bracket_compatibility(self):
        # sigma[P, Q] = -[sigma P, Q] - (-1)^p [P, sigma Q]
        s = Sampler(414)
        for _ in range(40):
            p = s.rng.randint(0, 2)
            a = s.kvector(p, SUPPORT, 2)
            b = s.kvector(s.rng.randint(0, 2), SUPPORT, 2)
            pieces = [
                contravariant_differential(STD_PI, schouten_bracket(a, b)),
                schouten_bracket(contravariant_differential(STD_PI, a), b),
                schouten_bracket(a, contravariant_differential(STD_PI, b)) * sgn(p),
            ]
            assert graded_zero_sum(pieces)

    def test_poisson_compatibility(self):
        # sigma f, evaluated on dg, is -{f, g}
        s = Sampler(415)
        for _ in range(30):
            f = s.poly(SUPPORT, 2)
            g = s.poly(SUPPORT, 2)
            value = contravariant_differential(STD_PI, f).evaluate(de_rham(g))
            assert value == -poisson_bracket(STD_PI, f, g)

    def test_degenerate_block_vanishes_off_the_block(self):
        w = ConstantSymplectic.explicit((0, 1), [[0, 1], [-1, 0]])
        pi = w.bivector((0, 1, 2))
        f = Poly.variable(2)  # off-block: sigma f = 0
        assert contravariant_differential(pi, f).is_zero()
        g = Poly.variable(0)
        assert contravariant_differential(pi, g) == -sharp_by_pi(w, de_rham(g))
        anchor = cotangent_algebroid(pi).anchor
        assert contravariant_differential(pi, g) == -anchor(de_rham(g))


def reference_contravariant_differential(w, field):
    """The contravariant differential by target enumeration: collect every
    blade J that some term can reach, then sum over the positions of J the
    sharp of that index applied to the coefficient of J minus the index."""
    candidates = set()
    for blade, coeff in field.terms.items():
        partners = set()
        for var in coeff.variables():
            if w.kind == "standard":
                partners.add(var ^ 1)
            elif var in w.block:
                a = w.block.index(var)
                for b in range(len(w.block)):
                    if w.inverse[a][b]:
                        partners.add(w.block[b])
        for j in partners:
            if j not in blade:
                pos = sum(1 for value in blade if value < j)
                candidates.add(blade[:pos] + (j,) + blade[pos:])

    out = {}
    for target in sorted(candidates):
        total = Poly.zero()
        for pos, j in enumerate(target):
            coeff = field.terms.get(target[:pos] + target[pos + 1 :])
            components = reference_sharp_components(w, j)
            if coeff is None or not components:
                continue
            piece = Poly.zero()
            for index, scale in components:
                piece = piece + coeff.partial(index) * scale
            total = total - piece if pos & 1 else total + piece
        if not total.is_zero():
            out[target] = total
    return KVector(field.grade + 1, out)


class TestContravariantAgainstReference:
    @given(
        constant_structures(),
        st.integers(min_value=0, max_value=3).flatmap(lambda g: alternating(KVector, g)),
    )
    @settings(deadline=None)
    def test_matches_target_enumeration(self, w, field):
        # pi over the closure of the coefficients' variables, as small as a
        # cover can be, and over every index the field can carry.
        variables = set().union(*(coeff.variables() for coeff in field.terms.values()))
        expected = reference_contravariant_differential(w, field)
        for cover in (variables, INDICES):
            assert contravariant_differential(w.bivector(cover), field) == expected
