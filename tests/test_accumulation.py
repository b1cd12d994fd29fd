"""Accumulating brackets and the axiom checkers built on them.

Oracles:

* each accumulating body (``_lie``, ``_koszul``, ``_dorfman``,
  ``_courant``) against its wrapped bracket: adding sign * [a, b] into sums
  that already hold a value must wrap to that value plus sign * [a, b];
* ``_apply`` over Q against the products X^i del_i f summed one at a time
  with ``Poly`` arithmetic;
* ``check_algebroid_axioms`` and ``check_courant_axioms`` against the
  composed checkers below, which build every defect from wrapped brackets
  by subtraction: every check's verdict and witness string must agree.
"""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algebroid import courant
from algebroid.algebroids import (
    AlgebroidStructure,
    AxiomCheck,
    AxiomReport,
    _koszul,
    check_algebroid_axioms,
    cotangent_algebroid,
    tangent_algebroid,
)
from algebroid.courant import (
    GeneralizedSection,
    _courant,
    _dorfman,
    anchor,
    check_courant_axioms,
    courant_bracket,
    delta_operator,
    dorfman_bracket,
    tm_pairing,
)
from algebroid.errors import ResultTooLarge
from algebroid.exterior import (
    KForm,
    KVector,
    _all_vanish,
    _apply,
    _lie,
    interior_product,
    lie_bracket,
    vector_apply,
)
from algebroid.poly import GUARD, Poly, _poly
from algebroid.sampling import Sampler
from algebroid.symplectic import ConstantSymplectic

from conftest import INDICES, accumulating, alternating, is_canonical, polys
from test_algebroids import PLAIN, corrupt_bracket, field
from test_courant import PLAIN as COURANT_PLAIN
from test_courant import corrupt_dorfman, pairing_off_at_s2

STD = ConstantSymplectic.standard()
SUPPORT = (0, 1, 2, 3)
PI = STD.bivector(INDICES)


def pi_anchor(form):
    return interior_product(form, PI)


# -- the composed checkers: wrapped brackets, defects by subtraction ----------


def composed_first_witness(axiom, cases):
    for label, defect in cases:
        if not defect.is_zero():
            return AxiomCheck(axiom, False, f"{label}{defect}")
    return AxiomCheck(axiom, True)


def composed_algebroid_axioms(bracket, anchor, sections, functions):
    """The four algebroid axioms, each defect a difference of wrapped values."""
    s = list(sections)
    functions = [f if isinstance(f, Poly) else Poly.constant(f) for f in functions]
    n = len(s)
    B = [[bracket(a, b) for b in s] for a in s]
    A = [anchor(a) for a in s]
    F = [[vector_apply(x, f) for f in functions] for x in A]
    FS = [[f * section for section in s] for f in functions]
    antisymmetry = (
        (f"[s{i}, s{j}] + [s{j}, s{i}] = ", B[i][j] + B[j][i])
        for i in range(n)
        for j in range(i, n)
    )
    jacobi = (
        (
            f"jacobiator(s{i}, s{j}, s{k}) = ",
            bracket(s[i], B[j][k]) + bracket(s[j], B[k][i]) + bracket(s[k], B[i][j]),
        )
        for i, j, k in combinations(range(n), 3)
    )
    homomorphism = (
        (
            f"anchor([s{i}, s{j}]) - [anchor(s{i}), anchor(s{j})] = ",
            anchor(B[i][j]) - lie_bracket(A[i], A[j]),
        )
        for i, j in combinations(range(n), 2)
    )
    leibniz = (
        (
            f"[s{i}, f{fi} s{j}] - f{fi} [s{i}, s{j}] - anchor(s{i})(f{fi}) s{j} = ",
            bracket(s[i], FS[fi][j]) - (f * B[i][j] + F[i][fi] * s[j]),
        )
        for i in range(n)
        for j in range(n)
        for fi, f in enumerate(functions)
    )
    return AxiomReport.of(
        [
            composed_first_witness("antisymmetry", antisymmetry),
            composed_first_witness("jacobi", jacobi),
            composed_first_witness("anchor-homomorphism", homomorphism),
            composed_first_witness("leibniz", leibniz),
        ]
    )


def composed_courant_axioms(sections, functions, bracket, pairing=tm_pairing):
    """The Courant axioms, each defect a difference of wrapped values."""
    s = list(sections)
    functions = [f if isinstance(f, Poly) else Poly.constant(f) for f in functions]
    n = len(s)
    B = [[bracket(a, b) for b in s] for a in s]
    P = [[pairing(a, b) for b in s] for a in s]
    jacobi = (
        (
            f"leibniz-jacobi defect on (s{i}, s{j}, s{k}): ",
            bracket(s[i], B[j][k]) - bracket(B[i][j], s[k]) - bracket(s[j], B[i][k]),
        )
        for i, j, k in product(range(n), repeat=3)
    )
    invariance = (
        (
            f"pairing invariance fails on (s{i}, s{j}, s{k}): ",
            vector_apply(anchor(s[i]), P[j][k])
            - (pairing(B[i][j], s[k]) + pairing(s[j], B[i][k])),
        )
        for i, j, k in product(range(n), repeat=3)
    )
    symmetric = (
        (f"symmetric part defect on (s{i}, s{j}): ", B[i][j] + B[j][i] - delta_operator(P[i][j]))
        for i, j in product(range(n), repeat=2)
    )
    delta = (
        (
            f"pairing(delta(f{fi}), s{i}) - anchor(s{i})(f{fi}) = ",
            pairing(delta_operator(f), s[i]) - vector_apply(anchor(s[i]), f),
        )
        for fi, f in enumerate(functions)
        for i in range(n)
    )
    return AxiomReport.of(
        [
            composed_first_witness("bracket-jacobi", jacobi),
            composed_first_witness("pairing-invariance", invariance),
            composed_first_witness("symmetric-part", symmetric),
            composed_first_witness("delta-defining", delta),
        ]
    )


def verdicts(report):
    return [(c.axiom, c.passed, c.witness) for c in report.checks]


# -- the accumulating bodies ----------------------------------------------------

one_forms = alternating(KForm, 1)
fields = alternating(KVector, 1)
sections = st.builds(GeneralizedSection, fields, one_forms)
signs = st.sampled_from((1, -1))


def koszul_bracket(a, b):
    return cotangent_algebroid(PI).bracket(a, b)


# (body, wrapped bracket, strategy of its sections, its sums)
BODIES = {
    "lie": (_lie, lie_bracket, fields, dict),
    "koszul": (lambda out, a, b, sign=1: _koszul(pi_anchor, out, a, b, sign), koszul_bracket,
               one_forms, dict),
    "dorfman": (_dorfman, dorfman_bracket, sections, lambda: ({}, {})),
    "courant": (_courant, courant_bracket, sections, lambda: ({}, {})),
}


class TestAccumulatingBodies:
    @pytest.mark.parametrize("name", sorted(BODIES))
    @settings(deadline=None, max_examples=40)
    @given(data=st.data(), sign=signs, preload=st.booleans())
    def test_adds_sign_times_the_bracket(self, name, data, sign, preload):
        body, bracket, drawn, sums = BODIES[name]
        a, b, c = data.draw(drawn), data.draw(drawn), data.draw(drawn)
        out = sums()
        kind = type(a)
        start = kind._of_sums(sums())  # zero
        if preload:  # sums already holding c, with Fraction coefficients
            c._add_into(out, Poly.constant(Fraction(1, 3)).terms)
            start = c * Fraction(1, 3)
        body(out, a, b, sign)
        value = kind._of_sums(out)
        expected = start + bracket(a, b) if sign > 0 else start - bracket(a, b)
        assert value == expected
        parts = (value.vector, value.form) if kind is GeneralizedSection else (value,)
        assert all(is_canonical(part) for part in parts)

    @pytest.mark.parametrize("name", sorted(BODIES))
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_a_bracket_and_its_negative_cancel_exactly(self, name, data):
        body, _, drawn, sums = BODIES[name]
        a, b = data.draw(drawn), data.draw(drawn)
        out = sums()
        body(out, a, b)
        body(out, a, b, -1)
        assert _all_vanish(out)
        assert type(a)._of_sums(out) == type(a)._of_sums(sums())

    @pytest.mark.parametrize("name", ["lie", "courant"])
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_antisymmetric_brackets_cancel_in_one_sum(self, name, data):
        body, _, drawn, sums = BODIES[name]
        a, b = data.draw(drawn), data.draw(drawn)
        out = sums()
        body(out, a, b)
        body(out, b, a)
        assert _all_vanish(out)

    def test_the_zero_test_reads_every_key(self):
        # a product past MAX_EXPONENT whose sum cancels still raises, in any
        # blade and in either part of a pair, after a nonzero part
        past = 1 << 15  # x0^32768: the guard bit of variable 0's field
        assert past & GUARD
        with pytest.raises(ResultTooLarge):
            _all_vanish({(0,): {0: 1}, (1,): {past: 0}})
        with pytest.raises(ResultTooLarge):
            _all_vanish(({(0,): {0: 1}}, {(1,): {past: 0}}))
        assert not _all_vanish(({(0,): {0: 1}}, {}))
        assert _all_vanish(({(0,): {0: Fraction(0)}}, {(1,): {}}))


class TestApplyOverQ:
    @settings(deadline=None, max_examples=80)
    @given(fields, polys, signs, polys)
    @example(
        KVector(1, {(0,): Fraction(1, 2), (1,): Poly({((0, 1),): Fraction(2, 3)})}),
        Poly({((0, 2),): Fraction(3, 4), ((1, 1),): Fraction(1, 6)}),
        -1,
        Poly({((0, 1),): Fraction(-1, 3)}),
    )
    def test_matches_the_products_summed_one_at_a_time(self, x, f, sign, start):
        expected = start
        for (index,), component in x.terms.items():
            term = component * f.partial(index)
            expected = expected + term if sign > 0 else expected - term
        out = dict(start.terms)
        _apply(out, x, f.terms, sign)
        value = _poly(out)
        assert value == expected
        assert is_canonical(value)
        assert vector_apply(x, f) == sum(
            (c * f.partial(i) for (i,), c in x.terms.items()), Poly.zero()
        )


# -- the checkers against the composed ones -------------------------------------


def sampled(seed, kind, count, degree=2, support=SUPPORT):
    s = Sampler(seed)
    draw = {"vector": s.vector_field, "form": s.oneform, "section": s.section}[kind]
    sections = [draw(support, degree) for _ in range(count)]
    functions = [s.nonzero_poly(support, degree) for _ in range(3)]
    return sections, functions


NOT_POISSON = KVector.blade((0, 1), Poly.variable(2)) + KVector.blade((2, 3))


class TestAlgebroidCheckerAgainstComposed:
    @pytest.mark.parametrize("seed", [601, 602])
    def test_tangent(self, seed):
        structure = tangent_algebroid()
        sections, functions = sampled(seed, "vector", 5)
        report = check_algebroid_axioms(structure, sections, functions)
        assert report.passed
        assert report == composed_algebroid_axioms(lie_bracket, structure.anchor, sections, functions)

    @pytest.mark.parametrize("pi", [STD.bivector(SUPPORT), NOT_POISSON], ids=["poisson", "not"])
    def test_cotangent(self, pi):
        structure = cotangent_algebroid(pi)
        sections, functions = sampled(603, "form", 5)
        report = check_algebroid_axioms(structure, sections, functions)
        assert report.passed == (pi is not NOT_POISSON)
        composed = composed_algebroid_axioms(structure.bracket, structure.anchor, sections, functions)
        assert verdicts(report) == verdicts(composed)

    @pytest.mark.parametrize("form", [STD.materialize(SUPPORT), KForm.blade((1, 2), Poly.variable(0))],
                             ids=["closed", "not-closed"])
    def test_dirac(self, form):
        fields_, functions = sampled(604, "vector", 4)
        graphs = [GeneralizedSection(x, interior_product(x, form)) for x in fields_]
        report = check_algebroid_axioms(courant._DIRAC, graphs, functions)
        composed = composed_algebroid_axioms(courant_bracket, anchor, graphs, functions)
        assert verdicts(report) == verdicts(composed)

    @pytest.mark.parametrize(
        "bracket, anchor_",
        [
            (corrupt_bracket(PLAIN[2], PLAIN[1], field(3)), None),
            (corrupt_bracket(PLAIN[2], PLAIN[3], field(0)), None),
            (corrupt_bracket(PLAIN[3], PLAIN[2], field(1, Fraction(1, 2))), None),
            (lie_bracket, lambda s: s + field(0, Poly.variable(1)) if s is PLAIN[2] else s),
        ],
    )
    def test_corrupted_late(self, bracket, anchor_):
        anchor_ = anchor_ or (lambda s: s)
        structure = AlgebroidStructure("corrupted", "vector", anchor_, accumulating(bracket))
        functions = [0, Poly.variable(0)]
        report = check_algebroid_axioms(structure, PLAIN, functions)
        assert not report.passed
        assert verdicts(report) == verdicts(
            composed_algebroid_axioms(bracket, anchor_, PLAIN, functions)
        )


class TestCourantCheckerAgainstComposed:
    @pytest.mark.parametrize(
        "body, bracket", [(_dorfman, dorfman_bracket), (_courant, courant_bracket)],
        ids=["dorfman", "courant"],
    )
    def test_sampled(self, body, bracket):
        sections, functions = sampled(605, "section", 4)
        report = check_courant_axioms(sections, functions, bracket=body)
        assert report.passed == (body is _dorfman)
        assert verdicts(report) == verdicts(composed_courant_axioms(sections, functions, bracket))

    @pytest.mark.parametrize(
        "term, pairing",
        [
            (GeneralizedSection(KVector.coordinate(2), KForm.zero(1)), tm_pairing),
            (GeneralizedSection(KVector.zero(1), KForm.blade((2,), Poly.variable(0))), tm_pairing),
            (GeneralizedSection(KVector.coordinate(3), KForm.zero(1)), tm_pairing),
            (GeneralizedSection(KVector.zero(1), KForm.blade((0,), Fraction(1, 2))), tm_pairing),
            (GeneralizedSection.zero(), pairing_off_at_s2),
        ],
    )
    def test_corrupted_late(self, term, pairing):
        bracket = corrupt_dorfman(term)
        functions = [0, Poly.variable(0)]
        report = check_courant_axioms(
            COURANT_PLAIN, functions, bracket=accumulating(bracket), pairing=pairing
        )
        assert not report.passed
        composed = composed_courant_axioms(COURANT_PLAIN, functions, bracket, pairing)
        assert verdicts(report) == verdicts(composed)
