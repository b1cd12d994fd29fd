"""The term-table kernels against the composed operations they replaced.

References, kept here as they read before the kernels took term tables:

* ``cartan_koszul``: {a, b} = i_{xa} db - i_{xb} da - d(a(xb)), with d of
  both forms, is the reference for the coordinate ``_koszul``;
* ``mac_contract``, ``mac_lie`` and ``mac_apply``: one ``_mac`` call per
  pair of blades, or per component;
* ``stepwise_evaluate``: one wrapped ``interior_product`` per argument.

Every kernel must add ``sign`` times its reference into sums that are empty
or already hold a value with ``Fraction`` coefficients, over int and
``Fraction`` values, and a kernel and its negative must cancel exactly.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algebroid.algebroids import (
    _koszul,
    ce_differential,
    ce_value,
    cotangent_algebroid,
    tangent_algebroid,
)
from algebroid.errors import ResultTooLarge
from algebroid.exterior import (
    KForm,
    KVector,
    _all_vanish,
    _differentiate,
    _lie,
    _wrap,
    de_rham,
    interior_product,
)
from algebroid.poly import GUARD, Poly, _denominator, _derivative, _mac, _poly, _unscale
from algebroid.terms import _Table, _apply, _contract, _table

from conftest import INDICES, alternating, constant_structures, is_canonical, polys

signs = st.sampled_from((1, -1))
fields = alternating(KVector, 1)
one_forms = alternating(KForm, 1)


# -- the references -------------------------------------------------------------


def mac_contract(out, contractor, target, sign=1):
    for (index,), component in contractor.terms.items():
        for blade, coeff in target.terms.items():
            if index in blade:
                pos = blade.index(index)
                sums = out.setdefault(blade[:pos] + blade[pos + 1 :], {})
                _mac(sums, component.terms, coeff.terms, -sign if pos & 1 else sign)


def mac_lie(out, left, right, sign=1):
    for (j,), xj in left.terms.items():
        for (i,), yi in right.terms.items():
            _mac(out.setdefault((i,), {}), xj.terms, _derivative(yi.terms, j), sign)
            _mac(out.setdefault((j,), {}), yi.terms, _derivative(xj.terms, i), -sign)


def mac_apply(out, field, f, sign=1):
    components = [(index, c.terms) for (index,), c in field.terms.items()]
    da = lcm(*[_denominator(terms) for _, terms in components])
    db = _denominator(f)
    acc = {}
    f = {m: c * db for m, c in f.items()}
    for index, terms in components:
        _mac(acc, {m: c * da for m, c in terms.items()}, _derivative(f, index), sign)
    _unscale(out, acc, da * db)


def cartan_koszul(anchor, out, a, b, sign=1):
    xa, xb = anchor(a), anchor(b)
    mac_contract(out, xa, de_rham(b), sign)
    mac_contract(out, xb, de_rham(a), -sign)
    value = {}
    mac_contract(value, xb, a)
    _differentiate(out, value.get((), {}), -sign)


def stepwise_evaluate(value, *duals):
    for dual in duals:
        value = interior_product(dual, value)
    return value.as_poly()


# -- anchors for the Koszul bracket ------------------------------------------------


@st.composite
def anchors(draw):
    """The anchor of a constant structure's pi over ``INDICES``, zero on
    every index off an explicit block, or a linear map a -> sum_i a_i X_i
    with polynomial fields X_i, which no antisymmetry constrains."""
    if draw(st.booleans()):
        pi = draw(constant_structures()).bivector(INDICES)
        return lambda form: interior_product(form, pi)
    images = {i: draw(fields) for i in INDICES}

    def anchor(form):
        out = {}
        for (i,), coeff in form.terms.items():
            images[i]._add_into(out, coeff.terms)
        return KVector._of_sums(out)

    return anchor


def preloaded(preload):
    """Blade sums that are empty, or already hold a 1-form's terms with
    ``Fraction`` and int sums."""
    if not preload:
        return {}
    return {(0,): {1 << 16: Fraction(1, 6)}, (2,): {0: 1}}


def formula_koszul(anchor, a, b):
    """{a, b}_i = sum_j xa^j del_j b_i - xa^j del_i b_j - xb^j del_j a_i
    - a_j del_i xb^j, summed with ``Poly`` arithmetic."""
    xa, xb = anchor(a), anchor(b)
    indices = sorted(
        a.support() | b.support() | xa.support() | xb.support() | {i for (i,) in xa.terms}
        | {i for (i,) in xb.terms}
    )

    def c(value, i):
        return value.coefficient((i,))

    terms = {}
    for i in indices:
        total = Poly.zero()
        for j in indices:
            total = total + c(xa, j) * c(b, i).partial(j) - c(xa, j) * c(b, j).partial(i)
            total = total - c(xb, j) * c(a, i).partial(j) - c(a, j) * c(xb, j).partial(i)
        terms[(i,)] = total
    return KForm(1, terms)


# In the Cartan form {BIG_A, BIG_B} builds x0^32768 in its cancelling pair
# (del_1 a_0) xb^0, and raises; in coordinates every key stays in its field.
BIG_A = KForm.blade((0,), Poly({((0, 16384), (1, 1)): 1}))
BIG_B = KForm.blade((1,), Poly({((0, 16384),): 1}))


class TestKoszul:
    @settings(deadline=None, max_examples=60)
    @given(anchors(), one_forms, one_forms, signs, st.booleans())
    def test_adds_sign_times_the_cartan_form(self, anchor, a, b, sign, preload):
        out, expected = preloaded(preload), preloaded(preload)
        _koszul(anchor, out, a, b, sign)
        cartan_koszul(anchor, expected, a, b, sign)
        value = KForm._of_sums(out)
        assert value == KForm._of_sums(expected)
        assert is_canonical(value)

    @settings(deadline=None, max_examples=20)
    @given(anchors(), one_forms, one_forms)
    def test_matches_the_formula_in_polys(self, anchor, a, b):
        out = {}
        _koszul(anchor, out, a, b)
        assert KForm._of_sums(out) == formula_koszul(anchor, a, b)

    @settings(deadline=None, max_examples=40)
    @given(anchors(), one_forms, one_forms)
    def test_a_bracket_and_its_negative_cancel_exactly(self, anchor, a, b):
        out = {}
        _koszul(anchor, out, a, b)
        _koszul(anchor, out, a, b, -1)
        assert _all_vanish(out)

    def test_a_cancelling_pair_past_the_field_is_never_built(self):
        pi = KVector.blade((0, 1))

        def anchor(form):
            return interior_product(form, pi)

        cartan = {}
        cartan_koszul(anchor, cartan, BIG_A, BIG_B)
        with pytest.raises(ResultTooLarge):
            _wrap(cartan)
        out = {}
        _koszul(anchor, out, BIG_A, BIG_B)
        value = KForm._of_sums(out)
        assert value == formula_koszul(anchor, BIG_A, BIG_B)
        assert value == KForm.blade((0,), Poly({((0, 32767), (1, 1)): 16384}))


class TestContract:
    @settings(deadline=None, max_examples=60)
    @given(st.data(), st.sampled_from((KVector, KForm)), st.integers(1, 3), signs, st.booleans())
    def test_adds_sign_times_the_blade_pair_products(self, data, kind, grade, sign, preload):
        dual = KForm if kind is KVector else KVector
        contractor = data.draw(alternating(dual, 1))
        target = data.draw(alternating(kind, grade))
        out, expected = preloaded(preload), preloaded(preload)
        _contract(out, contractor, target, sign)
        mac_contract(expected, contractor, target, sign)
        assert _wrap(out) == _wrap(expected)
        assert is_canonical(kind._raw(grade, _wrap(out)))

    @settings(deadline=None, max_examples=40)
    @given(fields, st.integers(1, 3), st.data())
    def test_a_raw_target_reads_as_its_wrapped_value(self, contractor, grade, data):
        # raw sums: integral Fractions, and a zero sum on x1
        target = data.draw(alternating(KForm, grade))
        raw = {}
        for blade, coeff in target.terms.items():
            raw[blade] = {mono: Fraction(c) for mono, c in coeff.terms.items()}
            raw[blade].setdefault(1 << 16, 0)
        out, expected = {}, {}
        _contract(out, contractor, _Table(raw.items()))
        _contract(expected, contractor, target)
        assert _wrap(out) == _wrap(expected)

    def test_a_raw_key_past_the_field_raises_even_when_its_sum_is_zero(self):
        past = 1 << 15  # x0^32768
        assert past & GUARD
        with pytest.raises(ResultTooLarge):
            _Table([((0,), {0: 1, past: 0})])


class TestLieAndApply:
    @settings(deadline=None, max_examples=60)
    @given(fields, fields, signs, st.booleans())
    def test_lie_adds_sign_times_the_component_products(self, x, y, sign, preload):
        out, expected = preloaded(preload), preloaded(preload)
        _lie(out, x, y, sign)
        mac_lie(expected, x, y, sign)
        assert KVector._of_sums(out) == KVector._of_sums(expected)

    @settings(deadline=None, max_examples=80)
    @given(fields, polys, signs, polys)
    @example(
        KVector(1, {(0,): Fraction(1, 2), (1,): Poly({((0, 1),): Fraction(2, 3)})}),
        Poly({((0, 2),): Fraction(3, 4), ((1, 1),): Fraction(1, 6)}),
        -1,
        Poly({((0, 1),): Fraction(-1, 3)}),
    )
    @example(KVector(1, {(5000,): 1, (1,): 2}), Poly({((1, 2),): 1}), 1, Poly.zero())
    def test_apply_adds_sign_times_the_component_products(self, x, f, sign, start):
        out = dict(start.terms)
        _apply(out, x, f.terms, sign)
        expected = dict(start.terms)
        mac_apply(expected, x, f.terms, sign)
        assert _poly(out) == _poly(expected)
        assert is_canonical(_poly(out))

    @settings(deadline=None, max_examples=40)
    @given(fields, polys)
    def test_apply_reads_raw_sums(self, x, f):
        raw = {mono: Fraction(c) for mono, c in f.terms.items()}
        raw[1] = 0  # a zero sum on x0
        out, expected = {}, {}
        _apply(out, x, raw)
        _apply(expected, x, f.terms)
        assert _poly(out) == _poly(expected)


class TestEvaluation:
    @settings(deadline=None, max_examples=60)
    @given(st.data(), st.sampled_from((KVector, KForm)), st.integers(0, 3))
    def test_evaluate_matches_the_stepwise_contraction(self, data, kind, grade):
        dual = KForm if kind is KVector else KVector
        value = data.draw(alternating(kind, grade)) if grade else kind.from_poly(data.draw(polys))
        duals = [data.draw(alternating(dual, 1)) for _ in range(grade)]
        result = value.evaluate(*duals)
        assert result == stepwise_evaluate(value, *duals)
        assert is_canonical(result)

    def test_evaluate_is_alternating_in_every_argument(self):
        # Random draws of grade 3 rarely evaluate to nonzero; here every
        # slot and every contraction after the first is read.
        value = KVector.blade((0, 1, 2), Poly({((3, 1),): 1, (): Fraction(1, 2)}))
        duals = [
            KForm(1, {(0,): 1, (3,): Poly.variable(1)}),
            KForm(1, {(1,): Fraction(2, 3), (2,): 1}),
            KForm(1, {(2,): 2, (0,): Poly.variable(3)}),
        ]
        result = value.evaluate(*duals)
        assert result == stepwise_evaluate(value, *duals)
        assert not result.is_zero()
        for i, j in ((0, 1), (0, 2), (1, 2)):
            swapped = list(duals)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert value.evaluate(*swapped) == -result

    @settings(deadline=None, max_examples=30)
    @given(st.data(), st.integers(0, 2))
    def test_ce_differential_matches_ce_value_on_evaluate(self, data, grade):
        structure = data.draw(st.sampled_from(
            [tangent_algebroid(), cotangent_algebroid(KVector.blade((0, 1), Poly.variable(2)))]
        ))
        kind = KForm if structure.section_kind == "vector" else KVector
        dual = KVector if kind is KForm else KForm
        cochain = data.draw(alternating(kind, grade)) if grade else kind.from_poly(data.draw(polys))
        sections = [data.draw(alternating(dual, 1)) for _ in range(grade + 1)]
        assert ce_differential(structure, cochain, sections) == ce_value(
            structure, grade, cochain.evaluate, sections
        )


class TestTables:
    def test_a_table_is_built_once_and_kept(self):
        value = KForm(1, {(0,): Poly({((1, 2),): Fraction(1, 2)}), (3,): Poly.constant(2)})
        table = _table(value)
        assert _table(value) is table
        assert table.den == 2
        assert {blade: list(pairs) for blade, pairs in table.blades.items()} == {
            (0,): [(2 << 16, 1)],
            (3,): [(0, 4)],
        }

    def test_a_raw_table_drops_zero_sums_and_normalises_fractions(self):
        table = _Table([((0,), {0: Fraction(4, 2), 1: 0}), ((1,), {0: 0})])
        assert table.den == 1
        assert {blade: list(pairs) for blade, pairs in table.blades.items()} == {(0,): [(0, 2)]}
