"""Sparse polynomial arithmetic: the int encoding of monomials, ring laws,
derivatives, exact division, orderings, and canonical rendering."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid import poly
from algebroid.errors import ResultTooLarge
from algebroid.poly import (
    MAX_EXPONENT,
    MAX_VARIABLES,
    Poly,
    decode,
    encode,
    monomial_degree,
    monomial_key,
    monomials_of_degree,
    render_fraction,
    render_poly,
)

coefficients = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=7),
)
monomials = st.dictionaries(
    st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=3), max_size=3
).map(lambda d: tuple(sorted(d.items())))
polys = st.dictionaries(monomials, coefficients, max_size=4).map(
    lambda terms: Poly({m: c for m, c in terms.items() if c})
)
wide_monomials = st.dictionaries(
    st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=4), max_size=4
).map(lambda d: tuple(sorted(d.items())))
wide_polys = st.dictionaries(wide_monomials, coefficients, max_size=7).map(
    lambda terms: Poly({m: c for m, c in terms.items() if c})
)
# Pairs over the whole range of variables and exponents a field holds.
far_monomials = st.dictionaries(
    st.integers(min_value=0, max_value=MAX_VARIABLES - 1),
    st.integers(min_value=1, max_value=MAX_EXPONENT),
    max_size=5,
).map(lambda d: tuple(sorted(d.items())))


def monomial_mul(a, b):
    """Merge two pair tuples, adding exponents of shared variables: the
    tuple product the int encoding replaced, kept as its reference."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va < vb:
            out.append(a[i])
            i += 1
        elif vb < va:
            out.append(b[j])
            j += 1
        else:
            out.append((va, ea + eb))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def packed(terms):
    """``{pairs: coefficient}`` with each monomial encoded."""
    return {encode(mono): coeff for mono, coeff in terms.items()}


def display_key(pairs):
    """The display order on pair tuples: total degree, then the tuple."""
    return (sum(e for _, e in pairs), pairs)


class TestMonomials:
    def test_product_is_an_int_sum(self):
        a, b = ((0, 1), (2, 3)), ((1, 2), (2, 1))
        assert monomial_mul(a, b) == ((0, 1), (1, 2), (2, 4))
        assert encode(a) + encode(b) == encode(((0, 1), (1, 2), (2, 4)))
        assert encode(()) == poly.CONSTANT_MONOMIAL == 0
        assert encode(((3, 2),)) == 2 << 48

    def test_div_inverse_of_mul(self):
        a = ((0, 2), (1, 1))
        b = ((1, 1), (4, 3))
        assert monomial_div(monomial_mul(a, b), b) == a

    def test_div_not_divisible(self):
        assert monomial_div(((0, 1),), ((1, 1),)) is None
        assert monomial_div(((0, 1),), ((0, 2),)) is None

    def test_degree(self):
        assert monomial_degree(encode(())) == 0
        assert monomial_degree(encode(((0, 2), (5, 3)))) == 5

    def test_key_orders_by_degree_first(self):
        low = encode(((7, 1),))
        high = encode(((0, 1), (1, 1)))
        assert monomial_key(low) < monomial_key(high)

    @pytest.mark.parametrize("support", [(), (2,), (0, 1), (1, 3, 4), (0, 7, 100, 4095)])
    @pytest.mark.parametrize("degree", [0, 1, 2, 4])
    def test_monomials_of_degree_are_every_pair_tuple_in_sorted_order(self, support, degree):
        # Every exponent vector over the support with entries summing to the
        # degree, as pair tuples in sorted order: the order the cohomology bases,
        # and so their kernel vectors, are built in.
        expected = sorted(
            tuple((v, e) for v, e in zip(support, exps) if e)
            for exps in product(range(degree + 1), repeat=len(support))
            if sum(exps) == degree
        )
        monos = monomials_of_degree(support, degree)
        assert [decode(m) for m in monos] == expected
        assert monos == [encode(pairs) for pairs in expected]


class TestEncoding:
    """A monomial is an int with the exponent of variable v in the 16-bit
    field at bit 16 v; pairs enter through ``encode`` and leave through
    ``decode``."""

    @given(far_monomials)
    def test_decode_inverts_encode(self, m):
        assert decode(encode(m)) == m

    @given(far_monomials, far_monomials)
    def test_an_int_sum_is_the_tuple_product(self, a, b):
        total = encode(a) + encode(b)
        expected = monomial_mul(a, b)
        assert decode(total) == expected
        if all(e <= MAX_EXPONENT for _, e in expected):
            assert total == encode(expected)
            assert not total & poly.GUARD
        else:
            assert total & poly.GUARD

    @given(far_monomials)
    def test_degree_is_the_sum_of_the_exponents(self, m):
        assert monomial_degree(encode(m)) == sum(e for _, e in m)

    def test_degree_of_every_field_full(self):
        full = encode(tuple((v, MAX_EXPONENT) for v in range(MAX_VARIABLES)))
        assert monomial_degree(full) == MAX_VARIABLES * MAX_EXPONENT
        assert full.bit_length() <= 16 * MAX_VARIABLES

    @given(st.dictionaries(far_monomials, coefficients, max_size=5))
    def test_derivative_matches_the_tuple_rule(self, terms):
        p = Poly({m: c for m, c in terms.items() if c})
        for index in {v for m in terms for v, _ in m} | {0, MAX_VARIABLES - 1}:
            expected = {}
            for mono, coeff in terms.items():
                exponents = dict(mono)
                if coeff and index in exponents:
                    exponents[index] -= 1
                    rest = tuple((v, e) for v, e in sorted(exponents.items()) if e)
                    expected[rest] = coeff * dict(mono)[index]
            assert poly._derivative(p.terms, index) == packed(expected)
            assert p.partial(index) == Poly(expected)

    @given(st.dictionaries(far_monomials, coefficients, max_size=6))
    def test_sorted_terms_follow_the_display_order_of_pairs(self, terms):
        p = Poly({m: c for m, c in terms.items() if c})
        got = [decode(mono) for mono, _ in p.sorted_terms()]
        assert got == sorted(got, key=display_key)
        assert [monomial_key(mono) for mono, _ in p.sorted_terms()] == [
            display_key(pairs) for pairs in got
        ]

    @given(st.dictionaries(far_monomials, coefficients, max_size=5))
    def test_variables_and_largest_exponent(self, terms):
        p = Poly({m: c for m, c in terms.items() if c})
        pairs = [pair for mono in p.terms for pair in decode(mono)]
        assert p.variables() == {v for v, _ in pairs}
        assert p.max_exponent() == max((e for _, e in pairs), default=0)
        assert p.total_degree() == max((monomial_degree(m) for m in p.terms), default=0)

    def test_the_guard_trips_at_exactly_two_to_the_fifteen(self):
        assert MAX_EXPONENT == 2**15 - 1
        x1 = Poly.variable(1)
        top = Poly.variable(1, MAX_EXPONENT)
        assert x1 ** (2**14 - 1) * x1 ** (2**14) == top
        assert top.coefficient(((1, MAX_EXPONENT),)) == 1
        with pytest.raises(ResultTooLarge):
            top * x1
        with pytest.raises(ResultTooLarge):
            x1 ** (2**14) * x1 ** (2**14)
        with pytest.raises(ResultTooLarge):
            x1 ** (2**15)
        with pytest.raises(ResultTooLarge):
            Poly.variable(1, 2**15)
        with pytest.raises(ResultTooLarge):
            encode(((1, 2**15),))
        # the guard of x1 trips; nothing carries into x2
        with pytest.raises(ResultTooLarge):
            (top + Poly.variable(2)) * (x1 + 1)
        # a product that cancels still made an exponent past the field
        out = {}
        poly._mac(out, top.terms, x1.terms)
        poly._mac(out, top.terms, x1.terms, -1)
        with pytest.raises(ResultTooLarge):
            poly._poly(out)

    def test_an_unpacked_minor_past_the_field_raises(self):
        big = Poly.variable(0, 2**14)
        packing = poly._Packing((big,), 2**16)
        square = packing.pack(big) * packing.pack(big)
        with pytest.raises(ResultTooLarge):
            packing.unpack(square.terms)

    def test_indices_at_or_past_the_variables(self):
        last = Poly.variable(MAX_VARIABLES - 1)
        assert last.variables() == {MAX_VARIABLES - 1}
        assert last.partial(MAX_VARIABLES - 1) == 1
        for index in (MAX_VARIABLES, 10**12, -1):
            with pytest.raises(ValueError):
                Poly.variable(index)
            assert last.partial(index).is_zero()
        with pytest.raises(ValueError):
            encode(((MAX_VARIABLES, 1),))

    def test_malformed_monomials_are_rejected(self):
        for pairs in (((1, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 0),), ((-1, 1),)):
            with pytest.raises(ValueError):
                Poly({pairs: 1})
        for key in (-1, 1 << 15, 1 << (16 * MAX_VARIABLES)):
            with pytest.raises(ValueError):
                Poly({key: 1})
            with pytest.raises(ValueError):
                Poly.one().coefficient(key)
        with pytest.raises(ValueError):
            Poly({(): 1, 0: 2})

    def test_int_and_pair_keys_name_the_same_monomial(self):
        p = Poly({((0, 2), (3, 1)): 5})
        key = encode(((0, 2), (3, 1)))
        assert p == Poly({key: 5})
        assert p.terms == {key: 5}
        assert p.coefficient(key) == p.coefficient(((0, 2), (3, 1))) == 5


class TestRingLaws:
    @given(polys, polys)
    @settings(deadline=None)
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(polys, polys)
    @settings(deadline=None)
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @given(polys, polys, polys)
    @settings(deadline=None)
    def test_multiplication_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polys, polys, polys)
    @settings(deadline=None)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys)
    @settings(deadline=None)
    def test_additive_inverse(self, p):
        assert (p - p).is_zero()
        assert (p + (-p)).is_zero()

    @given(polys)
    @settings(deadline=None)
    def test_units(self, p):
        assert p + Poly.zero() == p
        assert p * Poly.one() == p
        assert (p * Poly.zero()).is_zero()

    @given(polys)
    @settings(deadline=None)
    def test_power_matches_repeated_product(self, p):
        expected = Poly.one()
        for exponent in range(10):
            assert p**exponent == expected
            expected = expected * p

    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        # p**8 is one product into the unit and three squarings; a fourth
        # squaring would compute p**16 and throw it away.
        calls = []
        multiply = Poly.__mul__

        def counting(a, b):
            calls.append(None)
            return multiply(a, b)

        monkeypatch.setattr(Poly, "__mul__", counting)
        p = Poly.variable(0) + Poly.variable(1) + 1
        power = p**8
        assert len(calls) == 4
        monkeypatch.undo()
        expected = Poly.one()
        for _ in range(8):
            expected = expected * p
        assert power == expected


class TestDerivatives:
    @given(polys, polys)
    @settings(deadline=None)
    def test_leibniz(self, p, q):
        for var in range(3):
            assert (p * q).partial(var) == p.partial(var) * q + p * q.partial(var)

    @given(polys)
    @settings(deadline=None)
    def test_partials_commute(self, p):
        assert p.partial(0).partial(1) == p.partial(1).partial(0)

    def test_partial_example(self):
        # d/dx0 (x0^2 x1 + 3 x0) = 2 x0 x1 + 3
        p = Poly.variable(0) ** 2 * Poly.variable(1) + Poly.variable(0) * 3
        assert p.partial(0) == Poly.variable(0) * Poly.variable(1) * 2 + Poly.constant(3)

    def test_partial_of_constant(self):
        assert Poly.constant(5).partial(0).is_zero()


class TestScalarInterop:
    def test_int_and_fraction_coercion(self):
        x = Poly.variable(0)
        assert x + 1 == Poly.variable(0) + Poly.one()
        assert 2 * x == x + x
        assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
        assert Poly.constant(3) == 3
        assert Poly.constant(Fraction(1, 3)) == Fraction(1, 3)

    def test_equality_rejects_mismatched_scalar(self):
        assert Poly.variable(0) != 0
        assert not Poly.zero() != 0


def assert_canonical(p):
    """Every stored coefficient is a nonzero int, or a Fraction that is not one."""
    for coeff in p.terms.values():
        assert coeff
        if type(coeff) is not int:  # a bool fails here too
            assert type(coeff) is Fraction and coeff.denominator > 1, repr(coeff)


scalars = st.one_of(st.integers(min_value=-5, max_value=5), coefficients)


class TestCanonicalCoefficients:
    @given(polys, polys, scalars, st.integers(min_value=0, max_value=3))
    @settings(deadline=None)
    def test_every_operation_stores_the_canonical_form(self, p, q, c, e):
        results = [p, p + q, p - q, p * q, -p, p * c, c * p, p + c, c - p, p**e]
        results += [p.partial(var) for var in range(3)]
        if q:
            results.append((p * q).exact_div(q))
        for result in results:
            assert_canonical(result)

    def test_integral_fractions_are_stored_as_ints(self):
        x = Poly.variable(0)
        half = x * Fraction(1, 2)
        cases = [
            half * 2,
            half + half,
            (half * x).partial(0),
            (x * 2).exact_div(Poly.constant(2)),
            Poly({((0, 1),): Fraction(4, 2)}),
            Poly.constant(True),
        ]
        for p in cases:
            assert [type(c) for c in p.terms.values()] == [int]
        assert (half * 2).terms == packed({((0, 1),): 1})

    def test_exact_div_by_an_int_constant_gives_fractions_not_floats(self):
        x = Poly.variable(0)
        quotient = (3 * x + 1).exact_div(Poly.constant(2))
        assert quotient.terms == packed({((0, 1),): Fraction(3, 2), (): Fraction(1, 2)})
        assert {type(c) for c in quotient.terms.values()} == {Fraction}

    def test_accessors_return_fractions(self):
        p = Poly.variable(0) * 3 + 5
        assert type(p.coefficient(((0, 1),))) is Fraction
        assert type(p.coefficient(((1, 1),))) is Fraction
        assert type(p.constant_term()) is Fraction
        assert type(Poly.zero().constant_term()) is Fraction
        assert p.coefficient(((0, 1),)) == 3 and p.constant_term() == 5

    @given(polys)
    def test_denominator_is_the_least_integer_scale(self, p):
        d = p.denominator()
        assert {type(c) for c in (p * d).terms.values()} <= {int}
        for smaller in range(1, d):
            assert Fraction in {type(c) for c in (p * smaller).terms.values()}

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            Poly.constant(0.5)
        with pytest.raises(TypeError):
            Poly.variable(0) + 0.5


def reference_product(p, q):
    """p * q summed term by term in ``Fraction`` arithmetic, zeros dropped."""
    out = {}
    for ma, ca in p.terms.items():
        for mb, cb in q.terms.items():
            exponents = dict(decode(ma))
            for var, exp in decode(mb):
                exponents[var] = exponents.get(var, 0) + exp
            mono = tuple(sorted(exponents.items()))
            out[mono] = out.get(mono, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return packed({m: c for m, c in out.items() if c})


class TestIntegerScaledProduct:
    """The product kernel takes rational operands over Z, scaled by the lcm
    of their denominators, and divides each output term back once."""

    @given(wide_polys, wide_polys)
    @settings(deadline=None)
    def test_product_matches_a_term_by_term_fraction_product(self, p, q):
        product = p * q
        assert_canonical(product)
        assert product.terms == reference_product(p, q)

    def test_a_sum_of_rational_products_that_cancels_to_an_int(self):
        # (x0/3 + 1/2) * (3*x0 - 3/2) = x0^2 + x0 - 3/4
        x0 = Poly.variable(0)
        product = (x0 * Fraction(1, 3) + Fraction(1, 2)) * (x0 * 3 - Fraction(3, 2))
        assert product.terms == packed({((0, 2),): 1, ((0, 1),): 1, (): Fraction(-3, 4)})
        assert type(product.terms[encode(((0, 2),))]) is int
        assert type(product.terms[encode(((0, 1),))]) is int

    def test_a_monomial_that_cancels_is_removed(self):
        # (x0/2 + 1/3) * (x0/2 - 1/3) = x0^2/4 - 1/9: the x0 terms cancel.
        x0 = Poly.variable(0)
        product = (x0 * Fraction(1, 2) + Fraction(1, 3)) * (x0 * Fraction(1, 2) - Fraction(1, 3))
        assert product.terms == packed({((0, 2),): Fraction(1, 4), (): Fraction(-1, 9)})
        assert encode(((0, 1),)) not in product.terms
        # (2/3*x0 + 1) * (3/2*x0 - 9/4) = x0^2 - 9/4: an int and a removed term.
        product = (x0 * Fraction(2, 3) + 1) * (x0 * Fraction(3, 2) - Fraction(9, 4))
        assert product.terms == packed({((0, 2),): 1, (): Fraction(-9, 4)})
        assert type(product.terms[encode(((0, 2),))]) is int

    def test_accumulated_products_wrap_to_canonical_terms(self):
        # 1/2 * x0 * (x0 + 1) + 1/2 * x0 * (x0 - 1) = x0^2: two rational
        # products in one accumulator, one int term after wrapping.
        x0 = Poly.variable(0)
        out = {}
        poly._mac(out, (x0 * Fraction(1, 2)).terms, (x0 + 1).terms)
        poly._mac(out, (x0 * Fraction(1, 2)).terms, (x0 - 1).terms)
        assert poly._poly(out).terms == packed({((0, 2),): 1})
        out = {}
        poly._mac(out, (x0 * Fraction(1, 3)).terms, (x0 * 3).terms, -1)
        poly._mac(out, x0.terms, x0.terms)
        assert poly._poly(out).is_zero()


class TestExactDivision:
    @given(polys, polys)
    @settings(deadline=None)
    def test_product_divides_exactly(self, p, q):
        if q.is_zero():
            return
        assert (p * q).exact_div(q) == p

    @given(polys, polys)
    @settings(deadline=None)
    def test_floordiv_is_exact_div(self, p, q):
        if q.is_zero():
            return
        assert (p * q) // q == (p * q).exact_div(q) == p

    def test_non_divisible_raises(self):
        x0, x1 = Poly.variable(0), Poly.variable(1)
        with pytest.raises(ValueError):
            (x0 * x1 + Poly.one()).exact_div(x0)
        with pytest.raises(ValueError):
            (x0 * x1 + Poly.one()) // x0

    def test_division_survives_display_order_ties(self):
        # x2^2 and x2*x3 tie in degree and compare inconsistently under the
        # display order once multiplied; a divisor whose terms realize that
        # tie used to derail long division on an exactly divisible product.
        x0, x1, x2, x3 = (Poly.variable(i) for i in range(4))
        p = x0 * x1 * x2
        q = x0 * x1 * x2 + x0 * x1 * x3
        assert (p * q).exact_div(q) == p

    @given(wide_monomials, wide_monomials, wide_monomials)
    @settings(deadline=None)
    def test_packed_division_order_is_multiplicative(self, a, b, c):
        pa, pb, pc = Poly({a: 1}), Poly({b: 1}), Poly({c: 1})
        packing = poly._Packing((pa, pb, pc), sum(e for _, e in a + b + c))
        (ka,), (kb,) = packing.pack(pa).terms, packing.pack(pb).terms
        (kac,), (kbc,) = packing.pack(pa * pc).terms, packing.pack(pb * pc).terms
        if ka <= kb:
            assert kac <= kbc

    def test_a_key_past_its_field_ends_the_division(self):
        # 40000 sets the guard bit of a 16-bit field; read without it, the
        # key is x0^7232 and the quotient a wrong x0^7231.
        assert poly._divide({40000: 1}, {1: 1}, 1 << 15) is None


def monomial_div(a, b):
    """Return a/b as a monomial, or None when b does not divide a; the
    pair-merging quotient of ``linear_scan_exact_div``."""
    if not b:
        return a
    quot = []
    i = 0
    for vb, eb in b:
        while i < len(a) and a[i][0] < vb:
            quot.append(a[i])
            i += 1
        if i == len(a) or a[i][0] != vb or a[i][1] < eb:
            return None
        left = a[i][1] - eb
        if left:
            quot.append((vb, left))
        i += 1
    quot.extend(a[i:])
    return tuple(quot)


def linear_scan_exact_div(dividend, divisor):
    """Long division that finds each leading term by scanning the remainder.

    The reference for ``Poly.exact_div``: it returns the quotient's terms.
    The leading term is the ``max`` of the int keys; monomials are divided
    and multiplied as pair tuples.
    """
    rem = dict(dividend.terms)
    quot = {}
    dmono = max(divisor.terms)
    dcoeff = Fraction(divisor.terms[dmono])
    while rem:
        mono = max(rem)
        qmono = monomial_div(decode(mono), decode(dmono))
        if qmono is None:
            raise ValueError("polynomials do not divide exactly")
        qcoeff = rem[mono] / dcoeff
        quot[encode(qmono)] = qcoeff
        for m2, c2 in divisor.terms.items():
            target = encode(monomial_mul(qmono, decode(m2)))
            acc = rem.get(target, 0) - qcoeff * c2
            if acc:
                rem[target] = acc
            else:
                rem.pop(target, None)
    return quot


class TestHeapDivision:
    @given(wide_polys, wide_polys)
    @settings(deadline=None)
    def test_quotient_matches_the_linear_scan_term_by_term(self, p, q):
        if q.is_zero():
            return
        quotient = (p * q).exact_div(q)
        expected = linear_scan_exact_div(p * q, q)
        assert list(quotient.terms.items()) == list(expected.items())
        assert quotient == p

    @given(wide_polys, wide_polys)
    @settings(deadline=None)
    def test_any_dividend_divides_or_fails_as_the_linear_scan_does(self, f, q):
        if q.is_zero():
            return
        try:
            expected = linear_scan_exact_div(f, q)
        except ValueError:
            with pytest.raises(ValueError):
                f.exact_div(q)
        else:
            assert list(f.exact_div(q).terms.items()) == list(expected.items())

    @given(wide_monomials, wide_monomials)
    def test_packing_keeps_the_int_order_and_maps_sums_to_sums(self, a, b):
        pa, pb = Poly({a: 1}), Poly({b: 1})
        packing = poly._Packing((pa, pb), sum(e for _, e in a + b))
        (ka,), (kb,) = packing.pack(pa).terms, packing.pack(pb).terms
        assert (ka < kb) == (encode(a) < encode(b))
        assert (ka == kb) == (a == b)
        assert packing.pack(pa * pb).terms == {ka + kb: 1}
        assert packing.unpack({ka + kb: 1}) == pa * pb

    def test_failure_after_some_quotient_terms_raises(self):
        # The leading terms of p*q divide; the stray x3 below them does not.
        x0, x1, x2, x3 = (Poly.variable(i) for i in range(4))
        p = x0**2 * x1 + Fraction(1, 2) * x2
        q = x0 * x1 - 3 * x2**2
        with pytest.raises(ValueError):
            (p * q + x3).exact_div(q)

    def test_exact_div_divides_its_own_keys(self, monkeypatch):
        # Poly keys already compare in a monomial order, so exact division
        # builds no packing and decodes no monomial: every product and
        # comparison is on the keys themselves.
        rng = random.Random(2009)

        def sample(count):
            terms = {}
            while len(terms) < count:
                mono = tuple(
                    (v, rng.randint(1, 3)) for v in range(6) if rng.random() < 0.5
                )
                terms[mono] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            return Poly(terms)

        p, q = sample(24), sample(12)
        dividend = p * q
        assert len(dividend.terms) >= 200
        calls = {"packing": 0, "decode": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(poly, "_Packing", counting("packing", poly._Packing))
        monkeypatch.setattr(poly, "decode", counting("decode", decode))
        assert dividend.exact_div(q) == p
        assert calls == {"packing": 0, "decode": 0}


class TestOrderingAndRendering:
    def test_sorted_terms_graded_lex(self):
        x0, x1, x2 = (Poly.variable(i) for i in range(3))
        p = x0 * x1 + x2**3 + Poly.one()
        degrees = [monomial_degree(m) for m, _ in p.sorted_terms()]
        assert degrees == sorted(degrees) == [0, 2, 3]

    def test_render_canonical_example(self):
        x0, x1, x2 = (Poly.variable(i) for i in range(3))
        p = x0 * x1 + x2**2 * Fraction(1, 2)
        assert render_poly(p) == "x0*x1 + 1/2*x2^2"

    def test_render_signs_and_units(self):
        x0 = Poly.variable(0)
        assert render_poly(-x0) == "-x0"
        assert render_poly(x0 - 1) == "-1 + x0"
        assert render_poly(Poly.zero()) == "0"
        assert render_poly(x0 * -2 + Poly.one()) == "1 - 2*x0"

    def test_render_fraction(self):
        assert render_fraction(Fraction(3, 4)) == "3/4"
        assert render_fraction(Fraction(-5, 1)) == "-5"

    @settings(max_examples=300)
    @given(polys, st.sampled_from((1, -1, Fraction(1, 2), Fraction(-7, 3), 10**30)))
    def test_render_matches_the_renderer_on_abs_and_compare(self, p, scale):
        # scaled so that unit, negative, Fraction and long coefficients all occur
        assert render_poly(p * scale) == reference_render(p * scale)

    def test_render_past_the_digit_limit_raises(self):
        for coeff in (10**5000, Fraction(1, 10**5000)):
            with pytest.raises(ResultTooLarge, match="a result has a number of more than"):
                render_poly(Poly({((0, 1),): coeff}))

    def test_total_degree_and_constant_term(self):
        p = Poly.variable(1) ** 2 + Poly.constant(7)
        assert p.total_degree() == 2
        assert p.constant_term() == Fraction(7)
        assert Poly.zero().total_degree() == 0

    def test_variables(self):
        p = Poly.variable(0) * Poly.variable(3) + Poly.variable(3)
        assert p.variables() == {0, 3}


def reference_render(p):
    """The renderer as it read before ``render_poly`` took each sign from the
    numerator: ``abs`` and a comparison on the coefficient, and the monomial
    decoded for its own renderer."""
    if p.is_zero():
        return "0"
    pieces = []
    for mono, coeff in p.sorted_terms():
        pairs = decode(mono)
        magnitude = abs(coeff)
        monomial = "*".join(f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in pairs)
        if not pairs:
            body = render_fraction(magnitude)
        elif magnitude == 1:
            body = monomial
        else:
            body = render_fraction(magnitude) + "*" + monomial
        pieces.append((coeff < 0, body))
    text = ("-" if pieces[0][0] else "") + pieces[0][1]
    for negative, body in pieces[1:]:
        text += (" - " if negative else " + ") + body
    return text
