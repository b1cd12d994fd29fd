"""Sparse multivariate polynomials over the exact rationals.

The coordinate arena is countable: variables are indexed by natural numbers
and rendered ``x0, x1, x2, ...``.  A monomial is a tuple of
``(variable, exponent)`` pairs, strictly increasing in the variable index,
with every exponent >= 1; the empty tuple is the constant monomial.  A
polynomial maps monomials to nonzero exact rational coefficients, each in
one canonical form: a plain ``int`` when the value is integral, and a
``fractions.Fraction`` with denominator > 1 otherwise (never a ``float`` or
a ``bool``), so the common integer case never pays for ``Fraction``
arithmetic.  Zero coefficients are never stored, so every value
is a canonical form and ``==`` is exact structural equality.  Any single
polynomial touches only finitely many variables even though the arena is
unbounded.  The accessors ``coefficient`` and ``constant_term`` return a
``Fraction`` whatever the stored form.

Instances are treated as immutable: no method mutates ``self``, and callers
must not poke at ``terms`` in place.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm

from algebroid.errors import ResultTooLarge

# (variable index, exponent) pairs, strictly increasing, exponents >= 1.
Monomial = tuple

CONSTANT_MONOMIAL = ()


def monomial_degree(mono) -> int:
    return sum(e for _, e in mono)


def monomial_mul(a, b):
    """Merge two monomials, adding exponents of shared variables."""
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


def monomial_div(a, b):
    """Return a/b as a monomial, or None when b does not divide a."""
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


def monomial_key(mono):
    """Canonical display order: total degree first, then the pair tuple.

    This is the order of ``sorted_terms`` and of the renderer.  It is a
    total order but not a monomial order (it is not compatible with
    multiplication), so division must not use it; see
    ``monomial_division_key``.
    """
    return (monomial_degree(mono), mono)


def monomial_division_key(mono):
    """True graded-lex order (x0 > x1 > ...), compatible with multiplication.

    Ties in total degree are broken by the exponent vector read
    lexicographically from the lowest variable index; encoding each pair as
    ``(-variable, exponent)`` makes plain tuple comparison implement exactly
    that.  Division is by this order: a leading term chosen by a
    non-multiplicative order need not stay leading inside products, which
    derails long division on exactly divisible inputs.  ``exact_div`` keeps
    its remainder in a heap under ``monomial_heap_key``, the same order
    reversed.
    """
    return (monomial_degree(mono), tuple((-v, e) for v, e in mono))


def monomial_heap_key(mono):
    """``monomial_division_key`` reversed, as one flat tuple for ``heapq``.

    The key is ``(-degree, v0, -e0, v1, -e1, ..., mono)``.  At equal degree
    no pair tuple is a prefix of another (the longer one would have the
    larger degree), so negating the degree, each exponent and each (already
    negated) variable reverses plain tuple comparison exactly: the smallest
    key is the greatest monomial under the division order.  Keys of
    distinct monomials differ before the last item, which carries the
    monomial itself so that a heap pop recovers it.
    """
    degree = 0
    flat = []
    for v, e in mono:
        degree += e
        flat += (v, -e)
    return (-degree, *flat, mono)


def _coefficient(value):
    """The canonical form of a scalar entering a polynomial."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return _normal(value)
    if isinstance(value, int):
        return int(value)  # bool and other int subclasses
    raise TypeError(f"expected an int or Fraction coefficient, got {value!r}")


def _normal(value):
    """An integral ``Fraction`` as its ``int``; any other value unchanged."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _normalised(terms: dict) -> dict:
    """Put every value of ``terms`` in canonical form, in place."""
    for mono, coeff in terms.items():
        if type(coeff) is Fraction:
            terms[mono] = _normal(coeff)
    return terms


class Poly:
    """A polynomial with exact rational coefficients.

    >>> p = Poly.variable(0) + 1
    >>> q = Poly.variable(0) - 1
    >>> str(p * q)
    '-1 + x0^2'
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for mono, coeff in dict(terms).items():
                coeff = _coefficient(coeff)
                if not coeff:
                    continue
                mono = tuple(mono)
                last = -1
                for var, exp in mono:
                    if var <= last or exp < 1:
                        raise ValueError(f"malformed monomial {mono!r}")
                    last = var
                cleaned[mono] = coeff
        self.terms = cleaned

    @classmethod
    def _raw(cls, terms):
        # Internal fast path: terms already canonical, zeros already stripped.
        self = object.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def zero(cls) -> "Poly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "Poly":
        return cls._raw({CONSTANT_MONOMIAL: 1})

    @classmethod
    def constant(cls, value) -> "Poly":
        value = _coefficient(value)
        return cls._raw({CONSTANT_MONOMIAL: value} if value else {})

    @classmethod
    def variable(cls, index: int, power: int = 1) -> "Poly":
        if index < 0:
            raise ValueError("variable indices are natural numbers")
        if power < 0:
            raise ValueError("negative powers are not representable")
        if power == 0:
            return cls.one()
        return cls._raw({((index, power),): 1})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {CONSTANT_MONOMIAL}

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Poly.constant(other).terms
        return NotImplemented

    __hash__ = None

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.constant(other)
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = merged.get(mono)
            if acc is None:
                merged[mono] = coeff
            else:
                acc = acc + coeff
                if acc:
                    merged[mono] = _normal(acc)
                else:
                    del merged[mono]
        return Poly._raw(merged)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            coeff = _coefficient(other)
            if not coeff:
                return Poly.zero()
            return Poly._raw(_normalised({m: c * coeff for m, c in self.terms.items()}))
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = monomial_mul(ma, mb)
                acc = out.get(mono)
                if acc is None:
                    out[mono] = ca * cb
                else:
                    acc = acc + ca * cb
                    if acc:
                        out[mono] = acc
                    else:
                        del out[mono]
        return Poly._raw(_normalised(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = Poly.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and structure ------------------------------------------

    def partial(self, index: int) -> "Poly":
        """Partial derivative with respect to x<index>."""
        out = {}
        for mono, coeff in self.terms.items():
            for pos, (var, exp) in enumerate(mono):
                if var != index:
                    continue
                if exp == 1:
                    new = mono[:pos] + mono[pos + 1 :]
                else:
                    new = mono[:pos] + ((var, exp - 1),) + mono[pos + 1 :]
                out[new] = out.get(new, 0) + coeff * exp
                break
        return Poly._raw(_normalised({m: c for m, c in out.items() if c}))

    def variables(self) -> set:
        seen = set()
        for mono in self.terms:
            for var, _ in mono:
                seen.add(var)
        return seen

    def denominator(self) -> int:
        """The lcm of the coefficients' denominators: the least positive
        integer whose multiple of ``self`` has integer coefficients."""
        out = 1
        for coeff in self.terms.values():
            if type(coeff) is Fraction:
                out = lcm(out, coeff.denominator)
        return out

    def total_degree(self) -> int:
        """Largest total degree among the terms (0 for the zero polynomial)."""
        if not self.terms:
            return 0
        return max(monomial_degree(m) for m in self.terms)

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get(CONSTANT_MONOMIAL, 0))

    def coefficient(self, mono) -> Fraction:
        return Fraction(self.terms.get(tuple(mono), 0))

    def sorted_terms(self):
        """Terms in the canonical (graded-lex ascending) order."""
        return sorted(self.terms.items(), key=lambda item: monomial_key(item[0]))

    def leading(self):
        """The greatest term under the division order, as (monomial, coefficient)."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        mono = max(self.terms, key=monomial_division_key)
        return mono, self.terms[mono]

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Exact quotient self/divisor; raises ValueError when not divisible.

        Long division under the division order.  The remainder's monomials
        sit in a heap under ``monomial_heap_key``, so each leading term is a
        pop, not a scan of the whole remainder.  A quotient term ``qmono``
        cancels the leading term and adds ``qmono * m2`` for the other
        divisor terms ``m2``; each ``m2`` is below the divisor's leading
        monomial and the order is multiplicative, so every added term is
        strictly below the one cancelled and the heap top stays the true
        leading term.  A monomial is pushed only when it enters the
        remainder; one cancelled since it was pushed is a stale entry,
        skipped when popped.
        """
        if not isinstance(divisor, Poly) or divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.terms)
        heap = [monomial_heap_key(m) for m in rem]
        heapify(heap)
        quot = {}
        dmono, dcoeff = divisor.leading()
        tail = [(m, c) for m, c in divisor.terms.items() if m != dmono]
        while heap:
            mono = heappop(heap)[-1]
            coeff = rem.pop(mono, None)
            if coeff is None:  # stale: cancelled since it was pushed
                continue
            qmono = monomial_div(mono, dmono)
            if qmono is None:
                raise ValueError("polynomials do not divide exactly")
            # Fraction, not ``/``: true division of two ints is a float.
            qcoeff = _normal(Fraction(coeff, dcoeff))
            quot[qmono] = qcoeff
            for m2, c2 in tail:
                target = monomial_mul(qmono, m2)
                acc = rem.get(target)
                if acc is None:
                    rem[target] = _normal(-qcoeff * c2)
                    heappush(heap, monomial_heap_key(target))
                else:
                    acc -= qcoeff * c2
                    if acc:
                        rem[target] = _normal(acc)
                    else:
                        del rem[target]
        return Poly._raw(quot)

    def __floordiv__(self, divisor: "Poly") -> "Poly":
        """The exact quotient, as ``//`` is on exact integer multiples."""
        return self.exact_div(divisor)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"Poly({render_poly(self)})"


def render_fraction(value: Fraction) -> str:
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # past Python's int-to-decimal digit limit
        raise ResultTooLarge(
            f"a result has a number of more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _render_monomial(mono) -> str:
    parts = []
    for var, exp in mono:
        parts.append(f"x{var}" if exp == 1 else f"x{var}^{exp}")
    return "*".join(parts)


def render_poly(poly: Poly) -> str:
    """Canonical rendering, terms in graded-lex ascending order.

    The output reparses to an equal polynomial under the model grammar.
    """
    if poly.is_zero():
        return "0"
    pieces = []
    for mono, coeff in poly.sorted_terms():
        magnitude = abs(coeff)
        if not mono:
            body = render_fraction(magnitude)
        elif magnitude == 1:
            body = _render_monomial(mono)
        else:
            body = render_fraction(magnitude) + "*" + _render_monomial(mono)
        pieces.append((coeff < 0, body))
    first_negative, first_body = pieces[0]
    text = ("-" if first_negative else "") + first_body
    for negative, body in pieces[1:]:
        text += (" - " if negative else " + ") + body
    return text
