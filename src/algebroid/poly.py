"""Sparse multivariate polynomials over the exact rationals.

Variables are indexed by natural numbers below ``MAX_VARIABLES`` and
rendered ``x0, x1, x2, ...``.  A monomial is one ``int``: variable v owns
the ``W``-bit field at bit ``W * v``, which holds its exponent, so the
constant monomial is 0 and a product of monomials is one int addition
(the packed exponent vectors of Monagan & Pearce, CASC 2007).  The top bit
of every field is a guard bit and stays clear, so an exponent is at most
``MAX_EXPONENT`` = 2**15 - 1 and a sum of two fields never carries into the
next one; a product whose exponent would pass it raises ``ResultTooLarge``.
``(variable, exponent)`` pairs appear only where monomials enter, through
``encode`` (the constructor, ``coefficient``, ``Poly.variable``), and where
they are sorted and rendered, through ``decode``.

A polynomial maps monomials to nonzero exact rational coefficients, each in
one canonical form: a plain ``int`` when the value is integral, and a
``fractions.Fraction`` with denominator > 1 otherwise (never a ``float`` or
a ``bool``), so the common integer case never pays for ``Fraction``
arithmetic.  Zero coefficients are never stored, so every value is a
canonical form and ``==`` is exact structural equality.  The accessors
``coefficient`` and ``constant_term`` return a ``Fraction`` whatever the
stored form.

Instances are treated as immutable: no method mutates ``self``, and callers
must not poke at ``terms`` in place.

Every product of polynomials runs through one kernel, ``_mac``, which adds
a*b or -a*b into a ``{monomial: coefficient}`` dict; ``Poly.__mul__`` and
the exterior operators call it, and ``_derivative`` gives the terms of a
partial derivative without building a ``Poly``.  An operator accumulates
many products into one dict and ``_poly`` wraps it once.  Rational operands
are multiplied over Z: both are scaled by the lcm of their denominators,
and each output term is divided back once.

Integer order on these keys is a monomial order, lex with the highest
variable first: a product adds one int to both sides of a comparison.
Exact division, ``_divide``, is long division in that order on any keys
of this layout, one field per variable with the higher variable more
significant, whatever the field width: ``Poly.exact_div`` divides
``Poly``'s own keys.  Fraction-free elimination packs its entries once
(``_Packing``): the variables that occur are renumbered 0, 1, ... in
their order, and each gets a field of ``width`` bits, with
``2**(width - 1)`` above every total degree the computation reaches (the
caller's bound), so fields never carry, and the keys of a matrix over
high or scattered variables stay a few narrow fields wide.  With
``guard`` the top bit of every field, in ``(a | guard) - b`` a field keeps
its guard bit exactly when b's exponent there is at most a's, so one
subtraction gives the quotient a/b or, by a cleared guard bit, proves
that b does not divide a.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations_with_replacement
from math import lcm

from algebroid.errors import ResultTooLarge

# Variable indices are below MAX_VARIABLES, so no monomial is wider than
# W * MAX_VARIABLES bits, whatever the input.
MAX_VARIABLES = 4096
W = 16
FIELD = (1 << W) - 1
MAX_EXPONENT = (1 << (W - 1)) - 1
# The guard bit of every field, in closed form: a sum over the fields would
# loop MAX_VARIABLES times at import.
GUARD = ((1 << (W * MAX_VARIABLES)) - 1) // FIELD << (W - 1)

CONSTANT_MONOMIAL = 0

# ``monomial_degree`` adds each field to the one above it: the low half of
# each 32-bit lane then holds f(2j) + f(2j + 1) < 2**16, and _PAIR_SUMS keeps
# those halves.  _DEGREE_MODULUS = (2**32 - 1) / 5 divides 2**32 - 1, so the
# sum of the lanes, the total degree, is their value modulo it; it exceeds
# every total degree, MAX_VARIABLES * MAX_EXPONENT.
_PAIR_SUMS = int.from_bytes(b"\xff\xff\x00\x00" * ((MAX_VARIABLES + 1) // 2), "little")
_DEGREE_MODULUS = ((1 << 2 * W) - 1) // 5


def encode(pairs) -> int:
    """The monomial of ``(variable, exponent)`` pairs, strictly increasing in
    the variable, every exponent >= 1; ``()`` is the constant monomial."""
    mono = 0
    last = -1
    for var, exp in pairs:
        if not last < var < MAX_VARIABLES or exp < 1:
            raise ValueError(
                f"malformed monomial {pairs!r}: pairs must increase in variables "
                f"below {MAX_VARIABLES}, with exponents >= 1"
            )
        if exp > MAX_EXPONENT:
            raise ResultTooLarge(f"an exponent is larger than {MAX_EXPONENT}")
        mono += exp << (W * var)
        last = var
    return mono


def decode(mono: int) -> tuple:
    """The ``(variable, exponent)`` pairs of ``mono``, increasing in the variable."""
    pairs = []
    var = 0
    while mono:
        exp = mono & FIELD
        if exp:
            pairs.append((var, exp))
            mono >>= W
            var += 1
        else:  # skip the empty fields below the lowest set bit at once
            skip = ((mono & -mono).bit_length() - 1) // W
            mono >>= W * skip
            var += skip
    return tuple(pairs)


def monomials_of_degree(support, degree):
    """All monomials over ``support`` with total degree exactly ``degree``,
    in canonical order."""
    out = []
    for combo in combinations_with_replacement(tuple(sorted(set(support))), degree):
        mono = []
        for var in combo:
            if mono and mono[-1][0] == var:
                mono[-1] = (var, mono[-1][1] + 1)
            else:
                mono.append((var, 1))
        out.append(tuple(mono))
    return [encode(mono) for mono in sorted(out)]


def _partials(mono: int) -> list:
    """``(v, e, mono / x_v)`` for each variable v of ``mono``, e its exponent:
    d mono / d x_v is ``e * (mono / x_v)``."""
    return [(var, exp, mono - (1 << W * var)) for var, exp in decode(mono)]


def _variables(keys) -> set:
    """The variables of the monomials ``keys``.  A field of the union of the
    keys is nonzero where some key's is; the walk of ``decode``, keeping
    only the variables."""
    union = 0
    for mono in keys:
        union |= mono
    out = set()
    var = 0
    while union:
        if union & FIELD:
            out.add(var)
            union >>= W
            var += 1
        else:
            skip = ((union & -union).bit_length() - 1) // W
            union >>= W * skip
            var += skip
    return out


def _monomial(mono) -> int:
    """A monomial entering from outside: a packed int, checked, or pairs, encoded."""
    if type(mono) is int:
        if mono < 0 or mono & GUARD or mono >> (W * MAX_VARIABLES):
            raise ValueError(f"malformed monomial {mono!r}")
        return mono
    return encode(mono)


def monomial_degree(mono: int) -> int:
    """The total degree: the sum of the fields (see _PAIR_SUMS)."""
    return ((mono + (mono >> W)) & _PAIR_SUMS) % _DEGREE_MODULUS


def monomial_key(mono: int):
    """Canonical display order: total degree first, then the pair tuple.

    This is the order of ``sorted_terms`` and of the renderer.  It is a
    total order but not a monomial order (it is not compatible with
    multiplication), so division must not use it; division compares the
    int keys themselves.
    """
    return (monomial_degree(mono), decode(mono))


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


class Poly:
    """A polynomial with exact rational coefficients.

    >>> p = Poly.variable(0) + 1
    >>> q = Poly.variable(0) - 1
    >>> str(p * q)
    '-1 + x0^2'
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """``terms`` maps monomials, as ints or as ``(variable, exponent)``
        pair tuples, to coefficients."""
        cleaned = {}
        if terms:
            for mono, coeff in dict(terms).items():
                coeff = _coefficient(coeff)
                if not coeff:
                    continue
                key = _monomial(mono)
                if key in cleaned:
                    raise ValueError(f"monomial {mono!r} is given twice")
                cleaned[key] = coeff
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
        if not 0 <= index < MAX_VARIABLES:
            raise ValueError(f"variable indices are natural numbers below {MAX_VARIABLES}")
        if power < 0:
            raise ValueError("negative powers are not representable")
        if power == 0:
            return cls.one()
        return cls._raw({encode(((index, power),)): 1})

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

    def __add__(self, other, sign=1):
        """``self + sign * other``; ``__sub__`` passes ``sign`` -1."""
        if type(other) is not Poly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.constant(other)
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = merged.get(mono)
            if acc is None:
                merged[mono] = coeff if sign > 0 else -coeff
            else:
                acc = acc + coeff if sign > 0 else acc - coeff
                if acc:
                    merged[mono] = _normal(acc)
                else:
                    del merged[mono]
        return Poly._raw(merged)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            coeff = _coefficient(other)
            return _poly({m: c * coeff for m, c in self.terms.items()})
        out = {}
        _mac(out, self.terms, other.terms)
        return _poly(out)

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
        return Poly._raw(_derivative(self.terms, index))

    def variables(self) -> set:
        return _variables(self.terms)

    def max_exponent(self) -> int:
        """The largest exponent of any variable in any term (0 for a constant)."""
        return max((exp for mono in self.terms for _, exp in decode(mono)), default=0)

    def denominator(self) -> int:
        """The lcm of the coefficients' denominators: the least positive
        integer whose multiple of ``self`` has integer coefficients."""
        return _denominator(self.terms)

    def total_degree(self) -> int:
        """Largest total degree among the terms (0 for the zero polynomial)."""
        if not self.terms:
            return 0
        return max(map(monomial_degree, self.terms))

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get(CONSTANT_MONOMIAL, 0))

    def coefficient(self, mono) -> Fraction:
        """The coefficient of ``mono``, an int or ``(variable, exponent)`` pairs."""
        return Fraction(self.terms.get(_monomial(mono), 0))

    def sorted_terms(self):
        """Terms in the canonical display order, that of ``monomial_key``.

        Within one degree, ``monomial_key`` compares the pair tuples: the
        exponents read from variable 0 up, where a variable a monomial lacks
        sorts after every exponent, since its next pair names a later
        variable.  With u(0) = 2**16 - 1 and u(e) = e - 1 that is the order
        of the u-vectors read from variable 0 up.  ``((m | guard) - ones) ^
        guard`` takes u of every field at once (no field borrows, as each
        holds its guard bit), and swapping the two bytes of each field makes
        the little-endian bytes of the result list the fields from variable
        0 up, high byte first: so the bytes compare as the u-vectors do.  A
        key is as wide as the widest monomial, and holds no tuple.
        """
        if not self.terms:
            return []
        n = (max(self.terms).bit_length() + W - 1) // W
        ones = ((1 << (W * n)) - 1) // FIELD
        guard = ones << (W - 1)
        low_bytes = ones * 0xFF
        keyed = []
        for mono, coeff in self.terms.items():
            u = ((mono | guard) - ones) ^ guard
            u = ((u & low_bytes) << 8) | (u >> 8 & low_bytes)
            keyed.append((monomial_degree(mono), u.to_bytes(2 * n, "little"), mono, coeff))
        keyed.sort()  # keys are distinct, so no coefficient is compared
        return [(mono, coeff) for _, _, mono, coeff in keyed]

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Exact quotient self/divisor; raises ValueError when not divisible.

        ``_divide`` runs on the operands' own keys, with ``GUARD`` cut to
        the fields they span.
        """
        if not isinstance(divisor, Poly) or divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        fields = -(-max(max(self.terms, default=0), max(divisor.terms)).bit_length() // W)
        quot = _divide(self.terms, divisor.terms, GUARD & ((1 << W * fields) - 1))
        if quot is None:
            raise ValueError("polynomials do not divide exactly")
        return Poly._raw(quot)

    def __floordiv__(self, divisor: "Poly") -> "Poly":
        """The exact quotient, as ``//`` is on exact integer multiples."""
        return self.exact_div(divisor)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"Poly({render_poly(self)})"


def _denominator(terms: dict) -> int:
    """The lcm of the denominators of canonical ``terms``."""
    out = 1
    for c in terms.values():
        if type(c) is Fraction:
            out = lcm(out, c.denominator)
    return out


def _scaled(terms: dict, scale: int) -> dict:
    """``terms`` times ``scale``, a multiple of every denominator: int coefficients."""
    return {
        m: c.numerator * (scale // c.denominator) if type(c) is Fraction else c * scale
        for m, c in terms.items()
    }


def _mac(out: dict, a: dict, b: dict, sign: int = 1) -> None:
    """Add ``sign * a * b`` into ``out``: the one polynomial product.

    ``a`` and ``b`` are canonical terms; ``out`` maps monomials to sums
    that may be zero or an integral ``Fraction`` until ``_poly`` wraps it.
    A monomial product is ``ma + mb``.  Its exponents may pass
    ``MAX_EXPONENT``, setting a guard bit, but two fields below 2**15 never
    carry out of 16 bits, so the key stays exact until ``_poly`` rejects it.
    When either operand holds a ``Fraction``, both are scaled to integers
    by the lcm of their denominators, the product is taken over Z, and each
    output term is divided back once: one ``Fraction`` per output term, not
    a ``Fraction`` product per pair of terms.
    """
    if not a or not b:
        return
    da = db = 1  # one type scan of each operand; int-only operands stop here
    for c in a.values():
        if type(c) is Fraction:
            da = lcm(da, c.denominator)
    for c in b.values():
        if type(c) is Fraction:
            db = lcm(db, c.denominator)
    scale = da * db
    acc = out
    if scale != 1:
        a, b, acc = _scaled(a, da), _scaled(b, db), {}
    get = acc.get
    for ma, ca in a.items():
        ca *= sign
        for mb, cb in b.items():
            mono = ma + mb
            acc[mono] = get(mono, 0) + ca * cb
    if scale != 1:
        _unscale(out, acc, scale)


def _unscale(out: dict, acc: dict, scale: int) -> None:
    """Add ``acc / scale`` into ``out``: one ``Fraction`` per term of ``acc``."""
    for mono, c in acc.items():
        value = Fraction(c, scale)
        out[mono] = out[mono] + value if mono in out else value


def _add_scaled(out: dict, terms: dict, scale) -> None:
    """Add ``scale * terms`` into ``out``, as ``_mac`` adds a product."""
    for mono, c in terms.items():
        if scale != 1:
            c = -c if scale == -1 else c * scale
        out[mono] = out[mono] + c if mono in out else c


def _derivative(terms: dict, index: int) -> dict:
    """The canonical terms of d/dx<index>: {monomial / x<index>: exponent * coefficient}.

    No term holds an index outside 0 <= index < MAX_VARIABLES: its
    derivative is zero, and no wide int is built for it."""
    out = {}
    if not 0 <= index < MAX_VARIABLES:
        return out
    shift = W * index
    unit = 1 << shift
    for mono, coeff in terms.items():
        exp = mono >> shift & FIELD
        if exp:
            out[mono - unit] = _normal(coeff * exp)
    return out


def _poly(terms: dict) -> Poly:
    """The canonical ``Poly`` of sums from ``_mac``, which it takes over:
    no zeros, integral values as ints.  A key with a guard bit set holds an
    exponent past ``MAX_EXPONENT`` and raises ``ResultTooLarge``: one AND
    per term."""
    rebuild = False
    for mono, c in terms.items():
        if mono & GUARD:
            raise ResultTooLarge(f"a product has an exponent larger than {MAX_EXPONENT}")
        if not c or type(c) is Fraction:
            rebuild = True
    if not rebuild:
        return Poly._raw(terms)
    return Poly._raw({
        m: c.numerator if type(c) is Fraction and c.denominator == 1 else c
        for m, c in terms.items()
        if c
    })


def _vanishes(parts) -> bool:
    """True when every dict of sums from ``_mac`` in the list ``parts`` is
    all zero, so that ``_poly`` would give zero; a key with a guard bit
    raises as there, even where its sum cancels: one OR over the keys."""
    union = 0
    for terms in parts:
        for mono in terms:
            union |= mono
    if union & GUARD:
        raise ResultTooLarge(f"a product has an exponent larger than {MAX_EXPONENT}")
    return not any(any(terms.values()) for terms in parts)


class _Packing:
    """Monomials over the variables of ``polys`` packed into ints, in the
    layout of the module docstring; ``bound`` is a total degree no monomial
    of the computation exceeds."""

    __slots__ = ("fields", "mask", "guard")

    def __init__(self, polys, bound):
        variables = sorted(set().union(*(p.variables() for p in polys)))
        width = bound.bit_length() + 1
        # (bit of the variable's field in a monomial, bit of it in a key)
        self.fields = [(W * v, width * i) for i, v in enumerate(variables)]
        self.mask = (1 << width) - 1
        self.guard = sum(1 << (width * i + width - 1) for i in range(len(variables)))

    def pack(self, poly: Poly) -> "_Packed":
        fields = self.fields
        terms = {}
        for mono, coeff in poly.terms.items():
            key = 0
            for at, to in fields:
                key += (mono >> at & FIELD) << to
            terms[key] = coeff
        return _Packed(terms, self.guard)

    def common_monomial(self, keys) -> int:
        """The key of the gcd of the monomials of ``keys``, a nonempty list:
        each exponent is the least of the keys'."""
        mask = self.mask
        return sum(min(key >> to & mask for key in keys) << to for _, to in self.fields)

    def unpack(self, terms: dict) -> Poly:
        """The ``Poly`` of packed terms with canonical coefficients, in their
        order; an exponent past ``MAX_EXPONENT`` (a minor can reach one)
        raises ``ResultTooLarge``."""
        fields, mask = self.fields, self.mask
        out = {}
        for key, coeff in terms.items():
            mono = 0
            for at, to in fields:
                exp = key >> to & mask
                if exp > MAX_EXPONENT:
                    raise ResultTooLarge(f"an exponent is larger than {MAX_EXPONENT}")
                mono += exp << at
            out[mono] = coeff
        return Poly._raw(out)


class _Packed:
    """An integer polynomial on the keys of one ``_Packing``.

    ``terms`` maps each key to a nonzero int.  It has just what
    ``linalg._row_echelon`` and ``linalg._back_substitute`` ask of an entry:
    ``*``, ``-``, exact ``//`` and truth; a monomial product is one int
    addition.
    """

    __slots__ = ("terms", "guard")

    def __init__(self, terms: dict, guard: int):
        self.terms = terms
        self.guard = guard

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __mul__(self, other: "_Packed") -> "_Packed":
        out = {}
        get = out.get
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = ka + kb
                out[key] = get(key, 0) + ca * cb
        return _Packed({key: c for key, c in out.items() if c}, self.guard)

    def __sub__(self, other: "_Packed") -> "_Packed":
        out = dict(self.terms)
        for key, c in other.terms.items():
            c = out.get(key, 0) - c
            if c:
                out[key] = c
            else:
                del out[key]
        return _Packed(out, self.guard)

    def __floordiv__(self, divisor: "_Packed") -> "_Packed":
        quot = _divide(self.terms, divisor.terms, self.guard)
        if quot is None:
            # Bareiss divisions are exact; one that is not is a broken invariant.
            raise AssertionError("a fraction-free elimination step did not divide exactly")
        return _Packed(quot, self.guard)


def _divide(terms: dict, divisor: dict, guard: int):
    """Exact quotient of ``terms`` by ``divisor``, or None when the division
    is not exact.  Both are on int keys in the layout of the module
    docstring, and ``guard`` holds the top bit of each of their fields.

    Long division in int order.  The remainder's keys sit in a heap,
    negated, so each leading term is a pop, not a scan of the whole
    remainder.  A quotient term ``q`` cancels the leading term and adds
    ``q + k`` for the other divisor keys ``k``; each ``k`` is below the
    divisor's leading key, so ``q + k`` is below the key cancelled and the
    heap top stays the true leading term.  Neither ``q`` nor ``k`` holds a
    guard bit, so no field carries into the next, but lex order bounds no
    exponent of a lower variable, and ``q + k`` may set a guard bit; such a
    key, popped, ends the division as inexact.  In an exact division every
    remainder term lies in the dividend's Newton polytope, so this never
    happens there.  A key is pushed only when it enters the remainder; one
    cancelled since it was pushed is a stale entry, skipped when popped.
    Quotient terms come in descending order.
    """
    rem = dict(terms)
    heap = [-key for key in rem]
    heapify(heap)
    lead = max(divisor)
    lead_coeff = divisor[lead]
    tail = [(key, c) for key, c in divisor.items() if key != lead]
    quot = {}
    while heap:
        key = -heappop(heap)
        coeff = rem.pop(key, None)
        if coeff is None:  # stale: cancelled since it was pushed
            continue
        if key & guard:  # an exponent past the field: not in the dividend's polytope
            return None
        q = (key | guard) - lead
        if q & guard != guard:  # some exponent of the divisor's is larger
            return None
        q ^= guard
        # Remainder coefficients need not be canonical; quotient ones are:
        # an int, or a Fraction that is not integral.  Fraction, not ``/``:
        # true division of two ints is a float.
        qcoeff, left = divmod(coeff, lead_coeff)
        if left:
            qcoeff = Fraction(coeff, lead_coeff)
        quot[q] = qcoeff
        for k, c in tail:
            target = q + k
            acc = rem.get(target)
            if acc is None:
                rem[target] = -qcoeff * c
                heappush(heap, -target)
            else:
                acc -= qcoeff * c
                if acc:
                    rem[target] = acc
                else:
                    del rem[target]
    return quot


def _too_many_digits() -> ResultTooLarge:
    """The error for an int past Python's int-to-decimal digit limit, where
    ``str`` raises ``ValueError``."""
    return ResultTooLarge(
        f"a result has a number of more than {sys.get_int_max_str_digits()} digits"
    )


def render_fraction(value: Fraction) -> str:
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise _too_many_digits() from None


def render_poly(poly: Poly) -> str:
    """Canonical rendering, terms in graded-lex ascending order.

    The output reparses to an equal polynomial under the model grammar.
    Each term's sign is one int comparison on its numerator, and each
    monomial is decoded once.
    """
    if poly.is_zero():
        return "0"
    parts = []  # sign, body, sign, body, ...
    try:
        for mono, coeff in poly.sorted_terms():
            if type(coeff) is int:
                num, den = coeff, 1
            else:
                num, den = coeff.numerator, coeff.denominator
            if num < 0:
                parts.append(" - ")
                num = -num
            else:
                parts.append(" + ")
            body = str(num) if den == 1 else f"{num}/{den}"
            if mono:
                names = "*".join([f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in decode(mono)])
                body = names if num == 1 and den == 1 else f"{body}*{names}"
            parts.append(body)
    except ValueError:  # past Python's int-to-decimal digit limit
        raise _too_many_digits() from None
    return ("-" if parts[0] == " - " else "") + "".join(parts[1:])
