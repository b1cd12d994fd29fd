"""Exterior and multivector calculus with polynomial coefficients.

``KForm`` holds finitely supported differential forms sum_I f_I dx_I and
``KVector`` holds multivector fields sum_I f_I e_I, where e_i denotes the
coordinate frame field and blades I are strictly increasing index tuples.
Grade 0 of either kind wraps a bare polynomial.

Conventions, fixed once and used everywhere:

- evaluation: (a_1 ^ ... ^ a_k)(X_1, ..., X_k) = det [a_i(X_j)];
- interior product: i_{e_j}(dx_I) = (-1)^pos dx_{I\\j} when j sits at
  position ``pos`` (0-based) in I, and 0 when j is not in I;
- exterior derivative: d(f dx_I) = sum_j (del_j f) dx_j ^ dx_I;
- Lie derivative: Cartan's formula L_X = d . i_X + i_X . d, with
  L_X f = X(f) in grade 0;
- Schouten bracket: see ``schouten_bracket``.

Terms are kept canonical: a value stores one entry per blade and no zero
coefficient, so equal values have equal ``terms``.  The validating
constructor enforces this on input.  Every operation that sums products or
derivatives into blades accumulates one monomial dict per blade with the
kernel of ``poly`` and wraps each blade once through ``_wrap``, the one
place that keeps the rule; ``+`` and ``-`` merge blade by blade with
``Poly``'s own addition.  ``_contract``, ``_apply`` and ``_differentiate``
add i_X, X(f) and d f into such sums, so a bracket of several terms
accumulates them all and wraps once: accumulate, then wrap once.  ``_lie``
adds sign * [X, Y] into the caller's sums too, so a sum of brackets, such
as an axiom's defect, is one accumulation; ``lie_bracket`` wraps it through
``_wrapped``.  ``_all_vanish`` tests such sums for zero unwrapped, and
``_sums``, ``_of_sums`` and ``_add_into`` are a grade-1 value's side of the
rule.

Values are immutable, so ``de_rham`` keeps each KForm's derivative on it
and returns that object on every later call; all other operations return
fresh objects.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from algebroid.errors import ArityError, GradeError
from algebroid.poly import Poly, _add_scaled, _denominator, _derivative, _mac, _partials, _poly
from algebroid.poly import _scaled, _unscale, _vanishes, render_poly


def _merge_blades(a, b):
    """Concatenate-and-sort two blades: (sign, blade), or (0, None) on overlap."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    out = []
    inversions = 0
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        elif b[j] < a[i]:
            # b[j] jumps over the remaining entries of a
            inversions += len(a) - i
            out.append(b[j])
            j += 1
        else:
            return 0, None
    out.extend(a[i:])
    out.extend(b[j:])
    return (-1 if inversions & 1 else 1), tuple(out)


def _insert_into_blade(blade, index):
    """(sign, blade with index inserted); (0, None) when already present."""
    pos = 0
    for value in blade:
        if value == index:
            return 0, None
        if value < index:
            pos += 1
        else:
            break
    sign = -1 if pos & 1 else 1
    return sign, blade[:pos] + (index,) + blade[pos:]


def _wrap(out):
    """Each blade's sums from ``_mac`` as one canonical Poly; blades that
    cancel are dropped."""
    terms = {}
    for blade, sums in out.items():
        poly = _poly(sums)
        if poly:
            terms[blade] = poly
    return terms


def _all_vanish(out) -> bool:
    """True when the blade sums ``out``, or each of a tuple of them, wrap
    to zero.  Every blade is tested, so a key past ``MAX_EXPONENT``
    raises wherever it sits."""
    parts = out if type(out) is tuple else (out,)
    return all([_vanishes(sums) for part in parts for sums in part.values()])


def _wrapped(body, a, b):
    """The bracket of two sections by an accumulating ``body``: its sums,
    wrapped once."""
    out = type(a)._sums()
    body(out, a, b)
    return type(a)._of_sums(out)


def _coerce_poly(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.constant(value)
    raise TypeError(f"expected a polynomial coefficient, got {value!r}")


class _Alternating:
    """Shared machinery of KForm and KVector."""

    __slots__ = ("grade", "terms")

    _symbol = "?"

    def __init__(self, grade, terms=None):
        if grade < 0:
            raise GradeError("grade must be nonnegative")
        cleaned = {}
        if terms:
            for blade, coeff in dict(terms).items():
                blade = tuple(blade)
                if len(blade) != grade:
                    raise GradeError(f"blade {blade!r} does not have grade {grade}")
                if any(b < 0 for b in blade) or any(
                    blade[i] >= blade[i + 1] for i in range(len(blade) - 1)
                ):
                    raise ValueError(f"blade {blade!r} is not strictly increasing")
                coeff = _coerce_poly(coeff)
                if coeff.is_zero():
                    continue
                if blade in cleaned:
                    raise ValueError(f"duplicate blade {blade!r}")
                cleaned[blade] = coeff
        self.grade = grade
        self.terms = cleaned

    @classmethod
    def _raw(cls, grade, terms):
        self = object.__new__(cls)
        self.grade = grade
        self.terms = terms
        return self

    @classmethod
    def zero(cls, grade):
        return cls._raw(grade, {})

    @classmethod
    def from_poly(cls, poly):
        poly = _coerce_poly(poly)
        return cls._raw(0, {} if poly.is_zero() else {(): poly})

    @classmethod
    def coordinate(cls, index):
        """The grade-1 basis element for one coordinate."""
        if index < 0:
            raise ValueError("coordinate indices are natural numbers")
        return cls._raw(1, {(index,): Poly.one()})

    @classmethod
    def blade(cls, indices, coefficient=1):
        """coefficient * basis blade on the given strictly increasing indices."""
        indices = tuple(indices)
        return cls(len(indices), {indices: _coerce_poly(coefficient)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, blade) -> Poly:
        return self.terms.get(tuple(blade), Poly.zero())

    def sorted_terms(self):
        return sorted(self.terms.items())

    def as_poly(self) -> Poly:
        if self.grade != 0:
            raise GradeError("only a grade-0 value is a bare polynomial")
        return self.terms.get((), Poly.zero())

    def support(self) -> set:
        """All coordinate indices touched by blades or coefficients."""
        seen = set()
        for blade, coeff in self.terms.items():
            seen.update(blade)
            seen.update(coeff.variables())
        return seen

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.grade == other.grade and self.terms == other.terms

    __hash__ = None

    # -- linear operations ---------------------------------------------------

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """``self + sign * other``; only the blades of ``other`` are rebuilt."""
        if type(other) is not type(self):
            return NotImplemented
        if other.grade != self.grade:
            raise GradeError(
                f"cannot add grade {self.grade} and grade {other.grade} values"
            )
        merged = dict(self.terms)
        for blade, coeff in other.terms.items():
            acc = merged.get(blade)
            if acc is None:
                value = coeff if sign > 0 else -coeff
            else:
                value = acc.__add__(coeff, sign)
            if value:
                merged[blade] = value
            else:
                del merged[blade]
        return type(self)._raw(self.grade, merged)

    def __neg__(self):
        return type(self)._raw(self.grade, {b: -c for b, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            factor = _coerce_poly(other)
            if factor.is_zero():
                return type(self).zero(self.grade)
            # A product of two nonzero polynomials is nonzero.
            return type(self)._raw(
                self.grade, {blade: coeff * factor for blade, coeff in self.terms.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def wedge(self, other):
        if type(other) is not type(self):
            raise GradeError(
                "wedge requires two values of the same variance; "
                "got {} and {}".format(type(self).__name__, type(other).__name__)
            )
        out = {}
        for ba, ca in self.terms.items():
            for bb, cb in other.terms.items():
                sign, blade = _merge_blades(ba, bb)
                if sign:
                    _mac(out.setdefault(blade, {}), ca.terms, cb.terms, sign)
        return type(self)._raw(self.grade + other.grade, _wrap(out))

    # -- accumulation: a grade-1 value as blade sums -------------------------

    @staticmethod
    def _sums():
        return {}

    @classmethod
    def _of_sums(cls, out):
        """The grade-1 value of the blade sums ``out``, wrapped once."""
        return cls._raw(1, _wrap(out))

    def _add_into(self, out, f, sign=1):
        """Add ``sign * f * self`` into the blade sums ``out``; ``f`` is the
        terms of a function."""
        for blade, coeff in self.terms.items():
            _mac(out.setdefault(blade, {}), f, coeff.terms, sign)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, *duals) -> Poly:
        """Apply to ``grade`` many grade-1 values of the dual variance."""
        if len(duals) != self.grade:
            raise ArityError(
                f"grade {self.grade} value takes {self.grade} arguments, "
                f"got {len(duals)}"
            )
        dual_cls = _DUAL[type(self)]
        for dual in duals:
            if type(dual) is not dual_cls or dual.grade != 1:
                raise GradeError(
                    f"evaluation arguments must be grade-1 {dual_cls.__name__}s"
                )
        # Contracting the first slot expands det [a_i(X_j)] along its first
        # column, with the signs of the interior product's convention.
        value = self
        for dual in duals:
            value = interior_product(dual, value)
        return value.as_poly()

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        return render_alternating(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({render_alternating(self)})"


class KForm(_Alternating):
    """A differential form with polynomial coefficients."""

    __slots__ = ("_d",)  # the derivative, once de_rham has computed it
    _symbol = "dx"


class KVector(_Alternating):
    """A multivector field with polynomial coefficients."""

    __slots__ = ()
    _symbol = "e"


_DUAL = {KForm: KVector, KVector: KForm}


def render_alternating(value) -> str:
    """Canonical rendering; reparses to an equal value under the grammar."""
    if value.grade == 0:
        return render_poly(value.as_poly())
    if value.is_zero():
        return "0"
    symbol = value._symbol
    pieces = []
    for blade, coeff in value.sorted_terms():
        blade_str = " ^^ ".join(f"{symbol}[{i}]" for i in blade)
        items = coeff.sorted_terms()
        if len(items) == 1:
            negative = items[0][1] < 0
            magnitude = -coeff if negative else coeff
            if magnitude == 1:
                body = blade_str
            else:
                body = f"{render_poly(magnitude)} * {blade_str}"
            pieces.append((negative, body))
        else:
            pieces.append((False, f"({render_poly(coeff)}) * {blade_str}"))
    first_negative, first_body = pieces[0]
    text = ("-" if first_negative else "") + first_body
    for negative, body in pieces[1:]:
        text += (" - " if negative else " + ") + body
    return text


# -- operations ------------------------------------------------------------


def wedge(left, right):
    """Wedge product; bare polynomials are taken as grade-0 values."""
    if isinstance(left, (Poly, int, Fraction)):
        if isinstance(right, (Poly, int, Fraction)):
            return _coerce_poly(left) * _coerce_poly(right)
        left = type(right).from_poly(left)
    if isinstance(right, (Poly, int, Fraction)):
        right = type(left).from_poly(right)
    return left.wedge(right)


def interior_product(contractor, target):
    """Contract the first slot of ``target`` with a grade-1 dual value.

    Defined for a grade-1 KVector against a KForm of grade >= 1 and,
    dually, for a grade-1 KForm against a KVector of grade >= 1.
    """
    if type(contractor) not in _DUAL or type(target) not in _DUAL:
        raise TypeError("interior product needs a form/vector pair")
    if _DUAL[type(contractor)] is not type(target):
        raise GradeError("interior product needs values of opposite variance")
    if contractor.grade != 1:
        raise GradeError("the contracting value must have grade 1")
    if target.grade == 0:
        raise GradeError("cannot contract a grade-0 value")
    out = {}
    _contract(out, contractor, target)
    return type(target)._raw(target.grade - 1, _wrap(out))


def _contract(out, contractor, target, sign=1):
    """Add ``sign`` times the contraction of ``target`` by ``contractor`` into
    ``out``, blade by blade; a grade-1 target lands on the blade ``()``."""
    for (index,), component in contractor.terms.items():
        for blade, coeff in target.terms.items():
            if index in blade:
                pos = blade.index(index)
                sums = out.setdefault(blade[:pos] + blade[pos + 1 :], {})
                _mac(sums, component.terms, coeff.terms, -sign if pos & 1 else sign)


def vector_apply(field, function: Poly) -> Poly:
    """Apply a vector field to a function: X(f) = sum_i X^i del_i f."""
    if type(field) is not KVector or field.grade != 1:
        raise GradeError("vector_apply needs a grade-1 KVector")
    sums = {}
    _apply(sums, field, _coerce_poly(function).terms)
    return _poly(sums)


def _apply(out, field, f, sign=1):
    """Add ``sign`` times X(f) into the monomial sums ``out``; ``f`` is the
    terms of a function.

    The m products X^i del_i f are taken over Z, as ``_mac`` takes one: the
    components are scaled by the lcm of all their denominators and f by
    its own, the products are summed, and each output term is divided back
    once."""
    components = [(index, c.terms) for (index,), c in field.terms.items()]
    da = lcm(*[_denominator(terms) for _, terms in components])
    db = _denominator(f)
    if da == db == 1:
        for index, terms in components:
            _mac(out, terms, _derivative(f, index), sign)
        return
    acc = {}
    f = _scaled(f, db)
    for index, terms in components:
        _mac(acc, _scaled(terms, da), _derivative(f, index), sign)
    _unscale(out, acc, da * db)


def _differentiate(out, f, scale=1):
    """Add ``scale`` times d f into ``out`` as 1-form blade sums.  ``f`` is a
    monomial dict as ``_mac`` leaves it: zero or integral ``Fraction`` sums
    are allowed, and ``_wrap`` makes the result canonical."""
    for mono, coeff in f.items():
        if coeff:
            coeff *= scale
            for var, exp, rest in _partials(mono):
                sums = out.setdefault((var,), {})
                value = coeff * exp
                sums[rest] = sums[rest] + value if rest in sums else value


def lie_bracket(left, right):
    """Lie bracket of two vector fields: [X, Y](f) = X(Y(f)) - Y(X(f))."""
    for value in (left, right):
        if type(value) is not KVector or value.grade != 1:
            raise GradeError("lie_bracket is defined for grade-1 KVectors")
    return _wrapped(_lie, left, right)


def _lie(out, left, right, sign=1):
    """Add ``sign`` times [X, Y] into the blade sums ``out``."""
    for (j,), xj in left.terms.items():
        for (i,), yi in right.terms.items():
            _mac(out.setdefault((i,), {}), xj.terms, _derivative(yi.terms, j), sign)
            _mac(out.setdefault((j,), {}), yi.terms, _derivative(xj.terms, i), -sign)


def de_rham(form) -> KForm:
    """Exterior derivative, computed coordinatewise once per KForm."""
    if isinstance(form, (Poly, int, Fraction)):
        form = KForm.from_poly(form)
    if type(form) is not KForm:
        raise GradeError("de_rham expects a KForm or a polynomial")
    memo = getattr(form, "_d", None)
    if memo is not None:
        return memo
    out = {}
    for blade, coeff in form.terms.items():
        for var in coeff.variables():
            sign, new_blade = _insert_into_blade(blade, var)
            if sign:
                sums = out.setdefault(new_blade, {})
                _add_scaled(sums, _derivative(coeff.terms, var), sign)
    form._d = memo = KForm._raw(form.grade + 1, _wrap(out))
    return memo


def lie_derivative(field, form):
    """Lie derivative along a vector field: Cartan's formula on forms,
    the Schouten bracket on multivector fields, plain application on
    polynomials."""
    if type(field) is not KVector or field.grade != 1:
        raise GradeError("lie_derivative needs a grade-1 KVector")
    if isinstance(form, (Poly, int, Fraction)):
        return vector_apply(field, _coerce_poly(form))
    if type(form) is KVector:
        return schouten_bracket(field, form)
    if type(form) is not KForm:
        raise GradeError("lie_derivative acts on forms, fields, or polynomials")
    if form.grade == 0:
        return KForm.from_poly(vector_apply(field, form.as_poly()))
    return de_rham(interior_product(field, form)) + interior_product(
        field, de_rham(form)
    )


def schouten_bracket(left, right) -> KVector:
    """Schouten bracket of multivector fields, in the classical convention.

    On decomposable terms with blades I (|I| = a) and J:

        [f e_I, g e_J] = sum_k (-1)^(k+1) f del_{i_k}(g) e_{I\\i_k} ^ e_J
                       + (-1)^a sum_l (-1)^(l+1) g del_{j_l}(f) e_I ^ e_{J\\j_l}

    (1-based positions k, l).  This convention satisfies
    [P, Q] = (-1)^(pq) [Q, P], restricts to the Lie bracket on vector
    fields and to X(f) for a field against a function, and is a graded
    right-derivation in each slot.
    A position whose index does not occur in the coefficient it would
    differentiate adds nothing, and is skipped before blades are merged.
    """
    if isinstance(left, (Poly, int, Fraction)):
        left = KVector.from_poly(left)
    if isinstance(right, (Poly, int, Fraction)):
        right = KVector.from_poly(right)
    if type(left) is not KVector or type(right) is not KVector:
        raise GradeError("schouten_bracket is defined for KVectors")
    out = {}
    a = left.grade
    right_terms = [(blade_j, g, g.variables()) for blade_j, g in right.terms.items()]
    for blade_i, f in left.terms.items():
        f_vars = f.variables()
        for blade_j, g, g_vars in right_terms:
            for k, i_k in enumerate(blade_i):
                if i_k in g_vars:
                    sign, blade = _merge_blades(blade_i[:k] + blade_i[k + 1 :], blade_j)
                    if sign:
                        sums = out.setdefault(blade, {})
                        _mac(sums, f.terms, _derivative(g.terms, i_k), sign * (-1) ** k)
            for l, j_l in enumerate(blade_j):
                if j_l in f_vars:
                    sign, blade = _merge_blades(blade_i, blade_j[:l] + blade_j[l + 1 :])
                    if sign:
                        sums = out.setdefault(blade, {})
                        _mac(sums, g.terms, _derivative(f.terms, j_l), sign * (-1) ** (a + l))
    return KVector._raw(max(a + right.grade - 1, 0), _wrap(out))
