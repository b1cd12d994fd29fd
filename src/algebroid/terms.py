"""Term tables and the accumulating kernels that read them.

A KForm's or KVector's ``_Table`` holds its terms over Z: one common
denominator ``den``, the lcm of all its coefficients' denominators, and per
blade the ``(monomial, den * coefficient)`` pairs.  It is built on the
first kernel use and kept on the value, as ``exterior.de_rham`` keeps d;
values are immutable, so it stays right.  Two indexes are built on it when
a kernel first asks: ``dvars``, every coefficient's partials grouped by
variable, and ``slots``, the blades grouped by the index a contraction
removes.

The kernels loop over pairs of terms and add into the caller's blade sums:
``_contract`` adds an interior product, ``_apply`` X(f), ``_along``
sum_j x^j del_j t and ``_across`` sum_j x_j del_i t^j.  Each multiplies
over Z and divides each output term back once (``_settle``), the rule of
``poly._mac``, so int and rational values take one path.  A table may also
be built from raw sums as ``_mac`` leaves them, which is how a value that
is never wrapped, such as an evaluation's partial contraction, is read.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from algebroid.errors import ResultTooLarge
from algebroid.poly import FIELD, GUARD, MAX_EXPONENT, MAX_VARIABLES, W, _unscale, _variables


class _Table:
    """A value's terms over Z, for the kernels.

    ``den`` is the lcm of the coefficients' denominators; ``blades`` maps
    each blade to a list of its ``(monomial, den * coefficient)`` pairs,
    all ints.  ``items`` are
    ``(blade, monomial sums)`` pairs, canonical or raw as ``_mac`` leaves
    them: zero sums are dropped, and a key with a guard bit raises
    ``ResultTooLarge``, as in ``_poly``.

    Built by ``_dvars`` on first use, ``dvars`` maps ``(v,)`` to a flat list
    of ``blade, monomial / x_v, den * coefficient * exponent`` triples: the
    terms of every coefficient's del_v (flat, as a tuple per term would cost
    more memory than the terms).  Built by ``_slots``, ``slots`` maps
    ``(i,)`` to the ``(blade without i, sign, pairs)`` of each blade that
    holds i, with the interior product's sign: the blades a contraction by
    e_i or dx_i reads."""

    __slots__ = ("den", "blades", "dvars", "slots")

    def __init__(self, items):
        den = 1
        union = 0
        clean = True  # every sum a nonzero int: the pairs are the items
        blades = {}
        for blade, terms in items:
            for mono, c in terms.items():
                union |= mono
                if type(c) is not int or not c:
                    clean = False
                    if type(c) is Fraction:
                        den = lcm(den, c.denominator)
            blades[blade] = list(terms.items())
        if union & GUARD:
            raise ResultTooLarge(f"a product has an exponent larger than {MAX_EXPONENT}")
        if not clean:
            for blade, pairs in list(blades.items()):
                pairs = [
                    (m, c * den if type(c) is int else c.numerator * (den // c.denominator))
                    for m, c in pairs
                    if c
                ]
                if pairs:
                    blades[blade] = pairs
                else:
                    del blades[blade]
        self.den = den
        self.blades = blades
        self.dvars = self.slots = None


def _table(value):
    """The ``_Table`` of a KForm or KVector, built on first use and kept on
    it, as ``de_rham`` keeps d: values are immutable."""
    table = value._tab
    if table is None:
        table = value._tab = _Table([(b, c.terms) for b, c in value.terms.items()])
    return table


def _dvars(table):
    dvars = table.dvars
    if dvars is None:
        dvars = table.dvars = {}
        items = table.blades.items()
        for var in _variables(mono for pairs in table.blades.values() for mono, _ in pairs):
            shift = W * var
            unit = 1 << shift
            entries = dvars[(var,)] = []
            for blade, pairs in items:
                for mono, num in pairs:
                    exp = mono >> shift & FIELD
                    if exp:
                        entries += (blade, mono - unit, num * exp)
    return dvars


def _slots(table):
    slots = table.slots
    if slots is None:
        slots = table.slots = {}
        for blade, pairs in table.blades.items():
            if len(blade) == 1:
                slots[blade] = [((), 1, pairs)]
                continue
            for pos, index in enumerate(blade):
                entry = (blade[:pos] + blade[pos + 1 :], -1 if pos & 1 else 1, pairs)
                slots.setdefault((index,), []).append(entry)
    return slots


def _settle(out, acc, scale):
    """Add the blade sums ``acc``, taken over Z at ``scale``, into ``out``:
    nothing to do when ``acc`` is ``out`` (``scale`` 1), and one
    ``Fraction`` per term otherwise."""
    if scale != 1:
        for blade, sums in acc.items():
            _unscale(out.setdefault(blade, {}), sums, scale)


def _contract(out, contractor, target, sign=1):
    """Add ``sign`` times the contraction of ``target`` by ``contractor`` into
    ``out``, blade by blade; a grade-1 target lands on the blade ``()``.
    ``target`` may also be the ``_Table`` of raw blade sums."""
    tc = contractor._tab or _table(contractor)
    tt = target if type(target) is _Table else target._tab or _table(target)
    scale = tc.den * tt.den
    acc = out if scale == 1 else {}
    slots = tt.slots or _slots(tt)
    for index, factors in tc.blades.items():
        for blade, k, pairs in slots.get(index, ()):
            k *= sign
            sums = acc.setdefault(blade, {})
            get = sums.get
            for ma, ca in factors:
                ca *= k
                for mb, cb in pairs:
                    mono = ma + mb
                    sums[mono] = get(mono, 0) + ca * cb
    _settle(out, acc, scale)


def _along(acc, x, t, k):
    """Add ``k`` times x(t) into the blade sums ``acc``: sum_j x^j del_j t_I
    on each blade I of ``t``, for the ``_Table`` of a grade-1 ``x``."""
    dvars = t.dvars or _dvars(t)
    for index, factors in x.blades.items():
        entries = iter(dvars.get(index, ()))
        for blade, rest, d in zip(entries, entries, entries):
            d *= k
            sums = acc.setdefault(blade, {})
            get = sums.get
            for mono, c in factors:
                mono += rest
                sums[mono] = get(mono, 0) + c * d


def _across(acc, x, t, k):
    """Add ``k`` times sum_j x_j del_i t^j into the blade ``(i,)`` of
    ``acc``, for the ``_Table``s of two grade-1 values."""
    indices = x.blades
    for var, entries in (t.dvars or _dvars(t)).items():
        sums = None
        entries = iter(entries)
        for index, rest, d in zip(entries, entries, entries):
            factors = indices.get(index)
            if factors:
                if sums is None:
                    sums = acc.setdefault(var, {})
                    get = sums.get
                d *= k
                for mono, c in factors:
                    mono += rest
                    sums[mono] = get(mono, 0) + c * d


def _apply(out, field, f, sign=1):
    """Add ``sign`` times X(f) into the monomial sums ``out``; ``f`` is the
    terms of a function, or raw sums as ``_mac`` leaves them.

    f is read once per component X^i: a shift and a mask of each key give
    its exponent of x_i, so del_i f is never built.  The products are taken
    over Z at the scale of the two tables, and each output term is divided
    back once."""
    tx, tf = field._tab or _table(field), _Table((((), f),))
    scale = tx.den * tf.den
    acc = out if scale == 1 else {}
    get = acc.get
    terms = tf.blades.get((), ())
    for (index,), factors in tx.blades.items():
        if index < MAX_VARIABLES:
            shift = W * index
            unit = 1 << shift
            for mono, c in terms:
                exp = mono >> shift & FIELD
                if exp:
                    mono -= unit
                    c *= exp * sign
                    for m, x in factors:
                        m += mono
                        acc[m] = get(m, 0) + x * c
    if scale != 1:
        _unscale(out, acc, scale)
