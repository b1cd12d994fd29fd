"""Seeded random generators for property tests and for the inputs the CLI
draws for its sampled checks; no library check draws its own.

Draws are uniform over the monomials of bounded total degree and over the
blades of a given grade on the support; coefficients are nonzero integers
in [-3, 3].  All randomness flows through one ``random.Random`` instance,
so a seed pins the entire stream and every report is reproducible.
"""

from __future__ import annotations

import random
from math import comb

from algebroid.courant import GeneralizedSection
from algebroid.errors import TruncationTooLarge
from algebroid.exterior import KForm, KVector, _wrap
from algebroid.poly import Poly, _poly, monomials_of_degree

_COEFFS = (-3, -2, -1, 1, 2, 3)
# The most monomials a draw may choose from: the pool is enumerated before
# the first draw, and 80,601 monomials (support 0..400, degree 2) take about
# 0.24 s, 3,108,105 about 17 s (2 vCPU, CPython 3.11.7).
MAX_POOL = 100_000


def monomials_up_to(support, degree):
    """All monomials over ``support`` with total degree <= ``degree``.

    Returned in the canonical (graded-lex ascending) order used everywhere
    a deterministic basis enumeration is needed: degree by degree.
    """
    return [mono for d in range(degree + 1) for mono in monomials_of_degree(support, d)]


class Sampler:
    """A seeded source of random polynomials, forms, and multivectors."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self._pools = {}

    def _monomial_pool(self, support, degree):
        key = (tuple(sorted(set(support))), degree)
        pool = self._pools.get(key)
        if pool is None:
            count = len(key[0])
            size = comb(count + degree, degree)
            if size > MAX_POOL:
                raise TruncationTooLarge(
                    f"sampling at degree {degree} over {count} variables draws "
                    f"from {size} monomials (limit {MAX_POOL})"
                )
            pool = monomials_up_to(*key)
            self._pools[key] = pool
        return pool

    def monomial(self, support, degree):
        return self.rng.choice(self._monomial_pool(support, degree))

    def poly(self, support, degree, terms: int = 2) -> Poly:
        sums = {}
        if terms:
            self._add_terms(sums, self._monomial_pool(support, degree), terms)
        return _poly(sums)

    def _add_terms(self, sums, pool, terms):
        """Draw ``terms`` (monomial of ``pool``, coefficient) pairs into ``sums``."""
        choice = self.rng.choice
        for _ in range(terms):
            mono = choice(pool)
            sums[mono] = sums.get(mono, 0) + choice(_COEFFS)

    def nonzero_poly(self, support, degree, terms: int = 2) -> Poly:
        while True:
            value = self.poly(support, degree, terms)
            if not value.is_zero():
                return value

    def blade(self, support, grade):
        support = sorted(set(support))
        if grade > len(support):
            raise ValueError("grade exceeds the support size")
        return tuple(sorted(self.rng.sample(support, grade)))

    def kform(self, grade, support, degree, terms: int = 2) -> KForm:
        return KForm._raw(grade, self._blades(grade, support, degree, terms))

    def kvector(self, grade, support, degree, terms: int = 2) -> KVector:
        return KVector._raw(grade, self._blades(grade, support, degree, terms))

    def _blades(self, grade, support, degree, terms):
        """``terms`` draws of a blade with a one-term coefficient, summed;
        the sorted support and the monomial pool are looked up once."""
        out = {}
        if terms:
            support = sorted(set(support))
            if grade > len(support):
                raise ValueError("grade exceeds the support size")
            pool = self._monomial_pool(support, degree)
            for _ in range(terms):
                blade = tuple(sorted(self.rng.sample(support, grade)))
                self._add_terms(out.setdefault(blade, {}), pool, 1)
        return _wrap(out)

    def oneform(self, support, degree, terms: int = 2) -> KForm:
        return self.kform(1, support, degree, terms)

    def vector_field(self, support, degree, terms: int = 2) -> KVector:
        return self.kvector(1, support, degree, terms)

    def section(self, support, degree, terms: int = 2) -> GeneralizedSection:
        return GeneralizedSection(
            self.vector_field(support, degree, terms),
            self.oneform(support, degree, terms),
        )
