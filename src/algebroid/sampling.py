"""Seeded random generators for property tests and randomized checks.

Draws are uniform over the monomials of bounded total degree and over the
blades of a given grade on the support; coefficients are nonzero integers
in [-3, 3].  All randomness flows through one ``random.Random`` instance,
so a seed pins the entire stream and every report is reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from algebroid.exterior import KForm, KVector
from algebroid.poly import Poly

_COEFFS = (-3, -2, -1, 1, 2, 3)


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
    return sorted(out)


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
            pool = monomials_up_to(*key)
            self._pools[key] = pool
        return pool

    def coefficient(self) -> Fraction:
        return Fraction(self.rng.choice(_COEFFS))

    def monomial(self, support, degree):
        return self.rng.choice(self._monomial_pool(support, degree))

    def poly(self, support, degree, terms: int = 2) -> Poly:
        total = Poly.zero()
        for _ in range(terms):
            total = total + Poly({self.monomial(support, degree): self.coefficient()})
        return total

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
        total = KForm.zero(grade)
        for _ in range(terms):
            blade = self.blade(support, grade)
            total = total + KForm(grade, {blade: self.poly(support, degree, 1)})
        return total

    def kvector(self, grade, support, degree, terms: int = 2) -> KVector:
        total = KVector.zero(grade)
        for _ in range(terms):
            blade = self.blade(support, grade)
            total = total + KVector(grade, {blade: self.poly(support, degree, 1)})
        return total

    def oneform(self, support, degree, terms: int = 2) -> KForm:
        return self.kform(1, support, degree, terms)

    def vector_field(self, support, degree, terms: int = 2) -> KVector:
        return self.kvector(1, support, degree, terms)

    def section(self, support, degree, terms: int = 2):
        from algebroid.courant import GeneralizedSection

        return GeneralizedSection(
            self.vector_field(support, degree, terms),
            self.oneform(support, degree, terms),
        )
