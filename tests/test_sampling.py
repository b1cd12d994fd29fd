"""The seeded sampler against its add-chain definition.

Each value is the sum of its draws: ``poly`` adds one-term polynomials and
``kform``/``kvector`` add one-blade values, in the order of the draws.  The
sampler builds each value in one dict; the reference below adds the same
draws one at a time with the validating constructors and ``+``.  Both must
give equal, canonical values and leave the random stream in the same state,
including when draws cancel.
"""

from fractions import Fraction
from itertools import product

import pytest

from algebroid.exterior import KForm, KVector
from algebroid.poly import Poly
from algebroid.sampling import Sampler

from conftest import is_canonical


def reference_coefficient(sampler):
    """One draw of a nonzero integer coefficient in [-3, 3]."""
    return Fraction(sampler.rng.choice((-3, -2, -1, 1, 2, 3)))


def reference_poly(sampler, support, degree, terms):
    total = Poly.zero()
    for _ in range(terms):
        total = total + Poly({sampler.monomial(support, degree): reference_coefficient(sampler)})
    return total


def reference_alternating(cls, sampler, grade, support, degree, terms):
    total = cls.zero(grade)
    for _ in range(terms):
        blade = sampler.blade(support, grade)
        total = total + cls(grade, {blade: reference_poly(sampler, support, degree, 1)})
    return total


# A support of one or two variables and degree at most 1 makes repeated
# monomials and blades common, so draws often cancel.
SUPPORTS = ((0,), (0, 1), (1, 3, 4))


class TestAgainstAddChain:
    @pytest.mark.parametrize("support", SUPPORTS)
    def test_poly(self, support):
        cancelled = 0
        for seed, degree, terms in product(range(40), (0, 1, 2), range(6)):
            got, want = Sampler(seed), Sampler(seed)
            value = got.poly(support, degree, terms)
            assert value == reference_poly(want, support, degree, terms)
            assert is_canonical(value)
            assert got.rng.getstate() == want.rng.getstate()
            cancelled += _cancels(Sampler(seed), support, degree, terms)
        assert cancelled

    @pytest.mark.parametrize("cls", [KForm, KVector])
    @pytest.mark.parametrize("support", SUPPORTS)
    def test_alternating(self, cls, support):
        draw = Sampler.kform if cls is KForm else Sampler.kvector
        cancelled = 0
        for seed, grade, terms in product(range(40), range(len(support) + 1), range(5)):
            got, want = Sampler(seed), Sampler(seed)
            value = draw(got, grade, support, 1, terms)
            assert type(value) is cls and value.grade == grade
            assert value == reference_alternating(cls, want, grade, support, 1, terms)
            assert is_canonical(value)
            assert got.rng.getstate() == want.rng.getstate()
            cancelled += bool(terms) and value.is_zero()
        assert cancelled

    def test_stream_of_mixed_draws(self):
        # One sampler serves every kind of draw in turn; the stream stays in
        # step with the reference across them.
        for seed in range(20):
            got, want = Sampler(seed), Sampler(seed)
            for _ in range(5):
                assert got.nonzero_poly((0, 1), 1) == _nonzero(want, (0, 1), 1)
                assert got.vector_field((0, 1, 2), 2) == reference_alternating(
                    KVector, want, 1, (0, 1, 2), 2, 2
                )
                assert got.oneform((0, 1, 2), 2, 3) == reference_alternating(
                    KForm, want, 1, (0, 1, 2), 2, 3
                )
            assert got.rng.getstate() == want.rng.getstate()

    def test_grade_beyond_support(self):
        with pytest.raises(ValueError):
            Sampler(1).kform(3, (0, 1), 1)


def _cancels(sampler, support, degree, terms) -> bool:
    """Whether the coefficients drawn on some monomial sum to zero."""
    sums = {}
    for _ in range(terms):
        mono = sampler.monomial(support, degree)
        sums[mono] = sums.get(mono, 0) + reference_coefficient(sampler)
    return 0 in sums.values()


def _nonzero(sampler, support, degree):
    while True:
        value = reference_poly(sampler, support, degree, 2)
        if not value.is_zero():
            return value


