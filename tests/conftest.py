"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

import algebroid
from algebroid.errors import NotInvertible
from algebroid.exterior import interior_product
from algebroid.poly import Poly
from algebroid.symplectic import ConstantSymplectic

# ``HYPOTHESIS_PROFILE=ci`` runs every property test on more examples, with
# no deadline; a test's own ``@settings`` still wins over the profile.
settings.register_profile("ci", max_examples=500, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

FIXTURES = Path(__file__).parent / "fixtures"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def console_script(name: str) -> list[str]:
    """The argv prefix that runs console script ``name`` without an install.

    The target comes from ``[project.scripts]`` in ``pyproject.toml`` and is
    run the way the script generated at install time runs it: import the
    attribute, call it, exit with its return value.  A missing key is a
    ``KeyError``; a target that does not import or is not callable makes the
    child exit 1.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    code = (
        f"import sys; sys.argv[0] = {name!r}; "
        f"from {module} import {attr}; sys.exit({attr}())"
    )
    return [sys.executable, "-c", code]


def child_env() -> dict[str, str]:
    """The environment for a child interpreter that must import this ``algebroid``.

    ``PYTHONPATH`` starts with the absolute directory holding the package the
    test process imported, so the child loads the same code whatever the
    working directory.
    """
    env = dict(os.environ)
    src = str(Path(algebroid.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def accumulating(bracket):
    """The accumulating form of a plain bracket ``(a, b) -> section``, as
    ``AlgebroidStructure`` and ``check_courant_axioms`` take a bracket: it
    adds ``sign * bracket(a, b)`` into the sums ``out``."""

    def add_bracket(out, a, b, sign=1):
        bracket(a, b)._add_into(out, Poly.one().terms, sign)

    return add_bracket


def sgn(n: int) -> int:
    """(-1)**n as an exact integer (Python's ** returns a float for n < 0)."""
    return -1 if n % 2 else 1


def sparse_rows(rows):
    """Dense reference rows as the sparse rows ``linalg`` takes: lists of
    (column, nonzero value) pairs."""
    return [[(j, value) for j, value in enumerate(row) if value] for row in rows]


def poincare_counts(m, degree, grade):
    """(cocycles, coboundaries, dim) at ``grade``: m variables, degree <= ``degree``.

    Each strand (grade and coefficient degree fixed) is exact away from
    (0, 0).  With C(j, e) = C(m, j) * C(m + e - 1, e) cochains of grade j
    and coefficient degree exactly e, the cocycles at (k, d) are
    Z(0, d) = [d = 0] and Z(k, d) = C(k - 1, d + 1) - Z(k - 1, d + 1).
    """

    def cochains(j, e):
        return comb(m, j) * comb(m + e - 1, e)

    @lru_cache(maxsize=None)
    def cocycles_at(k, d):
        if k == 0:
            return int(d == 0)
        return cochains(k - 1, d + 1) - cocycles_at(k - 1, d + 1)

    cocycles = sum(cocycles_at(grade, d) for d in range(degree + 1))
    coboundaries = 0
    if grade:
        coboundaries = sum(
            cochains(grade - 1, e) - cocycles_at(grade - 1, e) for e in range(degree + 2)
        )
    return cocycles, coboundaries, cocycles - coboundaries


def graded_zero_sum(values) -> bool:
    """True when the values sum to zero, ignoring identically zero terms.

    Graded brackets of mismatched inputs can produce zero values whose
    nominal grades differ (a bracket clamps its result grade even when
    everything cancels), so a naive sum raises; dropping exact zeros first
    keeps the assertion honest: any surviving values must share a grade and
    cancel.
    """
    live = [value for value in values if not value.is_zero()]
    if not live:
        return True
    total = live[0]
    for value in live[1:]:
        if value.grade != total.grade:
            return False
        total = total + value
    return total.is_zero()


def is_canonical(value) -> bool:
    """True when a Poly, KForm or KVector is stored canonically: no blade
    with a zero coefficient, and every coefficient a nonzero int or a
    Fraction that is not integral."""
    if isinstance(value, Poly):
        polys = [value]
    else:
        polys = list(value.terms.values())
        if not all(polys):
            return False
    return all(
        c and (type(c) is int or (type(c) is Fraction and c.denominator > 1))
        for poly in polys
        for c in poly.terms.values()
    )


# -- hypothesis strategies for the constant-structure calculus ----------------

# Indices run past every explicit block below, so values reach unpaired
# coordinates too.
INDICES = tuple(range(8))

coefficients = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3)
)
monomials = st.dictionaries(
    st.sampled_from(INDICES), st.integers(min_value=1, max_value=2), max_size=2
).map(lambda d: tuple(sorted(d.items())))
polys = st.dictionaries(monomials, coefficients, max_size=3).map(Poly)


def blades(grade):
    return st.sets(st.sampled_from(INDICES), min_size=grade, max_size=grade).map(
        lambda s: tuple(sorted(s))
    )


def alternating(cls, grade):
    """Values of ``cls`` (KForm or KVector) of one grade over ``INDICES``."""
    return st.dictionaries(blades(grade), polys, max_size=3).map(
        lambda terms: cls(grade, terms)
    )


@st.composite
def constant_structures(draw):
    """The standard structure, or an invertible explicit block of size 2 or 4
    on indices below 6 with rational entries."""
    if draw(st.booleans()):
        return ConstantSymplectic.standard()
    size = draw(st.sampled_from((2, 4)))
    block = sorted(
        draw(st.sets(st.integers(min_value=0, max_value=5), min_size=size, max_size=size))
    )
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            matrix[i][j] = draw(coefficients)
            matrix[j][i] = -matrix[i][j]
    try:
        return ConstantSymplectic.explicit(block, matrix)
    except NotInvertible:
        assume(False)


def reference_sharp_components(w, j):
    """Components of sharp(dx_j) read straight off the closed form or the
    inverse matrix, as [(index, Fraction)], or None if unpaired."""
    if w.kind == "standard":
        return [(j + 1, Fraction(1))] if j % 2 == 0 else [(j - 1, Fraction(-1))]
    if j not in w.block:
        return None
    col = w.block.index(j)
    return [
        (w.block[a], w.inverse[a][col])
        for a in range(len(w.block))
        if w.inverse[a][col]
    ]


def flat_by_omega(w, field):
    """i_X omega for a grade-1 field X, with omega over X's indices."""
    return interior_product(field, w.materialize(field.support()))


def sharp_by_pi(w, oneform):
    """i_a pi for a 1-form a, after the strict check of a's indices in terms
    order: NotInvertible at the first unpaired one."""
    return interior_product(oneform, w.strict_bivector([i for (i,) in oneform.terms]))


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
