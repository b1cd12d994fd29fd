"""Truncated cochain complexes and their cohomology by exact linear algebra.

A ``TruncationSpec`` fixes a finite coordinate support and a coefficient
degree bound D.  Grade-k cochains are spanned by (blade over the support,
monomial of degree <= bound) pairs.  Every differential handled here maps
a cochain of coefficient degree exactly d to one of degree exactly d - 1,
so each differential is a direct sum of strands, one sparse matrix per
(grade, exact degree), and its rank on a window is the sum of the strand
ranks.  A term of any other degree is an internal error.

- cocycles at grade k are taken with coefficient degree <= D: the strands
  (k, 0..D);
- coboundaries at grade k are images of grade-(k-1) cochains with
  coefficient degree <= D + 1: the strands (k - 1, 0..D + 1).

The quotient dimension is nullity(d restricted to degree <= D) minus
rank(d from degree <= D + 1).  Each strand is assembled and ranked once,
however many windows need it.  All ranks and kernels are exact (fraction-
free elimination over the integers after row scaling).

Three complexes are supported:

- ``"lp"``: multivector fields with the contravariant differential
  sigma = -[pi, .] of a Poisson bivector pi;
- ``"ce-tangent"``: the Chevalley-Eilenberg complex of the tangent
  structure (polynomial forms with the exterior derivative);
- ``"ce-cotangent"``: the Chevalley-Eilenberg complex of
  ``cotangent_algebroid(pi)`` (cochains are multivectors, evaluated on
  coordinate coframes).

``compute_cohomology`` takes pi itself, a grade-2 KVector over the
support (``ce-tangent`` reads none), and builds one image map from it.  The
support must be closed under the pairing, so that pi carries every partner
of its indices; the CLI checks this.  A grade above the support's size has
no blades: its window is (0, 0) and no strand of it is assembled.

Each differential is a derivation of degree one (sigma: Lichnerowicz 1977;
d_CE: Vaintrob 1997), so d(mono * e_blade) = d(mono) ^ e_blade +
mono * d(e_blade).  A strand combines the images of generators, each taken
once per call: the monomials at grade 0 and the unit blades.

Both CE complexes read two tables built once per call through the
structure: anchor(e_j) for each j in the support, and the nonzero e_l
components of [e_a, e_b] for a < b (for the cotangent structure, the Koszul
bracket, never sigma).  On coordinate sections mono * e_blade evaluates as
a signed lookup, so the CE formula keeps two sparse sums: the anchor term
(-1)^pos(j) anchor(e_j)(mono) on T = blade + {j}, and for each l in blade
the bracket term (-1)^(pos(a) + pos(b) + pos(l)) [e_a, e_b]^l mono on
T = blade - {l} + {a, b}, with pos(l) taken in blade and the others in T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb

from algebroid import linalg
from algebroid.algebroids import (
    _COCHAIN_KIND,
    _SECTION_KIND,
    ce_differential,
    contravariant_differential,
    cotangent_algebroid,
    tangent_algebroid,
)
from algebroid.errors import ResultTooLarge, TruncationTooLarge
from algebroid.exterior import KVector, _insert_into_blade, _wrap
from algebroid.exterior import schouten_bracket, vector_apply
from algebroid.poly import CONSTANT_MONOMIAL, GUARD, MAX_EXPONENT, Poly, _add_scaled, _mac
from algebroid.poly import _normal, monomial_degree, monomials_of_degree

DEFAULT_MAX_BASIS = 20000

COMPLEXES = ("lp", "ce-tangent", "ce-cotangent")


@dataclass(frozen=True)
class TruncationSpec:
    """A finite support and a coefficient degree bound."""

    support: tuple
    degree: int

    def __post_init__(self):
        support = tuple(sorted(set(self.support)))
        if any(i < 0 for i in support):
            raise ValueError("support indices are natural numbers")
        if self.degree < 0:
            raise ValueError("the degree bound must be nonnegative")
        object.__setattr__(self, "support", support)


def blade_basis(support, grade):
    return list(combinations(tuple(sorted(set(support))), grade))


def _guard_basis(spec, grade, degree, max_basis):
    m = len(spec.support)
    size = comb(m, grade) * comb(m + degree, degree)
    if size > max_basis:
        raise TruncationTooLarge(
            f"grade {grade} at degree {degree} needs {size} basis elements "
            f"(limit {max_basis})"
        )
    return size


def _differential(complex_name, pi, spec):
    """A map (grade, blade, monomial) -> image object of grade + 1; ``lp``
    and ``ce-cotangent`` read pi, ``ce-tangent`` ignores it."""
    if complex_name == "ce-tangent":
        return _ce_image(tangent_algebroid(), spec.support)
    if complex_name == "ce-cotangent":
        return _ce_image(cotangent_algebroid(pi), spec.support)
    minus_pi = -pi

    def image(grade, blade, mono):
        return schouten_bracket(minus_pi, KVector._raw(grade, {blade: Poly({mono: 1})}))

    return image


def _ce_image(structure, support):
    """The Chevalley-Eilenberg image map of ``structure`` on the coordinate
    basis over ``support``, built from its anchor and bracket tables."""
    section = _SECTION_KIND[structure.section_kind].coordinate
    cochain_cls = _COCHAIN_KIND[structure.section_kind]
    anchors = [(j, structure.anchor(section(j))) for j in support]
    brackets = {}  # l -> [(a, b, e_l component of [e_a, e_b])]
    for a, b in combinations(support, 2):
        for (l,), coeff in structure.bracket(section(a), section(b)).terms.items():
            brackets.setdefault(l, []).append((a, b, coeff))

    def image(grade, blade, mono):
        f = Poly._raw({mono: 1})
        out = {}
        for j, field in anchors:
            sign, target = _insert_into_blade(blade, j)
            if sign:
                _add_scaled(out.setdefault(target, {}), vector_apply(field, f).terms, sign)
        for pos, l in enumerate(blade):
            rest = blade[:pos] + blade[pos + 1 :]
            for a, b, coeff in brackets.get(l, ()):
                sign_a, with_a = _insert_into_blade(rest, a)
                sign, target = _insert_into_blade(with_a, b) if sign_a else (0, None)
                if sign:
                    sign *= sign_a * (-1) ** pos
                    _mac(out.setdefault(target, {}), coeff.terms, f.terms, sign)
        return cochain_cls._raw(grade + 1, dict(sorted(_wrap(out).items())))

    return image


def _leibniz(function_image, blade_image, mono, inserts):
    """d(mono * e_I) = d(mono) ^ e_I + mono * d(e_I) as {(target blade,
    monomial): nonzero scalar}, from ``function_image`` = d(mono),
    ``blade_image`` = d(e_I) and ``inserts[j]`` = (sign, target) of e_j ^ e_I.
    A guard bit in a shifted monomial raises ``ResultTooLarge``, as in ``_poly``."""
    out = {}
    for (j,), coeff in function_image.terms.items():
        sign, target = inserts[j]
        if sign:
            for out_mono, scalar in coeff.terms.items():
                out[target, out_mono] = sign * scalar
    for target, coeff in blade_image.terms.items():
        for out_mono, scalar in coeff.terms.items():
            out_mono += mono
            if out_mono & GUARD:
                raise ResultTooLarge(f"a product has an exponent larger than {MAX_EXPONENT}")
            key = target, out_mono
            if key in out:
                scalar = _normal(out[key] + scalar)
                if not scalar:
                    del out[key]
                    continue
            out[key] = scalar
    return out


def _assemble_strand(complex_name, image, spec, grade, degree, permute=None):
    """Sparse rows of the differential ``image`` on one strand, plus its domain.

    The domain is the grade-``grade`` basis with coefficient degree exactly
    ``degree`` (blade-major, monomials in canonical order; ``permute``
    shuffles it); it indexes the columns.  ``image`` is asked only for
    generators, d(mono) and d(e_blade); column (blade, mono) combines them
    by ``_leibniz``.  Rows are indexed by the (target blade, target monomial)
    pairs in the order the columns first reach them, and every target
    monomial must have degree ``degree - 1``.  Entries are exact rationals.
    """
    monos = monomials_of_degree(spec.support, degree)
    blades = blade_basis(spec.support, grade)
    domain = [(blade, mono) for blade in blades for mono in monos]
    if permute is not None:
        permute.shuffle(domain)
    function_images = {mono: image(0, (), mono) for mono in monos}
    blade_images = {blade: image(grade, blade, CONSTANT_MONOMIAL) for blade in blades}
    inserts = {blade: {j: _insert_into_blade(blade, j) for j in spec.support} for blade in blades}
    row_index = {}
    rows = []
    for col, (blade, mono) in enumerate(domain):
        combined = _leibniz(function_images[mono], blade_images[blade], mono, inserts[blade])
        for key, scalar in combined.items():
            if monomial_degree(key[1]) != degree - 1:
                raise AssertionError(
                    f"the {complex_name} image of {(blade, mono)} has a term of degree "
                    f"{monomial_degree(key[1])}, outside strand ({grade}, {degree})"
                )
            row = row_index.get(key)
            if row is None:
                row_index[key] = len(rows)
                rows.append([(col, scalar)])
            else:
                rows[row].append((col, scalar))
    return rows, domain


@dataclass
class GradeDims:
    cocycles: int
    coboundaries: int
    dim: int


@dataclass
class CohomologyReport:
    complex_name: str
    support: tuple
    degree: int
    grades: dict  # grade -> GradeDims

    def table(self):
        return {k: (v.cocycles, v.coboundaries, v.dim) for k, v in sorted(self.grades.items())}


def compute_cohomology(
    complex_name,
    pi,
    spec: TruncationSpec,
    grades,
    max_basis: int = DEFAULT_MAX_BASIS,
    _permute=None,
) -> CohomologyReport:
    """Cocycle, coboundary, and quotient dimensions per requested grade."""
    grades = sorted(set(grades))
    if any(g < 0 for g in grades):
        raise ValueError("grades are nonnegative")

    out = {}
    strand_ranks = {}
    # the image of each generator, computed once in this call
    image = cache(_differential(complex_name, pi, spec))

    def window_rank(grade, degree):
        """(rank, size) of the differential on grade-``grade`` cochains of
        coefficient degree <= ``degree``; (0, 0) above the support's size,
        where there are no blades and no strand is assembled."""
        size = _guard_basis(spec, grade, degree, max_basis)
        if not size:
            return 0, 0
        for d in range(degree + 1):
            if (grade, d) not in strand_ranks:
                rows, domain = _assemble_strand(complex_name, image, spec, grade, d, _permute)
                strand_ranks[grade, d] = linalg.rank(rows, len(domain))
        return sum(strand_ranks[grade, d] for d in range(degree + 1)), size

    for grade in grades:
        rank_here, size_here = window_rank(grade, spec.degree)
        cocycles = size_here - rank_here
        coboundaries = window_rank(grade - 1, spec.degree + 1)[0] if grade else 0
        quotient = cocycles - coboundaries
        # image sits inside the kernel (d^2 = 0), so the quotient is a dimension
        if quotient < 0:
            raise AssertionError(
                "coboundaries exceeded cocycles; the degree window is inconsistent"
            )
        out[grade] = GradeDims(cocycles, coboundaries, quotient)
    return CohomologyReport(
        complex_name=complex_name,
        support=spec.support,
        degree=spec.degree,
        grades=out,
    )


@dataclass
class AgreementReport:
    mismatches: list
    lp_table: dict
    ce_table: dict
    tables_equal: bool
    passed: bool


def check_lp_ce_agreement(
    pi: KVector,
    spec: TruncationSpec,
    grades,
    cases,
    max_basis: int = DEFAULT_MAX_BASIS,
) -> AgreementReport:
    """Check that the contravariant differential is the Chevalley-Eilenberg
    differential of the cotangent structure, then compare the two truncated
    cohomology tables.

    The operator identity is checked on each case (grade k, grade-k
    multivector, k + 1 one-forms) of ``cases``, read once, by comparing both
    evaluations exactly.  The tables are computed by the same exact pipeline
    on both complexes.
    """
    mismatches = []
    for grade, field, args in cases:
        # A structure per case: its anchor memo holds this case's forms only.
        lhs = ce_differential(cotangent_algebroid(pi), field, args)
        rhs = contravariant_differential(pi, field).evaluate(*args)
        if lhs != rhs:
            mismatches.append((grade, field, args, lhs - rhs))
    lp = compute_cohomology("lp", pi, spec, grades, max_basis)
    ce = compute_cohomology("ce-cotangent", pi, spec, grades, max_basis)
    tables_equal = lp.table() == ce.table()
    return AgreementReport(
        mismatches=mismatches,
        lp_table=lp.table(),
        ce_table=ce.table(),
        tables_equal=tables_equal,
        passed=not mismatches and tables_equal,
    )
