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
however many windows need it, whole, by ``linalg``'s sparse integer
eliminator, so every rank is exact.

Three complexes are supported:

- ``"lp"``: multivector fields with the contravariant differential
  sigma = -[pi, .] of a Poisson bivector pi;
- ``"ce-tangent"``: the Chevalley-Eilenberg complex of the tangent
  structure (polynomial forms with the exterior derivative);
- ``"ce-cotangent"``: the Chevalley-Eilenberg complex of
  ``cotangent_algebroid(pi)`` (cochains are multivectors, evaluated on
  coordinate coframes).

``compute_cohomology`` takes pi itself, a grade-2 KVector over the
support (``ce-tangent`` reads none), and builds the generator tables from
it.  The support must be closed under the pairing, so that pi carries every
partner of its indices; the CLI checks this.  Every window the grades need
is checked against ``max_basis`` before any table is built.  A grade above
the support's size has no blades: its window is (0, 0) and no strand of it
is assembled.

Each differential is a derivation of degree one (sigma: Lichnerowicz 1977;
d_CE: Vaintrob 1997), so ``_generators`` fixes it by the images of the 2m
generators over the support: a table of d(x_j), of grade 1, built once a
monomial of degree >= 1 is imaged, and one of d(e_l), of grade 2, built once
a blade of grade >= 1 is.  ``lp`` takes them from the Schouten bracket with
-pi, both CE complexes from the structure's anchor and bracket (never
sigma), so the ``lp`` and ``ce-cotangent`` tables come from two codes.  One
extension serves all three: d(mono) = sum_j (del_j mono) d(x_j), once per
monomial; d(e_I) = sum_p (-1)^p d(e_{I_p}) ^ e_{I - I_p}, once per blade;
and each column is d(mono * e_I) = d(mono) ^ e_I + mono * d(e_I).
"""

from __future__ import annotations

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
from algebroid.exterior import KVector, _insert_into_blade, _merge_blades, _wrap, schouten_bracket
from algebroid.poly import GUARD, MAX_EXPONENT, Poly, _add_scaled, _mac, _normal, _partials
from algebroid.poly import monomial_degree, monomials_of_degree

DEFAULT_MAX_BASIS = 20000

COMPLEXES = ("lp", "ce-tangent", "ce-cotangent")


class TruncationSpec:
    """A finite support and a coefficient degree bound."""

    __slots__ = ("support", "degree")

    def __init__(self, support, degree: int):
        self.support = tuple(sorted(set(support)))
        if any(i < 0 for i in self.support):
            raise ValueError("support indices are natural numbers")
        if degree < 0:
            raise ValueError("the degree bound must be nonnegative")
        self.degree = degree


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


def _generators(complex_name, pi, support, grade):
    """The generator images over ``support`` that are cochains of ``grade``:
    {j: d(x_j)} for grade 1, {l: d(e_l)} for grade 2.  Schouten brackets with
    -pi for ``lp``; for both CE complexes d(x_j)(e_a) = anchor(e_a)(x_j) and
    d(e^l)(e_a, e_b) = -[e_a, e_b]^l."""
    if complex_name == "lp":
        generator = Poly.variable if grade == 1 else KVector.coordinate
        minus_pi = -pi
        return {j: schouten_bracket(minus_pi, generator(j)) for j in support}
    structure = tangent_algebroid() if complex_name == "ce-tangent" else cotangent_algebroid(pi)
    # one section per coordinate: the cotangent structure anchors each once
    section = {a: _SECTION_KIND[structure.section_kind].coordinate(a) for a in support}
    table = {j: {} for j in support}
    if grade == 1:
        for a in support:
            for (j,), coeff in structure.anchor(section[a]).terms.items():
                if j in table:
                    table[j][a,] = coeff
    else:
        for a, b in combinations(support, 2):
            for (l,), coeff in structure.bracket(section[a], section[b]).terms.items():
                if l in table:
                    table[l][a, b] = -coeff
    cochain = _COCHAIN_KIND[structure.section_kind]._raw
    return {j: cochain(grade, terms) for j, terms in table.items()}


def _function_image(functions, mono):
    """d(mono) = sum_j (del_j mono) d(x_j), as grade-1 terms."""
    out = {}
    for j, exp, rest in _partials(mono):
        for blade, coeff in functions[j].terms.items():
            _mac(out.setdefault(blade, {}), coeff.terms, {rest: exp})
    return _wrap(out)


def _blade_image(units, blade):
    """d(e_I) = sum_p (-1)^p d(e_{I_p}) ^ e_{I - I_p}, as terms of grade |I| + 1."""
    out = {}
    for p, l in enumerate(blade):
        rest = blade[:p] + blade[p + 1 :]
        for pair, coeff in units[l].terms.items():
            sign, target = _merge_blades(pair, rest)
            if sign:
                _add_scaled(out.setdefault(target, {}), coeff.terms, -sign if p & 1 else sign)
    return _wrap(out)


def _leibniz(function_image, blade_image, mono, inserts):
    """d(mono * e_I) = d(mono) ^ e_I + mono * d(e_I) as {(target blade,
    monomial): nonzero scalar}, from ``function_image`` = d(mono),
    ``blade_image`` = d(e_I) and ``inserts[j]`` = (sign, target) of e_j ^ e_I.
    A guard bit in a shifted monomial raises ``ResultTooLarge``, as in ``_poly``."""
    out = {}
    for (j,), coeff in function_image.items():
        sign, target = inserts[j]
        if sign:
            for out_mono, scalar in coeff.terms.items():
                out[target, out_mono] = sign * scalar
    for target, coeff in blade_image.items():
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


def _assemble_strand(complex_name, spec, grade, degree, blades, monos):
    """Sparse rows of one strand of the differential, plus its domain.

    ``blades`` maps each blade of grade ``grade`` to d(e_blade), and ``monos``
    each monomial of degree exactly ``degree`` to d(mono), in canonical order.
    The domain is their product, blade-major; it indexes the columns, and
    column (blade, mono) combines the two images by ``_leibniz``.  Rows are
    indexed by the (target blade, target monomial) pairs in the order the
    columns first reach them, and every target monomial must have degree
    ``degree - 1``, checked when its row is created.  Entries are exact
    rationals.
    """
    domain = [(blade, mono) for blade in blades for mono in monos]
    inserts = {blade: {j: _insert_into_blade(blade, j) for j in spec.support} for blade in blades}
    row_index = {}
    rows = []
    for col, (blade, mono) in enumerate(domain):
        combined = _leibniz(monos[mono], blades[blade], mono, inserts[blade])
        for key, scalar in combined.items():
            row = row_index.get(key)
            if row is not None:
                rows[row].append((col, scalar))
                continue
            if monomial_degree(key[1]) != degree - 1:
                raise AssertionError(
                    f"the {complex_name} image of {(blade, mono)} has a term of degree "
                    f"{monomial_degree(key[1])}, outside strand ({grade}, {degree})"
                )
            row_index[key] = len(rows)
            rows.append([(col, scalar)])
    return rows, domain


class GradeDims:
    __slots__ = ("cocycles", "coboundaries", "dim")

    def __init__(self, cocycles: int, coboundaries: int, dim: int):
        self.cocycles = cocycles
        self.coboundaries = coboundaries
        self.dim = dim


class CohomologyReport:
    __slots__ = ("complex_name", "support", "degree", "grades")

    def __init__(self, complex_name: str, support: tuple, degree: int, grades: dict):
        self.complex_name = complex_name
        self.support = support
        self.degree = degree
        self.grades = grades  # grade -> GradeDims

    def table(self):
        return {k: (v.cocycles, v.coboundaries, v.dim) for k, v in sorted(self.grades.items())}


def compute_cohomology(
    complex_name,
    pi,
    spec: TruncationSpec,
    grades,
    max_basis: int = DEFAULT_MAX_BASIS,
) -> CohomologyReport:
    """Cocycle, coboundary, and quotient dimensions per requested grade."""
    grades = sorted(set(grades))
    if any(g < 0 for g in grades):
        raise ValueError("grades are nonnegative")

    # Every window the grades need, checked against max_basis in the order
    # they are ranked, before any generator image is built.
    sizes = {}
    for grade in grades:
        sizes[grade, spec.degree] = _guard_basis(spec, grade, spec.degree, max_basis)
        if grade:
            sizes[grade - 1, spec.degree + 1] = _guard_basis(
                spec, grade - 1, spec.degree + 1, max_basis
            )

    out = {}
    strand_ranks = {}
    # The generator tables by grade, d(mono) by degree and d(e_blade) by
    # grade, each built at most once in this call, when an image first reads
    # it: a constant reads no d(x_j), and the blade () no d(e_l).
    tables = {}
    at_degree = {}
    at_grade = {}

    def generators(grade):
        if grade not in tables:
            tables[grade] = _generators(complex_name, pi, spec.support, grade)
        return tables[grade]

    def window_rank(grade, degree):
        """(rank, size) of the differential on grade-``grade`` cochains of
        coefficient degree <= ``degree``; (0, 0) above the support's size,
        where there are no blades and no strand is assembled."""
        size = sizes[grade, degree]
        if not size:
            return 0, 0
        if grade not in at_grade:
            units = generators(2) if grade else {}
            at_grade[grade] = {b: _blade_image(units, b) for b in blade_basis(spec.support, grade)}
        for d in range(degree + 1):
            if (grade, d) not in strand_ranks:
                if d not in at_degree:
                    functions = generators(1) if d else {}
                    monos = monomials_of_degree(spec.support, d)
                    at_degree[d] = {m: _function_image(functions, m) for m in monos}
                rows, domain = _assemble_strand(
                    complex_name, spec, grade, d, at_grade[grade], at_degree[d]
                )
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


class AgreementReport:
    __slots__ = ("mismatches", "lp_table", "ce_table", "tables_equal", "passed")

    def __init__(self, mismatches, lp_table, ce_table, tables_equal, passed):
        self.mismatches = mismatches
        self.lp_table = lp_table
        self.ce_table = ce_table
        self.tables_equal = tables_equal
        self.passed = passed


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
