"""Truncated cohomology by exact linear algebra.

Oracles:

* an independently assembled matrix of the contravariant differential
  (built here by applying the property-tested operator to every basis
  element, bypassing the library's assembly path) must reproduce the
  cocycle/coboundary counts;
* a transport-plus-homotopy construction: blade-wise lowering carries the
  contravariant differential to the exterior derivative, where the Euler
  homotopy produces an explicit primitive for every cocycle of positive
  grade.  Transporting the primitive back certifies, cocycle by cocycle,
  that the quotient vanishes — exactly, with no floating point anywhere;
* a closed-form count from the polynomial Poincaré lemma, which fixes every
  cocycle and coboundary dimension of the standard structure's complexes;
* a closed-form count by Künneth for a paired block beside unpaired
  coordinates, whose cohomology does not vanish above grade 0;
* each differential is fixed by its generator table, d(x_j) and d(e_l):
  the images the library combines from that table must equal the Schouten
  bracket with -pi (``lp``) and the Chevalley-Eilenberg formula evaluated
  entry by entry (``reference_ce_image``) on every basis element.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid import algebroids, cli, cohomology, linalg
from algebroid.algebroids import (
    AlgebroidStructure,
    ce_differential,
    contravariant_differential,
    cotangent_algebroid,
    tangent_algebroid,
)
from algebroid.cohomology import (
    TruncationSpec,
    blade_basis,
    check_lp_ce_agreement,
    compute_cohomology,
)
from algebroid.errors import ResultTooLarge, TruncationTooLarge
from algebroid.exterior import KForm, KVector, _insert_into_blade, de_rham, interior_product, wedge
from algebroid.exterior import schouten_bracket
from algebroid.linalg import nullspace, rank
from algebroid.poly import MAX_EXPONENT, Poly, decode, encode
from algebroid.sampling import Sampler, monomials_up_to
from algebroid.symplectic import ConstantSymplectic

from conftest import (
    accumulating,
    flat_by_omega,
    poincare_counts,
    sgn,
    sharp_by_pi,
    sparse_rows,
)

STD = ConstantSymplectic.standard()
# pi of the standard structure over every coordinate a field here carries
STD_PI = STD.bivector(range(4))


def cohomology_of(complex_name, w, spec, grades, **options):
    """``compute_cohomology`` on pi of ``w`` over the support, as the CLI
    calls it; ``w`` is None for ``ce-tangent``."""
    pi = None if w is None else w.bivector(spec.support)
    return compute_cohomology(complex_name, pi, spec, grades, **options)


def drawn_cases(spec, trials, seed):
    """``check_lp_ce_agreement``'s cases, drawn over the truncation in the
    order ``theorem-check`` draws them."""
    draw = Sampler(seed)
    for grade in (0, 1, 2):
        for _ in range(trials):
            field = draw.kvector(grade, spec.support, spec.degree)
            yield grade, field, [draw.oneform(spec.support, spec.degree) for _ in range(grade + 1)]


# --- transport and homotopy -------------------------------------------------

def lower(field):
    """Blade-wise musical lowering of a multivector field to a form."""
    if field.grade == 0:
        return field.as_poly()
    out = KForm.zero(field.grade)
    for blade, coeff in field.terms.items():
        piece = KForm.from_poly(coeff)
        for index in blade:
            piece = wedge(piece, flat_by_omega(STD, KVector.coordinate(index)))
        out = out + piece
    return out


def raise_(form):
    """Blade-wise musical raising; inverse of ``lower`` up to (-1)^grade."""
    if form.grade == 0:
        return form.as_poly()
    out = KVector.zero(form.grade)
    for blade, coeff in form.terms.items():
        piece = KVector.from_poly(coeff)
        for index in blade:
            piece = wedge(piece, sharp_by_pi(STD, KForm.coordinate(index)))
        out = out + piece
    return out


def euler_primitive(form, support):
    """A primitive of a closed form of positive grade, by the Euler homotopy.

    Each (blade, monomial) term is weighted-homogeneous of weight
    ``grade + degree > 0``; contracting with the Euler field and dividing by
    the weight inverts the exterior derivative on closed forms.
    """
    euler = KVector.zero(1)
    for i in support:
        euler = euler + KVector.blade((i,), Poly.variable(i))
    grade = form.grade
    out = KForm.zero(grade - 1) if grade > 1 else Poly.zero()
    for blade, coeff in form.terms.items():
        for mono, scalar in coeff.terms.items():
            weight = grade + sum(e for _, e in decode(mono))
            term = KForm.blade(blade, Poly({mono: scalar}))
            contracted = interior_product(euler, term)
            if grade == 1:
                contracted = contracted.as_poly()
            out = out + contracted * Fraction(1, weight)
    return out


def kvector_basis(support, grade, degree):
    return [
        (blade, mono)
        for blade in blade_basis(support, grade)
        for mono in monomials_up_to(support, degree)
    ]


def basis_field(blade, mono):
    coeff = Poly({mono: Fraction(1)})
    if not blade:
        return KVector.from_poly(coeff)
    return KVector.blade(blade, coeff)


def sigma_matrix(support, grade, degree):
    """Rows of the contravariant differential on the given window, assembled
    by direct application (independent of the library's assembly path)."""
    domain = kvector_basis(support, grade, degree)
    image_basis = kvector_basis(support, grade + 1, degree)
    image_index = {key: i for i, key in enumerate(image_basis)}
    columns = []
    for blade, mono in domain:
        image = contravariant_differential(STD_PI, basis_field(blade, mono))
        coords = [Fraction(0)] * len(image_basis)
        if not image.is_zero():
            for out_blade, coeff in image.terms.items():
                for out_mono, scalar in coeff.terms.items():
                    coords[image_index[(out_blade, out_mono)]] = scalar
        columns.append(coords)
    rows = [
        [columns[c][r] for c in range(len(domain))]
        for r in range(len(image_basis))
    ]
    return rows, len(domain)


class TestTransportIdentity:
    def test_lowering_intertwines_the_differentials(self):
        s = Sampler(421)
        for grade in (0, 1, 2):
            for _ in range(8):
                field = s.kvector(grade, (0, 1, 2, 3), 2)
                assert lower(contravariant_differential(STD_PI, field)) == de_rham(
                    lower(field)
                )

    def test_raise_inverts_lower_up_to_sign(self):
        s = Sampler(422)
        for grade in (1, 2, 3):
            field = s.kvector(grade, (0, 1, 2, 3), 2)
            assert raise_(lower(field)) == field * sgn(grade)

    def test_euler_homotopy_on_closed_forms(self):
        s = Sampler(423)
        for grade in (1, 2, 3):
            for _ in range(8):
                form = de_rham(s.kform(grade - 1, (0, 1, 2, 3), 3))
                if form.is_zero():
                    continue
                primitive = euler_primitive(form, (0, 1, 2, 3))
                assert de_rham(primitive) == form


class TestFrozenTables:
    def test_lp_standard_small_support(self):
        report = cohomology_of(
            "lp", STD, TruncationSpec((0, 1), 3), [0, 1, 2]
        )
        assert report.table() == {
            0: (1, 0, 1),
            1: (14, 14, 0),
            2: (10, 10, 0),
        }

    def test_lp_standard_full_support(self):
        report = cohomology_of(
            "lp", STD, TruncationSpec((0, 1, 2, 3), 3), [0, 1, 2]
        )
        assert report.table() == {
            0: (1, 0, 1),
            1: (69, 69, 0),
            2: (155, 155, 0),
        }

    def test_ce_cotangent_matches_lp(self):
        spec = TruncationSpec((0, 1, 2, 3), 3)
        lp = cohomology_of("lp", STD, spec, [0, 1, 2])
        ce = cohomology_of("ce-cotangent", STD, spec, [0, 1, 2])
        assert lp.table() == ce.table()

    def test_ce_tangent_table(self):
        report = cohomology_of(
            "ce-tangent", None, TruncationSpec((0, 1, 2), 2), [0, 1, 2]
        )
        assert report.table() == {
            0: (1, 0, 1),
            1: (19, 19, 0),
            2: (26, 26, 0),
        }


POINCARE_GRID = (
    [("lp", m, d) for m in (2, 4, 6) for d in range(3)]
    + [("lp", 4, 3)]
    + [("ce-tangent", m, d) for m in range(1, 6) for d in range(3)]
    + [("ce-cotangent", m, d) for m in (2, 4) for d in range(3)]
)


class TestPoincareLemma:
    @pytest.mark.parametrize("complex_name,m,degree", POINCARE_GRID)
    def test_every_grade_matches_closed_form(self, complex_name, m, degree):
        report = cohomology_of(
            complex_name, STD, TruncationSpec(range(m), degree), range(m + 1)
        )
        assert report.table() == {
            grade: poincare_counts(m, degree, grade) for grade in range(m + 1)
        }

    @settings(deadline=None, max_examples=15)
    @given(
        pairs=st.sets(st.integers(min_value=0, max_value=5), max_size=3),
        degree=st.integers(min_value=0, max_value=5),
    )
    def test_lp_on_any_standard_support(self, pairs, degree):
        # m <= 6: up to three standard pairs {2p, 2p + 1}, anywhere in 0..11
        support = [i for p in pairs for i in (2 * p, 2 * p + 1)]
        m = len(support)
        report = cohomology_of("lp", STD, TruncationSpec(support, degree), range(m + 1))
        assert report.table() == {
            grade: poincare_counts(m, degree, grade) for grade in range(m + 1)
        }

    def test_closed_form_reproduces_frozen_table(self):
        assert [poincare_counts(4, 3, k) for k in range(1, 5)] == [
            (69, 69, 0), (155, 155, 0), (125, 125, 0), (35, 35, 0)
        ]


def kunneth_counts(s, degree, grade):
    """dim H^grade on the degree-<= ``degree`` window of a constant structure
    whose support is a paired block plus ``s`` unpaired coordinates.

    Write the support's polynomials as Q[x] (x the 2p block coordinates)
    tensor Q[y] (y the s spectators), and the cochains likewise.  The
    structure pairs only block coordinates, so the differential acts on the
    x-factor alone: the complex is the block's complex tensored with
    Lambda(y) tensor Q[y] under the zero differential.  Through the musical
    isomorphism of the invertible block, the block's complex is the de Rham
    complex of Q[x], whose cohomology is the constants (polynomial Poincaré
    lemma).  The differential lowers total degree by one, so the window is
    a sum over strands of total degree d <= D, and by Künneth strand d
    contributes Lambda^k(y) tensor Q[y]_d: C(s, k) * C(s + d - 1, d)
    classes.  Summing over d (hockey stick) gives C(s, k) * C(s + D, D).
    At s = 0 this is the Poincaré count: 1 at grade 0 and 0 above.
    """
    return comb(s, grade) * comb(s + degree, degree)


# The unit 2x2 block (p = 1) and a non-unit explicit 4x4 block (p = 2).
PAIRED_BLOCKS = {
    1: [[0, 1], [-1, 0]],
    2: [[0, 2, 1, 0], [-2, 0, 0, 3], [-1, 0, 0, 1], [0, -3, -1, 0]],
}


@st.composite
def block_with_spectators(draw, max_m):
    """(structure, m, s, D): a paired block of 2p coordinates placed among
    s unpaired ones on support range(m), with m <= ``max_m``."""
    p = draw(st.sampled_from(sorted(PAIRED_BLOCKS)))
    s = draw(st.integers(min_value=0, max_value=min(3, max_m - 2 * p)))
    m = 2 * p + s
    block = sorted(draw(st.permutations(range(m)))[: 2 * p])
    degree = draw(st.integers(min_value=0, max_value=3))
    return ConstantSymplectic.explicit(block, PAIRED_BLOCKS[p]), m, s, degree


class TestKunneth:
    @pytest.mark.parametrize("complex_name,max_m", [("lp", 6), ("ce-cotangent", 4)])
    @settings(deadline=None, max_examples=20)
    @given(data=st.data())
    def test_every_grade_matches_closed_form(self, complex_name, max_m, data):
        w, m, s, degree = data.draw(block_with_spectators(max_m))
        report = cohomology_of(complex_name, w, TruncationSpec(range(m), degree), range(m + 1))
        assert [dims.dim for _, dims in sorted(report.grades.items())] == [
            kunneth_counts(s, degree, grade) for grade in range(m + 1)
        ]

    @settings(deadline=None, max_examples=10)
    @given(block_with_spectators(4))
    def test_theorem_check_agrees(self, case):
        w, m, s, degree = case
        spec = TruncationSpec(range(m), degree)
        report = check_lp_ce_agreement(
            w.bivector(spec.support), spec, range(m + 1), drawn_cases(spec, 2, m + degree)
        )
        assert report.passed and report.tables_equal
        assert [report.lp_table[grade][2] for grade in range(m + 1)] == [
            kunneth_counts(s, degree, grade) for grade in range(m + 1)
        ]

    def test_two_spectators_at_degree_two(self):
        assert [kunneth_counts(2, 2, k) for k in range(5)] == [6, 12, 6, 0, 0]
        w = ConstantSymplectic.explicit((0, 1), PAIRED_BLOCKS[1])
        for complex_name in ("lp", "ce-cotangent"):
            report = cohomology_of(complex_name, w, TruncationSpec(range(4), 2), range(5))
            assert [report.grades[k].dim for k in range(5)] == [6, 12, 6, 0, 0]


def reference_ce_image(structure, support, grade, blade, mono):
    """The Chevalley-Eilenberg image of mono * e_blade, entry by entry: the
    property-tested ``ce_differential`` on every (grade + 1)-subset of
    coordinate sections over ``support``, independent of the library's
    anchor and bracket tables."""
    cochain_cls = KForm if structure.section_kind == "vector" else KVector
    section_cls = KVector if structure.section_kind == "vector" else KForm
    cochain = cochain_cls._raw(grade, {blade: Poly({mono: 1})})
    out = {}
    for target in combinations(support, grade + 1):
        sections = [section_cls.coordinate(j) for j in target]
        value = ce_differential(structure, cochain, sections)
        if not value.is_zero():
            out[target] = value
    return cochain_cls(grade + 1, out)


def so3_structure(scale):
    """Zero anchor and [e0, e1] = scale e2 cyclically on coordinate vector
    fields, extended bilinearly over functions; e3 brackets to zero.  With
    ``scale`` constant it is so(3), whose CE differential keeps degree."""
    third = {(0, 1): 2, (1, 2): 0, (2, 0): 1}  # [e_i, e_j] = scale e_third[i, j]

    def bracket(left, right):
        out = KVector.zero(1)
        for (a,), xa in left.terms.items():
            for (b,), yb in right.terms.items():
                for (i, j), l in third.items():
                    sign = 1 if (a, b) == (i, j) else -1 if (a, b) == (j, i) else 0
                    if sign:
                        out = out + KVector.blade((l,), xa * yb * scale * sign)
        return out

    return AlgebroidStructure(
        "so3", "vector", lambda section: KVector.zero(1), accumulating(bracket)
    )


def so3_bivector():
    """The linear Lie-Poisson bivector of so(3) on x0, x1, x2:
    x0 e1^e2 + x1 e2^e0 + x2 e0^e1."""
    x0, x1, x2 = (Poly.variable(i) for i in range(3))
    return KVector(2, {(1, 2): x0, (0, 2): -x1, (0, 1): x2})


# Bivectors over 0..3 whose differentials are checked on every basis element.
# Only the constant ones keep each strand: the others shift degree, and the
# random one is not Poisson, so sigma^2 != 0; the derivation rule holds for all.
BIVECTORS = {
    "standard": STD_PI,
    "block-with-spectators": (
        ConstantSymplectic.explicit((1, 3), PAIRED_BLOCKS[1]).bivector(range(4))
    ),
    "non-unit-block": ConstantSymplectic.explicit(range(4), PAIRED_BLOCKS[2]).bivector(range(4)),
    "so3": so3_bivector(),
    "quadratic": KVector(2, {(0, 1): Poly.variable(0) * Poly.variable(1)}),
    "random": Sampler(1729).kvector(2, range(4), 2, terms=4),
}

SUPPORT4 = tuple(range(4))


def image_terms(value):
    """{(blade, monomial): scalar} of a cochain."""
    return {(blade, mono): c for blade, coeff in value.terms.items() for mono, c in coeff.terms.items()}


def generator_tables(complex_name, pi):
    """The library's tables of d(x_j) and of d(e_l) over 0..3."""
    return tuple(cohomology._generators(complex_name, pi, SUPPORT4, grade) for grade in (1, 2))


def combined_images(complex_name, pi, degree=3):
    """(grade, blade, mono, image of mono * e_blade) for every basis element
    over 0..3 with coefficient degree <= ``degree``, each image combined by
    ``_leibniz`` from the library's generator table."""
    functions, units = generator_tables(complex_name, pi)
    monos = monomials_up_to(SUPPORT4, degree)
    for grade in range(len(SUPPORT4) + 1):
        for blade in blade_basis(SUPPORT4, grade):
            inserts = {j: _insert_into_blade(blade, j) for j in SUPPORT4}
            unit = cohomology._blade_image(units, blade)
            for mono in monos:
                function = cohomology._function_image(functions, mono)
                yield grade, blade, mono, cohomology._leibniz(function, unit, mono, inserts)


def ce_structure(complex_name, pi):
    return tangent_algebroid() if complex_name == "ce-tangent" else cotangent_algebroid(pi)


class TestCeImages:
    """The CE generator tables equal the entry-by-entry CE formula."""

    @pytest.mark.parametrize(
        "complex_name, pi",
        [("ce-cotangent", pi) for pi in BIVECTORS] + [("ce-tangent", None)],
    )
    def test_generators_match_the_reference(self, complex_name, pi):
        pi = BIVECTORS.get(pi)
        structure = ce_structure(complex_name, pi)
        functions, units = generator_tables(complex_name, pi)
        assert sorted(functions) == sorted(units) == list(SUPPORT4)
        for j in SUPPORT4:
            x_j = encode(((j, 1),))
            assert functions[j] == reference_ce_image(structure, SUPPORT4, 0, (), x_j)
            assert units[j] == reference_ce_image(structure, SUPPORT4, 1, (j,), encode(()))

    @pytest.mark.parametrize("scale", [Poly.one(), Poly.variable(3) - 2], ids=["so3", "scaled"])
    def test_bracket_terms_match_the_reference(self, monkeypatch, scale):
        # A structure with vector sections enters the table as ce-tangent.
        structure = so3_structure(scale)
        monkeypatch.setattr(cohomology, "tangent_algebroid", lambda: structure)
        functions, units = generator_tables("ce-tangent", None)
        # zero anchor: d(x_j) = 0; d(dx[2]) (e0, e1) = -dx[2]([e0, e1]) = -scale
        assert all(value.is_zero() for value in functions.values())
        assert units[2] == KForm(2, {(0, 1): -scale})
        for grade, blade, mono, combined in combined_images("ce-tangent", None):
            reference = reference_ce_image(structure, SUPPORT4, grade, blade, mono)
            assert combined == image_terms(reference)


class TestLeibniz:
    """Each differential is a derivation of degree one, so the image of
    mono * e_blade that a strand combines from the generator table,
    d(mono) ^ e_blade + mono * d(e_blade), is the image of the basis element:
    the Schouten bracket with -pi for ``lp``, the CE formula entry by entry
    for both CE complexes.  The combining step is checked on its own, without
    the strand's degree check, which a non-constant pi fails."""

    @pytest.mark.parametrize(
        "complex_name, pi",
        [(name, pi) for name in ("lp", "ce-cotangent") for pi in BIVECTORS] + [("ce-tangent", None)],
    )
    def test_combined_images_equal_the_images_of_basis_elements(self, complex_name, pi):
        pi = BIVECTORS.get(pi)
        structure = None if complex_name == "lp" else ce_structure(complex_name, pi)
        for grade, blade, mono, combined in combined_images(complex_name, pi):
            if structure is None:
                reference = schouten_bracket(-pi, KVector._raw(grade, {blade: Poly({mono: 1})}))
            else:
                reference = reference_ce_image(structure, SUPPORT4, grade, blade, mono)
            assert combined == image_terms(reference)
            assert all(type(c) is int or c.denominator > 1 for c in combined.values())

    def test_colliding_terms_are_summed_and_cancelled(self):
        # d(x0) = 1/2 x0 e1 and d(e0) = b e0^e1, so d(x0 e0) = (b - 1/2) x0
        # e0^e1, since e1 ^ e0 = -e0 ^ e1: zero at b = 1/2, the int 1 at 3/2.
        x0, blade = encode(((0, 1),)), (0,)
        inserts = {j: _insert_into_blade(blade, j) for j in range(2)}
        function_image = {(1,): Poly({x0: Fraction(1, 2)})}
        for b, expected in [(Fraction(1, 2), {}), (Fraction(3, 2), {((0, 1), x0): 1})]:
            unit = {(0, 1): Poly({encode(()): b})}
            combined = cohomology._leibniz(function_image, unit, x0, inserts)
            assert combined == expected
            assert all(type(c) is int for c in combined.values())

    def test_a_shifted_exponent_past_the_bound_raises(self):
        x0 = encode(((0, 1),))
        unit = {(0, 1): Poly.variable(0) ** MAX_EXPONENT}
        with pytest.raises(ResultTooLarge):
            cohomology._leibniz({}, unit, x0, {})


class TestIndependentAssembly:
    """Recompute the small-support table from scratch."""

    SUPPORT = (0, 1)
    DEGREE = 3

    def counts(self, grade):
        rows, ncols = sigma_matrix(self.SUPPORT, grade, self.DEGREE)
        r = rank(sparse_rows(rows), ncols)
        cocycles = ncols - r
        if grade == 0:
            coboundaries = 0
        else:
            prev_rows, prev_ncols = sigma_matrix(
                self.SUPPORT, grade - 1, self.DEGREE + 1
            )
            coboundaries = rank(sparse_rows(prev_rows), prev_ncols)
        return cocycles, coboundaries

    def test_matches_library_table(self):
        report = cohomology_of(
            "lp", STD, TruncationSpec(self.SUPPORT, self.DEGREE), [0, 1, 2]
        )
        for grade in (0, 1, 2):
            cocycles, coboundaries = self.counts(grade)
            dims = report.grades[grade]
            assert (dims.cocycles, dims.coboundaries) == (cocycles, coboundaries)

    def test_every_positive_grade_cocycle_is_certified_exact(self):
        for grade in (1, 2):
            rows, ncols = sigma_matrix(self.SUPPORT, grade, self.DEGREE)
            basis = kvector_basis(self.SUPPORT, grade, self.DEGREE)
            kernel = nullspace(sparse_rows(rows), ncols)
            assert len(kernel) == ncols - rank(sparse_rows(rows), ncols)
            for vector in kernel:
                cocycle = KVector.zero(grade)
                for j, coord in vector:
                    cocycle = cocycle + basis_field(*basis[j]) * coord
                assert contravariant_differential(STD_PI, cocycle).is_zero()
                form = lower(cocycle)
                primitive = euler_primitive(form, self.SUPPORT)
                candidate = raise_(primitive) if grade > 1 else primitive
                candidate = candidate * sgn(grade - 1)
                assert contravariant_differential(STD_PI, candidate) == cocycle

    def test_grade_zero_cocycles_are_constants(self):
        rows, ncols = sigma_matrix(self.SUPPORT, 0, self.DEGREE)
        kernel = nullspace(sparse_rows(rows), ncols)
        assert len(kernel) == 1
        basis = kvector_basis(self.SUPPORT, 0, self.DEGREE)
        (vector,) = kernel
        poly = Poly.zero()
        for j, coord in vector:
            poly = poly + Poly({basis[j][1]: Fraction(coord)})
        assert poly.is_constant()


class TestCasimirs:
    def test_standard_block_has_only_constants(self):
        grade0 = cohomology_of("lp", STD, TruncationSpec((0, 1), 3), [0]).grades[0]
        assert grade0.cocycles == 1

    def test_unpaired_variable_generates_casimirs(self):
        w = ConstantSymplectic.explicit((0, 1), [[0, 1], [-1, 0]])
        grade0 = cohomology_of("lp", w, TruncationSpec((0, 1, 2), 3), [0]).grades[0]
        assert grade0.cocycles == 4
        pi = w.bivector((0, 1, 2))
        for k in range(4):
            assert contravariant_differential(pi, Poly.variable(2) ** k).is_zero()


class TestAgreement:
    def test_lp_ce_agreement_passes(self):
        spec = TruncationSpec((0, 1), 3)
        report = check_lp_ce_agreement(
            STD.bivector(spec.support), spec, [0, 1, 2], drawn_cases(spec, 4, 77),
            max_basis=20000,
        )
        assert report.passed
        assert report.tables_equal
        assert report.mismatches == []


class TestGuards:
    def test_truncation_too_large(self):
        with pytest.raises(TruncationTooLarge):
            cohomology_of(
                "lp", STD, TruncationSpec((0, 1, 2, 3), 3), [1], max_basis=10
            )

    @pytest.mark.parametrize("complex_name", ["lp", "ce-tangent", "ce-cotangent"])
    def test_empty_support_leaves_only_constants(self, complex_name):
        # With no coordinates the one cochain is the constant function, a
        # cocycle that nothing bounds.
        report = cohomology_of(complex_name, STD, TruncationSpec((), 2), [0, 1, 2])
        assert report.table() == {0: (1, 0, 1), 1: (0, 0, 0), 2: (0, 0, 0)}

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            TruncationSpec((0, 1), -1)

    def test_basis_permutation_invariance(self, monkeypatch):
        # Each strand's columns relabelled by a seeded permutation and its
        # rows shuffled: the ranks, so the table, must not move.
        spec = TruncationSpec((0, 1), 3)
        base = cohomology_of("lp", STD, spec, [0, 1, 2])
        rng = random.Random(7)
        assemble = cohomology._assemble_strand

        def shuffled(*args):
            rows, domain = assemble(*args)
            labels = list(range(len(domain)))
            rng.shuffle(labels)
            rows = [sorted((labels[col], value) for col, value in row) for row in rows]
            rng.shuffle(rows)
            return rows, domain

        monkeypatch.setattr(cohomology, "_assemble_strand", shuffled)
        assert cohomology_of("lp", STD, spec, [0, 1, 2]).table() == base.table()


def count_generator_calls(monkeypatch):
    """The list every generator call of ``compute_cohomology`` is appended
    to: each Schouten bracket of ``lp`` (its right argument), and each
    anchor and bracket of the CE structures (a tagged pair)."""
    calls = []
    schouten = cohomology.schouten_bracket

    def schouten_counting(left, right):
        calls.append(right)
        return schouten(left, right)

    def counting(make):
        def build(*args):
            structure = make(*args)

            def anchor(section):
                calls.append(("anchor", section))
                return structure.anchor(section)

            def bracket(a, b):
                calls.append(("bracket", a, b))
                return structure.bracket(a, b)

            return AlgebroidStructure(
                structure.name, structure.section_kind, anchor, accumulating(bracket)
            )

        return build

    monkeypatch.setattr(cohomology, "schouten_bracket", schouten_counting)
    for name in ("tangent_algebroid", "cotangent_algebroid"):
        monkeypatch.setattr(cohomology, name, counting(getattr(cohomology, name)))
    return calls


class TestGeneratorsOnDemand:
    """Each generator table is built only when an image reads it, and only
    after every window has passed the basis guard."""

    @pytest.mark.parametrize("complex_name", ["lp", "ce-tangent", "ce-cotangent"])
    def test_grade_zero_brackets_no_pair(self, monkeypatch, complex_name):
        calls = count_generator_calls(monkeypatch)
        # A constant has no d(x_j) to read and the blade () no d(e_l): no
        # generator at all.  On 60 coordinates the d(e_l) table of a CE
        # structure is 1,770 brackets.
        report = cohomology_of(complex_name, STD, TruncationSpec(range(60), 0), [0])
        assert report.table() == {0: (1, 0, 1)}
        assert calls == []
        # Degree 2 reads d(x_j): an anchor or a Schouten bracket per
        # coordinate, and still no bracket of two sections.
        report = cohomology_of(complex_name, STD, TruncationSpec(range(6), 2), [0])
        assert report.table() == {0: (1, 0, 1)}
        assert len(calls) == 6
        assert not any(call[0] == "bracket" for call in calls if type(call) is tuple)

    @pytest.mark.parametrize("complex_name", ["lp", "ce-tangent", "ce-cotangent"])
    @pytest.mark.parametrize(
        "grades, max_basis, message",
        [
            # windows in the order they are ranked: (0, 2) 28, (1, 2) 168,
            # (0, 3) 84, (2, 2) 420; (1, 3) 504, (3, 2) 560
            ([0, 1, 2], 419, "grade 2 at degree 2 needs 420 basis elements (limit 419)"),
            ([0, 1, 2], 100, "grade 1 at degree 2 needs 168 basis elements (limit 100)"),
            # a coboundary window fails before the next grade's cocycles
            ([2, 3], 500, "grade 1 at degree 3 needs 504 basis elements (limit 500)"),
        ],
    )
    def test_no_generator_before_the_guard(self, monkeypatch, complex_name, grades,
                                           max_basis, message):
        calls = count_generator_calls(monkeypatch)
        spec = TruncationSpec(range(6), 2)
        with pytest.raises(TruncationTooLarge) as info:
            cohomology_of(complex_name, STD, spec, grades, max_basis=max_basis)
        assert str(info.value) == message
        assert calls == []

    def test_each_coordinate_form_is_anchored_once(self, monkeypatch):
        # The 28 brackets of the d(e_l) table on 8 coordinates ask for 56
        # anchors; the structure's memo contracts each section with pi once.
        contracted = []
        contract = algebroids.interior_product

        def counting(form, pi):
            contracted.append(form)
            return contract(form, pi)

        monkeypatch.setattr(algebroids, "interior_product", counting)
        cohomology._generators("ce-cotangent", STD.bivector(range(8)), range(8), 2)
        assert len(contracted) == 8

    def test_the_cli_guard_exits_two_with_no_bracket(self, monkeypatch, capsys, tmp_path):
        # 1,000 coordinates: the grade-2 window has 499,500 blades, and the
        # CE d(e_l) table would be as many brackets.
        calls = count_generator_calls(monkeypatch)
        document = tmp_path / "x0.adsl"
        document.write_text("var x0\nsymplectic std\n")
        code = cli.run(["cohomology", "--complex", "ce-cotangent", "--support", "0..999",
                        "--degree", "0", "--grades", "2", "--input", str(document)])
        captured = capsys.readouterr()
        assert (code, captured.out, calls) == (2, "", [])
        assert captured.err == (
            "error: grade 2 at degree 0 needs 499500 basis elements (limit 20000)\n"
        )


def wrap_generators(monkeypatch, around):
    """Replace each generator table built by ``cohomology._generators``, of
    grade 1 or 2, with ``around(grade, table)``."""
    build = cohomology._generators
    monkeypatch.setattr(cohomology, "_generators", lambda *args: around(args[-1], build(*args)))


class TestStrands:
    """Each differential is assembled one (grade, exact degree) strand at a time."""

    @pytest.mark.parametrize("complex_name", ["lp", "ce-tangent", "ce-cotangent"])
    def test_no_strand_is_assembled_above_the_support(self, monkeypatch, complex_name):
        # On m = 2 coordinates a grade k > 2 has no blades: its window is
        # (0, 0), and only grade 2 is assembled for the coboundaries of grade 3.
        assembled = set()
        assemble = cohomology._assemble_strand

        def recording(complex_name, spec, grade, *args):
            assembled.add(grade)
            return assemble(complex_name, spec, grade, *args)

        monkeypatch.setattr(cohomology, "_assemble_strand", recording)
        report = cohomology_of(complex_name, STD, TruncationSpec((0, 1), 2), range(200))
        assert assembled == {0, 1, 2}
        assert all(report.table()[k] == (0, 0, 0) for k in range(3, 200))

    def test_lp_brackets_only_the_generators(self, monkeypatch):
        brackets = []
        bracket = cohomology.schouten_bracket

        def counting(left, right):
            brackets.append(right)
            return bracket(left, right)

        monkeypatch.setattr(cohomology, "schouten_bracket", counting)
        # The lp job of the benchmark gate.  Only the 2m = 8 generators are
        # bracketed with -pi: x_j and e_l for each j and l in 0..3.  Imaging
        # each monomial at grade 0 and each unit blade made 126 + 4 + 6 = 136
        # calls, and each basis element 126 + 4 * 126 + 6 * 70 = 1,050.
        report = cohomology_of("lp", STD, TruncationSpec(range(4), 4), [0, 1, 2])
        assert report.table() == {k: poincare_counts(4, 4, k) for k in range(3)}
        assert len(brackets) == 8
        assert [str(value) for value in brackets] == (
            [f"x{j}" for j in range(4)] + [f"e[{l}]" for l in range(4)]
        )

    @staticmethod
    def leaking(grade, table):
        # d(x_j) gains x_j e_j: a term of the domain's own degree in strand
        # (0, 1), one above the strand's target
        if grade == 2:
            return table
        return {j: f + type(f).blade((j,), Poly.variable(j)) for j, f in table.items()}

    @pytest.mark.parametrize("complex_name", ["lp", "ce-tangent", "ce-cotangent"])
    def test_an_off_strand_term_raises(self, monkeypatch, complex_name):
        wrap_generators(monkeypatch, self.leaking)
        with pytest.raises(AssertionError, match=r"term of degree 1, outside strand \(0, 1\)"):
            cohomology_of(complex_name, STD, TruncationSpec(range(2), 1), [0])

    def test_an_internal_error_exits_three(self, monkeypatch, capsys, tmp_path):
        wrap_generators(monkeypatch, self.leaking)
        document = tmp_path / "std2.adsl"
        document.write_text("var x0 x1\nsymplectic std\n")
        code = cli.run(["cohomology", "--complex", "ce-cotangent", "--support", "0..1",
                        "--degree", "1", "--grades", "0", "--input", str(document)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("internal error: the ce-cotangent image of")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize("complex_name", ["lp", "ce-tangent", "ce-cotangent"])
    def test_rows_reach_rank_as_nonzero_pairs(self, monkeypatch, complex_name):
        calls = []
        rank_ = linalg.rank

        def checking(rows, ncols):
            calls.append(ncols)
            for row in rows:
                assert type(row) is list and row
                assert all(type(pair) is tuple and len(pair) == 2 for pair in row)
                columns = [j for j, _ in row]
                assert columns == sorted(set(columns)) and 0 <= columns[0] <= columns[-1] < ncols
                assert all(value != 0 for _, value in row)
            return rank_(rows, ncols)

        monkeypatch.setattr(linalg, "rank", checking)
        report = cohomology_of(complex_name, STD, TruncationSpec(range(4), 2), range(5))
        assert report.table() == {k: poincare_counts(4, 2, k) for k in range(5)}
        # one call per strand: grades 0..3 at degrees 0..3, grade 4 at 0..2
        assert len(calls) == 4 * 4 + 3
