"""Graph Dirac structures: isotropy, involutivity, orthogonal complements.

Oracles: isotropy reduces to antisymmetry of the graphed 2-form; the
involutivity defect of a non-closed graph must equal the contraction of the
curvature 3-form, computed here directly from the exterior-calculus
operators.  The orthogonal complement is checked against dense Fraction
elimination written out below.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid.courant import (
    DiracStructure,
    GeneralizedSection,
    check_dirac,
    courant_bracket,
    orthogonal_complement,
    tm_pairing,
)
from algebroid import linalg
from algebroid.errors import GradeError, NotInvertible
from algebroid.exterior import (
    KForm,
    KVector,
    de_rham,
    interior_product,
    lie_bracket,
)
from algebroid.poly import Poly
from algebroid.sampling import Sampler
from algebroid.symplectic import ConstantSymplectic, flat

STD = ConstantSymplectic.standard()
BLOCK = ConstantSymplectic.explicit((0, 1), [[0, 1], [-1, 0]])
NONCLOSED = KForm.blade((1, 2), Poly.variable(0))
# The graphs of the constant structures over the sampling support (0, 1, 2, 3)
STD_GRAPH = DiracStructure(STD.materialize((0, 1, 2, 3)))
BLOCK_GRAPH = DiracStructure(BLOCK.materialize(()))


def drawn_inputs(structure, trials, seed, degree=2):
    """``check_dirac``'s pairs, fields and functions, drawn over the
    structure's default support in the order ``check-dirac`` draws them."""
    draw = Sampler(seed)
    support = structure.default_support()
    pairs = [
        (draw.vector_field(support, degree), draw.vector_field(support, degree))
        for _ in range(trials)
    ]
    fields = [draw.vector_field(support, degree) for _ in range(3)]
    functions = [draw.nonzero_poly(support, degree) for _ in range(2)]
    return pairs, fields, functions


def coordinate_pairs(support):
    """The pairs (e_i, e_j), i < j, of coordinate vector fields."""
    return [
        (KVector.coordinate(i), KVector.coordinate(j))
        for i in support
        for j in support
        if i < j
    ]


class TestGraphConstruction:
    def test_constant_graph_uses_flat(self):
        s = Sampler(601)
        for _ in range(10):
            x = s.vector_field((0, 1, 2, 3), 2)
            section = STD_GRAPH.generate(x)
            assert section.vector == x
            assert section.form == flat(STD, x)

    def test_form_graph_uses_contraction(self):
        structure = DiracStructure(NONCLOSED)
        s = Sampler(602)
        for _ in range(10):
            x = s.vector_field((0, 1, 2), 2)
            section = structure.generate(x)
            assert section.form == interior_product(x, NONCLOSED)

    def test_curvature(self):
        assert STD_GRAPH.curvature().is_zero()
        assert DiracStructure(NONCLOSED).curvature() == de_rham(NONCLOSED)

    def test_rejects_wrong_grade(self):
        with pytest.raises(GradeError):
            DiracStructure(KForm.coordinate(0))
        with pytest.raises(GradeError):
            DiracStructure(Poly.variable(0))
        # a constant structure enters as its 2-form over a cover
        with pytest.raises(GradeError):
            DiracStructure(STD)


class TestIsotropy:
    def test_graph_sections_pair_to_zero(self):
        s = Sampler(603)
        for structure in (STD_GRAPH, DiracStructure(NONCLOSED)):
            for _ in range(10):
                x = s.vector_field((0, 1, 2, 3), 2)
                y = s.vector_field((0, 1, 2, 3), 2)
                assert tm_pairing(
                    structure.generate(x), structure.generate(y)
                ).is_zero()


class TestStandardGraph:
    def test_check_passes(self):
        report = check_dirac(STD_GRAPH, *drawn_inputs(STD_GRAPH, 8, 1729))
        assert report.passed
        assert report.isotropy_failures == []
        assert report.involutivity_failures == []
        assert report.defect_matches_prediction
        assert report.axioms.passed

    def test_every_coordinate_pair_passes(self):
        support = range(6)
        graph = DiracStructure(STD.materialize(support))
        fields = [KVector.coordinate(i) for i in support]
        functions = [Poly.variable(0) * Poly.variable(1)]
        report = check_dirac(graph, coordinate_pairs(support), fields, functions)
        assert report.passed

    def test_complement_equals_subbundle(self):
        report = orthogonal_complement(STD, (0, 1, 2, 3))
        assert report.fiber_dimension == 8
        assert report.dim_subbundle == 4
        assert report.dim_complement == 4
        assert report.isotropic
        assert report.equals_complement
        assert report.witness is None


class TestUnpairedDirections:
    def test_strictly_smaller_than_complement(self):
        report = orthogonal_complement(BLOCK, (0, 1, 2))
        assert report.ambient_indices == (0, 1, 2)
        assert report.fiber_dimension == 6
        assert report.dim_subbundle == 2
        assert report.dim_complement == 4
        assert report.isotropic
        assert not report.equals_complement
        assert str(report.witness) == "(e[2], 0)"

    def test_witness_is_orthogonal_to_every_graph_section(self):
        report = orthogonal_complement(BLOCK, (0, 1, 2))
        s = Sampler(604)
        for _ in range(10):
            x = s.vector_field((0, 1), 2)
            assert tm_pairing(report.witness, BLOCK_GRAPH.generate(x)).is_zero()


def _reduced(rows, ncols):
    """Gauss-Jordan over Fraction: (nonzero reduced rows, pivot columns)."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [a - row[c] * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _kernel(rows, ncols):
    reduced, pivots = _reduced(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[free]
        basis.append(vec)
    return basis


def brute_force_complement(w, support):
    """(isotropic, equals_complement) from the graph sections themselves.

    Each generating section is (e_i, flat(e_i)), read off the structure's
    raw rows, so a block that is not antisymmetric keeps its asymmetry.
    The ambient indices and the generators are read off the pairing's own
    storage here: the standard pairing closes ``support`` under i <-> i ^ 1
    and pairs all of it, an explicit one adds its block and pairs only that.
    Isotropy pairs every two generating sections with ``tm_pairing``.  The
    complement is the kernel of the paired coordinate rows, and it equals
    the subbundle when the dimensions agree and every kernel vector lies in
    the row space.
    """
    if w.kind == "standard":
        ambient = sorted(set(support) | {i ^ 1 for i in support})
        generators = ambient
    else:
        ambient = sorted(set(support) | set(w.block))
        generators = w.block
    fields = [KVector.coordinate(i) for i in generators]
    sections = [GeneralizedSection(x, flat(w, x)) for x in fields]
    isotropic = all(tm_pairing(s, t).is_zero() for s in sections for t in sections)
    rows = [
        [s.vector.coefficient((j,)).constant_term() for j in ambient]
        + [s.form.coefficient((j,)).constant_term() for j in ambient]
        for s in sections
    ]
    n = len(ambient)
    paired = [row[n:] + row[:n] for row in rows]
    perp = _kernel(paired, 2 * n)
    dim_sub = len(_reduced(rows, 2 * n)[1])
    inside = len(_reduced(rows + perp, 2 * n)[1]) == dim_sub
    return isotropic, dim_sub == len(perp) and inside


def _seeded_structures(seed):
    """Constant structures with a seeded support: the standard structure, an
    invertible antisymmetric block, and an arbitrary block, which only the
    raw constructor accepts (``explicit`` demands antisymmetry), so that
    isotropy can fail."""
    rng = random.Random(seed)
    support = tuple(sorted(rng.sample(range(7), rng.randint(1, 5))))
    size = rng.choice((2, 4))
    block = tuple(sorted(rng.sample(range(6), size)))
    upper = {(i, j): rng.randint(-2, 2) for i in range(size) for j in range(i + 1, size)}
    antisymmetric = [
        [upper.get((i, j), -upper.get((j, i), 0)) for j in range(size)] for i in range(size)
    ]
    out = [(STD, support)]
    try:
        out.append((ConstantSymplectic.explicit(block, antisymmetric), support))
    except NotInvertible:
        pass
    arbitrary = [[Fraction(rng.randint(-2, 2)) for _ in range(size)] for _ in range(size)]
    out.append((ConstantSymplectic("explicit", block, arbitrary), support))
    return out


class TestComplementAgainstBruteForce:
    def test_unpaired_block_case(self):
        report = orthogonal_complement(BLOCK, (0, 1, 2))
        assert brute_force_complement(BLOCK, (0, 1, 2)) == (True, False)
        assert (report.isotropic, report.equals_complement) == (True, False)

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_constant_structures(self, seed):
        for w, support in _seeded_structures(seed):
            report = orthogonal_complement(w, support)
            expected = brute_force_complement(w, support)
            assert (report.isotropic, report.equals_complement) == expected

    def test_seeds_reach_every_verdict(self):
        verdicts = set()
        for seed in range(12):
            for w, support in _seeded_structures(seed):
                verdicts.add(brute_force_complement(w, support))
        assert verdicts == {(True, True), (True, False), (False, False)}

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda size: st.tuples(
                st.sets(st.integers(min_value=0, max_value=7), min_size=size, max_size=size),
                st.lists(
                    st.lists(st.integers(min_value=-2, max_value=2), min_size=size,
                             max_size=size),
                    min_size=size,
                    max_size=size,
                ),
            )
        ),
        st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=6),
    )
    @settings(deadline=None)
    def test_isotropy_of_arbitrary_blocks(self, block_and_rows, support):
        # The sparse isotropy test reads only the columns two rows share;
        # blocks that are not antisymmetric make some graphs non-isotropic,
        # and entries outside the block or the support are never paired.
        block, rows = block_and_rows
        w = ConstantSymplectic(
            "explicit", tuple(sorted(block)), [[Fraction(v) for v in row] for row in rows]
        )
        for structure in (w, STD):
            report = orthogonal_complement(structure, tuple(sorted(support)))
            expected = brute_force_complement(structure, support)
            assert (report.isotropic, report.equals_complement) == expected

    def test_thirty_variables_take_a_few_ranks(self, monkeypatch):
        # An isotropic subbundle equals its complement exactly when it has
        # half the fiber dimension.  That dimension is a count of generators,
        # so a passing structure takes no elimination at all; the complement
        # basis is built only for a witness.
        calls = {"rank": 0, "nullspace": 0, "row_space_contains": 0}
        for name in calls:
            fn = getattr(linalg, name)

            def counting(*args, _name=name, _fn=fn):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(linalg, name, counting)
        report = orthogonal_complement(STD, tuple(range(30)))
        assert report.dim_subbundle == report.dim_complement == 30
        assert report.isotropic and report.equals_complement
        assert calls["rank"] == 0
        assert calls["nullspace"] == 0
        assert calls["row_space_contains"] == 0


class TestNonClosedGraph:
    def test_involutivity_fails_with_predicted_defect(self):
        structure = DiracStructure(NONCLOSED)
        report = check_dirac(structure, *drawn_inputs(structure, 6, 3))
        assert not report.passed
        assert report.isotropy_failures == []
        assert len(report.involutivity_failures) == 6
        assert report.defect_matches_prediction
        curvature = de_rham(NONCLOSED)
        for x, y, defect in report.involutivity_failures:
            assert defect == interior_product(y, interior_product(x, curvature))

    def test_coordinate_pairs_decide_involutivity(self):
        # The defect i_Y i_X dw is C-infinity-bilinear in X and Y, so the
        # coordinate pairs decide involutivity exactly, with nothing drawn.
        structure = DiracStructure(NONCLOSED)
        curvature = structure.curvature()
        report = check_dirac(structure, coordinate_pairs(range(4)), [], [])
        assert not report.passed
        assert report.isotropy_failures == []
        assert [(x, y) for x, y, _ in report.involutivity_failures] == [
            (KVector.coordinate(i), KVector.coordinate(j)) for i, j in ((0, 1), (0, 2), (1, 2))
        ]
        for x, y, defect in report.involutivity_failures:
            assert defect == interior_product(y, interior_product(x, curvature))
        assert report.defect_matches_prediction

    def test_defect_identity_directly(self):
        structure = DiracStructure(NONCLOSED)
        curvature = structure.curvature()
        s = Sampler(605)
        for _ in range(15):
            x = s.vector_field((0, 1, 2), 2)
            y = s.vector_field((0, 1, 2), 2)
            bracket = courant_bracket(structure.generate(x), structure.generate(y))
            expected = structure.generate(lie_bracket(x, y))
            defect = bracket - expected
            assert defect.vector.is_zero()
            assert defect.form == interior_product(
                y, interior_product(x, curvature)
            )

    def test_closed_polynomial_graph_is_involutive(self):
        closed = de_rham(KForm.blade((1,), Poly.variable(0) * Poly.variable(2)))
        assert not closed.is_zero()
        structure = DiracStructure(closed)
        report = check_dirac(structure, *drawn_inputs(structure, 6, 5))
        assert report.involutivity_failures == []
        assert report.defect_matches_prediction


class TestSamplingSupport:
    def test_default_support(self):
        # A constant structure's default comes from its 2-form over no
        # cover: the standard one forces no index, a block forces itself.
        assert DiracStructure(STD.materialize(())).default_support() == (0, 1, 2, 3)
        assert BLOCK_GRAPH.default_support() == (0, 1)
        assert DiracStructure(NONCLOSED).default_support() == (0, 1, 2)
        empty = ConstantSymplectic.explicit((), [])
        assert DiracStructure(empty.materialize(())).default_support() == (0, 1, 2, 3)
        assert STD_GRAPH.default_support() == (0, 1, 2, 3)

    def test_block_structure_samples_its_own_block(self):
        report = check_dirac(BLOCK_GRAPH, *drawn_inputs(BLOCK_GRAPH, 4, 9))
        assert report.passed
