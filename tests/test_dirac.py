"""Graph Dirac structures: isotropy, involutivity, orthogonal complements.

Oracles: isotropy reduces to antisymmetry of the graphed 2-form; the
involutivity defect of a non-closed graph must equal the contraction of the
curvature 3-form, computed here directly from the exterior-calculus
operators.
"""

import pytest

from algebroid.courant import (
    DiracStructure,
    check_dirac,
    courant_bracket,
    orthogonal_complement,
    tm_pairing,
)
from algebroid.errors import GradeError
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


class TestGraphConstruction:
    def test_constant_graph_uses_flat(self):
        structure = DiracStructure(STD)
        s = Sampler(601)
        for _ in range(10):
            x = s.vector_field((0, 1, 2, 3), 2)
            section = structure.generate(x)
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
        assert DiracStructure(STD).curvature().is_zero()
        assert DiracStructure(NONCLOSED).curvature() == de_rham(NONCLOSED)

    def test_rejects_wrong_grade(self):
        with pytest.raises(GradeError):
            DiracStructure(KForm.coordinate(0))
        with pytest.raises(GradeError):
            DiracStructure(Poly.variable(0))


class TestIsotropy:
    def test_graph_sections_pair_to_zero(self):
        s = Sampler(603)
        for structure in (DiracStructure(STD), DiracStructure(NONCLOSED)):
            for _ in range(10):
                x = s.vector_field((0, 1, 2, 3), 2)
                y = s.vector_field((0, 1, 2, 3), 2)
                assert tm_pairing(
                    structure.generate(x), structure.generate(y)
                ).is_zero()


class TestStandardGraph:
    def test_check_passes(self):
        report = check_dirac(DiracStructure(STD), trials=8, seed=1729)
        assert report.passed
        assert report.isotropy_failures == []
        assert report.involutivity_failures == []
        assert report.defect_matches_prediction
        assert report.axioms.passed

    def test_complement_equals_subbundle(self):
        report = orthogonal_complement(DiracStructure(STD), (0, 1, 2, 3))
        assert report.fiber_dimension == 8
        assert report.dim_subbundle == 4
        assert report.dim_complement == 4
        assert report.isotropic
        assert report.equals_complement
        assert report.witness is None


class TestUnpairedDirections:
    def test_strictly_smaller_than_complement(self):
        report = orthogonal_complement(DiracStructure(BLOCK), (0, 1, 2))
        assert report.ambient_indices == (0, 1, 2)
        assert report.fiber_dimension == 6
        assert report.dim_subbundle == 2
        assert report.dim_complement == 4
        assert report.isotropic
        assert not report.equals_complement
        assert str(report.witness) == "(e[2], 0)"

    def test_witness_is_orthogonal_to_every_graph_section(self):
        report = orthogonal_complement(DiracStructure(BLOCK), (0, 1, 2))
        structure = DiracStructure(BLOCK)
        s = Sampler(604)
        for _ in range(10):
            x = s.vector_field((0, 1), 2)
            assert tm_pairing(report.witness, structure.generate(x)).is_zero()

    def test_polynomial_graph_rejected(self):
        with pytest.raises(TypeError):
            orthogonal_complement(DiracStructure(NONCLOSED), (0, 1, 2))


class TestNonClosedGraph:
    def test_involutivity_fails_with_predicted_defect(self):
        report = check_dirac(DiracStructure(NONCLOSED), trials=6, seed=3)
        assert not report.passed
        assert report.isotropy_failures == []
        assert len(report.involutivity_failures) == 6
        assert report.defect_matches_prediction
        curvature = de_rham(NONCLOSED)
        for x, y, defect in report.involutivity_failures:
            assert defect == interior_product(y, interior_product(x, curvature))

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
        report = check_dirac(DiracStructure(closed), trials=6, seed=5)
        assert report.involutivity_failures == []
        assert report.defect_matches_prediction


class TestSamplingSupport:
    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            check_dirac(DiracStructure(STD), trials=1, seed=1, support=())

    def test_default_support(self):
        assert DiracStructure(STD).default_support() == (0, 1, 2, 3)
        assert DiracStructure(BLOCK).default_support() == (0, 1)
        assert DiracStructure(NONCLOSED).default_support() == (0, 1, 2)

    def test_block_structure_samples_its_own_block(self):
        report = check_dirac(DiracStructure(BLOCK), trials=4, seed=9)
        assert report.passed
