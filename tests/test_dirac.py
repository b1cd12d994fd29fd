"""Graph Dirac structures: isotropy, involutivity, orthogonal complements.

Oracles: isotropy reduces to antisymmetry of the graphed 2-form; the
involutivity defect of a non-closed graph must equal the contraction of the
curvature 3-form, computed here directly from the exterior-calculus
operators.  The orthogonal complement is checked against dense Fraction
elimination written out below.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid import cli, linalg
from algebroid.courant import (
    GeneralizedSection,
    check_dirac,
    courant_bracket,
    orthogonal_complement,
    tm_pairing,
)
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
from algebroid.symplectic import ConstantSymplectic

from conftest import fixture_path, flat_by_omega

STD = ConstantSymplectic.standard()
BLOCK = ConstantSymplectic.explicit((0, 1), [[0, 1], [-1, 0]])
NONCLOSED = KForm.blade((1, 2), Poly.variable(0))
# The 2-forms check-dirac graphs over its default sampling supports
STD_FORM = STD.materialize((0, 1, 2, 3))
BLOCK_FORM = BLOCK.materialize(())


def graph(form, field):
    """The graph section (X, i_X w) over the vector field X."""
    return GeneralizedSection(field, interior_product(field, form))


def complement(w, support):
    """The orthogonal complement of the graph of ``w`` over ``support``, as
    ``check-dirac`` asks for it."""
    return orthogonal_complement(w.materialize(support), w.closure(support))


def drawn_inputs(support, trials, seed, degree=2):
    """``check_dirac``'s pairs, fields and functions, drawn over ``support``
    in the order ``check-dirac`` draws them."""
    draw = Sampler(seed)
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
            assert graph(STD_FORM, x).form == flat_by_omega(STD, x)

    def test_check_compares_contraction_graphs(self):
        # Each involutivity defect is courant(graph X, graph Y) - graph([X, Y])
        # for the graph sections (X, i_X w).
        pairs, _, _ = drawn_inputs((0, 1, 2), 4, 602)
        report = check_dirac(NONCLOSED, pairs, [], [])
        assert [(x, y) for x, y, _ in report.involutivity_failures] == pairs
        for x, y, defect in report.involutivity_failures:
            expected = courant_bracket(graph(NONCLOSED, x), graph(NONCLOSED, y))
            assert defect == (expected - graph(NONCLOSED, lie_bracket(x, y))).form

    def test_curvature(self):
        assert de_rham(STD_FORM).is_zero()
        assert de_rham(NONCLOSED) == KForm.blade((0, 1, 2), Poly.one())

    def test_rejects_wrong_grade(self):
        with pytest.raises(GradeError):
            check_dirac(KForm.coordinate(0), [], [], [])
        with pytest.raises(GradeError):
            check_dirac(Poly.variable(0), [], [], [])
        # a constant structure enters as its 2-form over a cover
        with pytest.raises(GradeError):
            check_dirac(STD, [], [], [])


class TestIsotropy:
    def test_graph_sections_pair_to_zero(self):
        s = Sampler(603)
        for form in (STD_FORM, NONCLOSED):
            for _ in range(10):
                x = s.vector_field((0, 1, 2, 3), 2)
                y = s.vector_field((0, 1, 2, 3), 2)
                assert tm_pairing(graph(form, x), graph(form, y)).is_zero()


class TestStandardGraph:
    def test_check_passes(self):
        report = check_dirac(STD_FORM, *drawn_inputs((0, 1, 2, 3), 8, 1729))
        assert report.passed
        assert report.isotropy_failures == []
        assert report.involutivity_failures == []
        assert report.defect_matches_prediction
        assert report.axioms.passed

    def test_every_coordinate_pair_passes(self):
        support = range(6)
        fields = [KVector.coordinate(i) for i in support]
        functions = [Poly.variable(0) * Poly.variable(1)]
        report = check_dirac(STD.materialize(support), coordinate_pairs(support), fields, functions)
        assert report.passed

    def test_complement_equals_subbundle(self):
        report = complement(STD, (0, 1, 2, 3))
        assert report.fiber_dimension == 8
        assert report.dim_subbundle == 4
        assert report.dim_complement == 4
        assert report.isotropic
        assert report.equals_complement
        assert report.witness is None


class TestUnpairedDirections:
    def test_strictly_smaller_than_complement(self):
        report = complement(BLOCK, (0, 1, 2))
        assert report.ambient_indices == (0, 1, 2)
        assert report.fiber_dimension == 6
        assert report.dim_subbundle == 2
        assert report.dim_complement == 4
        assert report.isotropic
        assert not report.equals_complement
        assert str(report.witness) == "(e[2], 0)"

    def test_witness_is_orthogonal_to_every_graph_section(self):
        report = complement(BLOCK, (0, 1, 2))
        s = Sampler(604)
        for _ in range(10):
            x = s.vector_field((0, 1), 2)
            assert tm_pairing(report.witness, graph(BLOCK_FORM, x)).is_zero()


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


def brute_force_complement(ambient, sections):
    """(isotropic, equals_complement) of the subbundle spanned by the graph
    ``sections`` inside the fiber over ``ambient``.

    Isotropy pairs every two sections with ``tm_pairing``.  The complement
    is the kernel of the paired coordinate rows, and it equals the
    subbundle when the dimensions agree and every kernel vector lies in the
    row space.
    """
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


def structure_sections(w, support):
    """The ambient indices and the graph sections (e_i, i_{e_i} omega) of ``w``
    over ``support``, read off the pairing's own storage: the standard
    pairing closes ``support`` under i <-> i ^ 1 and pairs all of it, an
    explicit one adds its block and pairs only that."""
    if w.kind == "standard":
        ambient = sorted(set(support) | {i ^ 1 for i in support})
        generators = ambient
    else:
        ambient = sorted(set(support) | set(w.block))
        generators = w.block
    fields = [KVector.coordinate(i) for i in generators]
    return ambient, [GeneralizedSection(x, flat_by_omega(w, x)) for x in fields]


def form_sections(form, ambient):
    """The graph sections (e_i, i_{e_i} w) over ``ambient`` whose form part
    is not zero."""
    sections = [graph(form, KVector.coordinate(i)) for i in ambient]
    return [section for section in sections if not section.form.is_zero()]


def _seeded_structures(seed):
    """Constant structures with a seeded support: the standard structure and
    an invertible antisymmetric block."""
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
    return out


# Constant 2-forms on coordinates below 8, degenerate ones included: up to
# six blades (i, j), i < j, each with a coefficient in -2..2.
constant_forms = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
    .filter(lambda blade: blade[0] < blade[1]),
    st.integers(min_value=-2, max_value=2),
    max_size=6,
).map(lambda terms: KForm(2, terms))


class TestComplementAgainstBruteForce:
    def test_unpaired_block_case(self):
        report = complement(BLOCK, (0, 1, 2))
        assert brute_force_complement(*structure_sections(BLOCK, (0, 1, 2))) == (True, False)
        assert (report.isotropic, report.equals_complement) == (True, False)

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_constant_structures(self, seed):
        for w, support in _seeded_structures(seed):
            ambient, sections = structure_sections(w, support)
            report = complement(w, support)
            assert report.ambient_indices == tuple(ambient)
            expected = brute_force_complement(ambient, sections)
            assert (report.isotropic, report.equals_complement) == expected

    def test_seeds_reach_every_verdict(self):
        # A 2-form's graph is isotropic, so these are all the verdicts.
        verdicts = set()
        for seed in range(12):
            for w, support in _seeded_structures(seed):
                verdicts.add(brute_force_complement(*structure_sections(w, support)))
        assert verdicts == {(True, True), (True, False)}

    @given(constant_forms, st.sets(st.integers(min_value=0, max_value=9), max_size=6))
    @settings(deadline=None)
    def test_arbitrary_constant_forms(self, form, extra):
        # The generators are the nonzero rows of the form; indices of the
        # ambient fiber that the form does not pair are never generators.
        ambient = tuple(sorted(form.support() | extra))
        report = orthogonal_complement(form, ambient)
        expected = brute_force_complement(ambient, form_sections(form, ambient))
        assert expected[0]
        assert report.dim_subbundle == len(form_sections(form, ambient))
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
        report = complement(STD, tuple(range(30)))
        assert report.dim_subbundle == report.dim_complement == 30
        assert report.isotropic and report.equals_complement
        assert calls["rank"] == 0
        assert calls["nullspace"] == 0
        assert calls["row_space_contains"] == 0


class TestNonClosedGraph:
    def test_involutivity_fails_with_predicted_defect(self):
        report = check_dirac(NONCLOSED, *drawn_inputs((0, 1, 2), 6, 3))
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
        curvature = de_rham(NONCLOSED)
        report = check_dirac(NONCLOSED, coordinate_pairs(range(4)), [], [])
        assert not report.passed
        assert report.isotropy_failures == []
        assert [(x, y) for x, y, _ in report.involutivity_failures] == [
            (KVector.coordinate(i), KVector.coordinate(j)) for i, j in ((0, 1), (0, 2), (1, 2))
        ]
        for x, y, defect in report.involutivity_failures:
            assert defect == interior_product(y, interior_product(x, curvature))
        assert report.defect_matches_prediction

    def test_defect_identity_directly(self):
        curvature = de_rham(NONCLOSED)
        s = Sampler(605)
        for _ in range(15):
            x = s.vector_field((0, 1, 2), 2)
            y = s.vector_field((0, 1, 2), 2)
            bracket = courant_bracket(graph(NONCLOSED, x), graph(NONCLOSED, y))
            defect = bracket - graph(NONCLOSED, lie_bracket(x, y))
            assert defect.vector.is_zero()
            assert defect.form == interior_product(
                y, interior_product(x, curvature)
            )

    def test_closed_polynomial_graph_is_involutive(self):
        closed = de_rham(KForm.blade((1,), Poly.variable(0) * Poly.variable(2)))
        assert not closed.is_zero()
        report = check_dirac(closed, *drawn_inputs((0, 1, 2), 6, 5))
        assert report.involutivity_failures == []
        assert report.defect_matches_prediction


def dirac_support(document, *target):
    """The sampling support ``check-dirac`` reports for a document."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.run(["check-dirac", "--input", str(document), "--format", "json", *target])
    return json.loads(out.getvalue())["options"]["support"]


class TestSamplingSupport:
    def test_default_support(self, tmp_path):
        # A constant structure's default comes from its 2-form over no
        # cover: the standard one forces no index, a block forces itself.
        assert dirac_support(fixture_path("dirac_std.adsl")) == [0, 1, 2, 3]
        assert dirac_support(fixture_path("explicit_block.adsl")) == [0, 1]
        assert dirac_support(fixture_path("nonclosed_form.adsl"), "--target", "B") == [0, 1, 2]
        empty = tmp_path / "empty_block.adsl"
        empty.write_text("var x0 x1 x2 x3 x4 x5\nsymplectic explicit support {} matrix []\n")
        assert dirac_support(empty) == [0, 1, 2, 3]

    def test_block_structure_samples_its_own_block(self):
        report = check_dirac(BLOCK_FORM, *drawn_inputs((0, 1), 4, 9))
        assert report.passed
