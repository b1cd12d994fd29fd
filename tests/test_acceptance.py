"""The acceptance gate.

Nine criteria, each a single test emitting one visible PASS/FAIL line.
Every assertion is exact (rational arithmetic end to end); randomized
trials use fixed seeds, so the whole gate is deterministic.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

from algebroid import cli
from algebroid.algebroids import (
    ce_differential,
    contravariant_differential,
    cotangent_algebroid,
)
from algebroid.cohomology import TruncationSpec, compute_cohomology
from algebroid.courant import (
    check_courant_axioms,
    check_dirac,
    courant_bracket,
    delta_operator,
    dorfman_bracket,
    tm_pairing,
    anchor,
)
from algebroid.dsl import parse_document
from algebroid.exterior import (
    KForm,
    KVector,
    de_rham,
    interior_product,
    lie_bracket,
    lie_derivative,
    schouten_bracket,
    vector_apply,
    wedge,
)
from algebroid.poly import Poly
from algebroid.sampling import Sampler
from algebroid.symplectic import ConstantSymplectic

from conftest import (
    fixture_path,
    flat_by_omega,
    graded_zero_sum,
    sgn,
    sharp_by_pi,
    sparse_rows,
)
from test_cohomology import (
    basis_field,
    cohomology_of,
    euler_primitive,
    kvector_basis,
    lower,
    raise_,
    sigma_matrix,
)
from test_dsl import render_document
from test_dirac import complement, drawn_inputs, graph
from test_exterior import intrinsic_d

STD = ConstantSymplectic.standard()
# pi of the standard structure over every coordinate a field here carries
STD_PI = STD.bivector(range(6))


@contextmanager
def criterion(capsys, number, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_exterior_calculus(capsys):
    with criterion(capsys, 1, "exterior-calculus-identities"):
        started = time.monotonic()
        support = (0, 1, 2, 3)
        s = Sampler(1001)
        for _ in range(200):
            form = s.kform(s.rng.randint(0, 2), support, 2)
            assert de_rham(de_rham(form)).is_zero()
        for _ in range(200):
            k = s.rng.randint(0, 2)
            form = s.kform(k, support, 2)
            x = s.vector_field(support, 2)
            y = s.vector_field(support, 2)
            lhs = lie_derivative(lie_bracket(x, y), form)
            rhs = lie_derivative(x, lie_derivative(y, form)) - lie_derivative(
                y, lie_derivative(x, form)
            )
            assert lhs == rhs
        for _ in range(200):
            k = s.rng.randint(0, 2)
            form = s.kform(k, support, 2)
            fields = [s.vector_field(support, 2) for _ in range(k + 1)]
            assert de_rham(form).evaluate(*fields) == intrinsic_d(form, fields)
        assert time.monotonic() - started < 60


def test_criterion_2_musical_coherence(capsys):
    with criterion(capsys, 2, "musical-coherence"):
        support = (0, 1, 2, 3)
        s = Sampler(1002)
        for _ in range(100):
            f = s.poly(support, 3)
            df = de_rham(f)
            xf = sharp_by_pi(STD, df)
            assert df == -flat_by_omega(STD, xf)
            assert contravariant_differential(STD_PI, f) == -xf


def test_criterion_3_sigma_properties(capsys):
    with criterion(capsys, 3, "contravariant-differential-laws"):
        support = (0, 1, 2, 3, 4, 5)
        s = Sampler(1003)
        for _ in range(100):
            field = s.kvector(s.rng.randint(0, 3), support, 3)
            assert contravariant_differential(
                STD_PI, contravariant_differential(STD_PI, field)
            ).is_zero()
        for _ in range(100):
            p = s.rng.randint(0, 3)
            a = s.kvector(p, support, 3)
            b = s.kvector(s.rng.randint(0, 3), support, 3)
            assert graded_zero_sum(
                [
                    wedge(contravariant_differential(STD_PI, a), b),
                    wedge(a, contravariant_differential(STD_PI, b)) * sgn(p),
                    -contravariant_differential(STD_PI, wedge(a, b)),
                ]
            )
        for _ in range(100):
            p = s.rng.randint(0, 3)
            a = s.kvector(p, support, 3)
            b = s.kvector(s.rng.randint(0, 3), support, 3)
            assert graded_zero_sum(
                [
                    contravariant_differential(STD_PI, schouten_bracket(a, b)),
                    schouten_bracket(contravariant_differential(STD_PI, a), b),
                    schouten_bracket(a, contravariant_differential(STD_PI, b))
                    * sgn(p),
                ]
            )


def test_criterion_4_ce_equals_sigma(capsys):
    with criterion(capsys, 4, "chevalley-eilenberg-agreement"):
        started = time.monotonic()
        support = (0, 1, 2, 3)
        structure = cotangent_algebroid(STD.bivector(support))
        s = Sampler(1004)
        for k in (0, 1, 2):
            for _ in range(50):
                field = s.kvector(k, support, 2)
                forms = [s.oneform(support, 2) for _ in range(k + 1)]
                assert ce_differential(structure, field, forms) == (
                    contravariant_differential(STD_PI, field).evaluate(*forms)
                )
        assert time.monotonic() - started < 120


def test_criterion_5_cohomology_tables(capsys):
    with criterion(capsys, 5, "truncated-cohomology"):
        started = time.monotonic()
        spec = TruncationSpec((0, 1, 2, 3), 3)
        lp = cohomology_of("lp", STD, spec, [0, 1, 2])
        assert lp.table() == {0: (1, 0, 1), 1: (69, 69, 0), 2: (155, 155, 0)}

        ce_cot = cohomology_of("ce-cotangent", STD, spec, [0, 1, 2])
        assert ce_cot.table() == lp.table()

        ce_tan = compute_cohomology(
            "ce-tangent", None, TruncationSpec((0, 1, 2), 2), [0, 1, 2]
        )
        assert ce_tan.table() == {0: (1, 0, 1), 1: (19, 19, 0), 2: (26, 26, 0)}

        # certify the vanishing entries independently: every kernel vector of
        # a from-scratch operator matrix is transported to a closed form,
        # given an explicit primitive by the Euler homotopy, and transported
        # back -- each cocycle is exhibited as an exact coboundary
        from algebroid.linalg import nullspace

        for grade, expected_cocycles in ((1, 69), (2, 155)):
            rows, ncols = sigma_matrix(spec.support, grade, spec.degree)
            basis = kvector_basis(spec.support, grade, spec.degree)
            kernel = nullspace(sparse_rows(rows), ncols)
            assert len(kernel) == expected_cocycles
            for vector in kernel:
                cocycle = KVector.zero(grade)
                for j, coord in vector:
                    cocycle = cocycle + basis_field(*basis[j]) * coord
                form = lower(cocycle)
                primitive = euler_primitive(form, spec.support)
                candidate = raise_(primitive) if grade > 1 else primitive
                candidate = candidate * sgn(grade - 1)
                assert contravariant_differential(STD_PI, candidate) == cocycle
        assert time.monotonic() - started < 300


def test_criterion_6_casimirs_and_h1(capsys):
    with criterion(capsys, 6, "casimirs-and-grade-one"):
        for spec in (TruncationSpec((0, 1), 3), TruncationSpec((0, 1, 2, 3), 2)):
            assert cohomology_of("lp", STD, spec, [0]).grades[0].cocycles == 1
        w = ConstantSymplectic.explicit((0, 1), [[0, 1], [-1, 0]])
        grade0 = cohomology_of("lp", w, TruncationSpec((0, 1, 2), 3), [0]).grades[0]
        assert grade0.cocycles == 4
        pi = w.bivector((0, 1, 2))
        for k in range(4):
            assert contravariant_differential(pi, Poly.variable(2) ** k).is_zero()


def test_criterion_7_courant_axioms(capsys):
    with criterion(capsys, 7, "dorfman-calculus"):
        support = (0, 1, 2, 3)
        s = Sampler(1007)
        sections = [s.section(support, 2) for _ in range(5)]
        functions = [s.nonzero_poly(support, 2) for _ in range(4)]
        report = check_courant_axioms(sections, functions)
        assert report.passed  # 125 bracket triples, all three axioms
        assert 5 ** 3 >= 100
        for _ in range(100):
            s1 = s.section(support, 2)
            s2 = s.section(support, 2)
            anti = (dorfman_bracket(s1, s2) - dorfman_bracket(s2, s1)) * (
                Fraction(1, 2)
            )
            assert courant_bracket(s1, s2) == anti
        for _ in range(100):
            f = s.poly(support, 3)
            section = s.section(support, 2)
            assert tm_pairing(delta_operator(f), section) == vector_apply(
                anchor(section), f
            )


def test_criterion_8_dirac_structures(capsys):
    with criterion(capsys, 8, "graph-dirac-structures"):
        report = check_dirac(STD.materialize((0, 1, 2, 3)), *drawn_inputs((0, 1, 2, 3), 8, 1729))
        assert report.passed
        assert report.isotropy_failures == []
        assert report.involutivity_failures == []
        assert report.axioms.passed
        whole = complement(STD, (0, 1, 2, 3))
        assert whole.isotropic
        assert whole.equals_complement

        w = ConstantSymplectic.explicit((0, 1), [[0, 1], [-1, 0]])
        partial = complement(w, (0, 1, 2))
        assert partial.isotropic
        assert not partial.equals_complement
        assert partial.dim_subbundle == 2
        assert partial.dim_complement == 4
        assert str(partial.witness) == "(e[2], 0)"
        assert tm_pairing(
            partial.witness, graph(w.materialize((0, 1, 2)), KVector.coordinate(0))
        ).is_zero()

        nonclosed = KForm.blade((1, 2), Poly.variable(0))
        bad = check_dirac(nonclosed, *drawn_inputs((0, 1, 2), 6, 3))
        assert not bad.passed
        assert bad.involutivity_failures
        assert bad.defect_matches_prediction
        curvature = de_rham(nonclosed)
        for x, y, defect in bad.involutivity_failures:
            assert defect == interior_product(y, interior_product(x, curvature))


def test_criterion_9_cli_determinism(capsys):
    with criterion(capsys, 9, "cli-determinism"):
        corpus = [
            ("check-weak-symplectic", "std_basic.adsl", (), 0),
            ("bracket", "std_small.adsl", ("--left", "f", "--right", "g"), 0),
            (
                "check-weak-symplectic",
                "explicit_block.adsl",
                ("--support", "0..1"),
                0,
            ),
            # on the full ambient support the block map is not injective
            ("check-weak-symplectic", "explicit_block.adsl", (), 1),
            (
                "check-axioms",
                "tangent_sections.adsl",
                ("--structure", "tangent"),
                0,
            ),
            (
                "check-axioms",
                "cotangent_sections.adsl",
                ("--structure", "cotangent"),
                0,
            ),
            ("check-courant", "courant_sections.adsl", (), 0),
            ("check-dirac", "dirac_std.adsl", (), 0),
            (
                "check-dirac",
                "nonclosed_form.adsl",
                ("--target", "B", "--trials", "4"),
                1,
            ),
            ("check-weak-symplectic", "degenerate_form.adsl", (), 1),
            ("d", "syntax_error.adsl", ("--target", "f"), 2),
            ("d", "unbound_name.adsl", ("--target", "g"), 2),
            ("d", "grade_mismatch.adsl", ("--target", "a"), 2),
        ]
        assert len({fixture for _, fixture, _, _ in corpus}) >= 10
        seen_codes = set()
        for command, fixture, extra, expected in corpus:
            argv = [
                command,
                "--input",
                str(fixture_path(fixture)),
                "--format",
                "json",
                *extra,
            ]
            first_code = cli.run(list(argv))
            first = capsys.readouterr()
            second_code = cli.run(list(argv))
            second = capsys.readouterr()
            assert first_code == second_code == expected, fixture
            assert first.out == second.out
            seen_codes.add(first_code)
            if first_code != 2:
                json.loads(first.out)  # every emitted report is valid JSON
        assert seen_codes == {0, 1, 2}

        parseable = [
            "std_basic.adsl",
            "std_small.adsl",
            "explicit_block.adsl",
            "tangent_sections.adsl",
            "cotangent_sections.adsl",
            "courant_sections.adsl",
            "dirac_std.adsl",
            "nonclosed_form.adsl",
        ]
        for name in parseable:
            source = fixture_path(name).read_text()
            rendered = render_document(parse_document(source))
            assert render_document(parse_document(rendered)) == rendered
