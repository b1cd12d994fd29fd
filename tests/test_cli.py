"""The command-line interface: exit codes, report schema, determinism.

Every command runs in process through ``cli.run``; the subprocess tests run
the ``[project.scripts]`` declaration in ``pyproject.toml`` as its generated
console script would, with no install, and compare it with
``python -m algebroid.cli``.  JSON reports must be byte-identical
across repeated runs (the opt-in timing field is the one excluded,
deliberately inexact value).
"""

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid import cli

from conftest import FIXTURES, child_env, console_script, fixture_path


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, command, fixture, *extra):
    code, out, err = run_cli(
        capsys,
        command,
        "--input",
        str(fixture_path(fixture)),
        "--format",
        "json",
        *extra,
    )
    report = json.loads(out) if out else None
    return code, report, err


class TestReportSchema:
    def test_base_fields(self, capsys):
        code, report, _ = run_json(capsys, "d", "std_basic.adsl", "--target", "f")
        assert code == 0
        assert report["schema"] == 1
        assert report["command"] == "d"
        assert report["input"]["file"] == "std_basic.adsl"
        assert len(report["input"]["sha256"]) == 64
        assert report["seed"] == 1729

    def test_seed_override(self, capsys):
        code, report, _ = run_json(
            capsys, "check-courant", "courant_sections.adsl", "--seed", "7"
        )
        assert code == 0
        assert report["seed"] == 7

    def test_timing_opt_in(self, capsys):
        _, plain, _ = run_json(capsys, "d", "std_basic.adsl", "--target", "f")
        assert "timing" not in plain
        _, timed, _ = run_json(
            capsys, "d", "std_basic.adsl", "--target", "f", "--timing"
        )
        assert isinstance(timed["timing"]["seconds"], str)
        float(timed["timing"]["seconds"])  # parses but is stored as text

    def test_default_format_is_text(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "d",
            "--input",
            str(fixture_path("std_basic.adsl")),
            "--target",
            "f",
        )
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert "result" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "d",
            "--input",
            str(fixture_path("std_basic.adsl")),
            "--target",
            "f",
            "--format",
            "json",
            "--output",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["command"] == "d"


class TestDeterminism:
    CASES = [
        ("check-axioms", "tangent_sections.adsl", ("--structure", "tangent")),
        ("check-axioms", "cotangent_sections.adsl", ("--structure", "cotangent")),
        ("check-courant", "courant_sections.adsl", ()),
        ("check-dirac", "dirac_std.adsl", ()),
        ("check-weak-symplectic", "std_basic.adsl", ()),
        ("bracket", "std_basic.adsl", ("--left", "f", "--right", "g")),
        ("d", "std_basic.adsl", ("--target", "a")),
        ("lie", "std_basic.adsl", ("--vector", "X", "--target", "a")),
        ("sigma", "std_basic.adsl", ("--target", "f")),
        (
            "cohomology",
            "std_small.adsl",
            ("--complex", "lp", "--support", "0..1", "--degree", "2"),
        ),
        (
            "theorem-check",
            "std_small.adsl",
            ("--support", "0..1", "--degree", "2", "--trials", "3"),
        ),
    ]

    @pytest.mark.parametrize("command,fixture,extra", CASES)
    def test_repeat_runs_are_byte_identical(self, capsys, command, fixture, extra):
        first = run_cli(
            capsys,
            command,
            "--input",
            str(fixture_path(fixture)),
            "--format",
            "json",
            *extra,
        )
        second = run_cli(
            capsys,
            command,
            "--input",
            str(fixture_path(fixture)),
            "--format",
            "json",
            *extra,
        )
        assert first == second
        assert first[0] == 0


class TestCommandResults:
    def test_poisson_bracket(self, capsys):
        code, report, _ = run_json(
            capsys, "bracket", "std_basic.adsl", "--left", "f", "--right", "g"
        )
        assert code == 0
        assert report["result"] == "x1 - 2*x2*x3"
        assert report["result_kind"] == "fn"

    def test_lie_bracket_of_vectors(self, capsys):
        code, report, _ = run_json(
            capsys, "bracket", "std_basic.adsl", "--left", "X", "--right", "Y"
        )
        assert code == 0
        assert report["result"] == "-e[0] + x1 * e[2]"

    def test_dorfman_vs_courant_kind(self, capsys):
        code, courant, _ = run_json(
            capsys, "bracket", "courant_sections.adsl", "--left", "t", "--right", "u"
        )
        assert code == 0
        code, dorfman, _ = run_json(
            capsys,
            "bracket",
            "courant_sections.adsl",
            "--left",
            "t",
            "--right",
            "u",
            "--kind",
            "dorfman",
        )
        assert code == 0
        assert courant["result"] != dorfman["result"]
        assert courant["result_kind"] == dorfman["result_kind"] == "section"

    def test_exterior_derivative_closedness(self, capsys):
        code, report, _ = run_json(capsys, "d", "std_basic.adsl", "--target", "a")
        assert code == 0
        assert report["result"] == "dx[0] ^^ dx[1] ^^ dx[2]"
        assert report["result_grade"] == 3
        assert report["closed"] is False
        code, ddf, _ = run_json(capsys, "d", "std_basic.adsl", "--target", "f")
        assert ddf["closed"] is False

    def test_lie_derivative(self, capsys):
        code, report, _ = run_json(
            capsys, "lie", "std_basic.adsl", "--vector", "X", "--target", "a"
        )
        assert code == 0
        assert report["result"] == "x1 * dx[1] ^^ dx[2]"

    def test_sigma_of_function(self, capsys):
        code, report, _ = run_json(capsys, "sigma", "std_basic.adsl", "--target", "f")
        assert code == 0
        assert report["result"] == "x0 * e[0] - x1 * e[1] - x2 * e[3]"

    def test_cohomology_table(self, capsys):
        code, report, _ = run_json(
            capsys,
            "cohomology",
            "std_small.adsl",
            "--complex",
            "lp",
            "--support",
            "0..1",
            "--degree",
            "3",
        )
        assert code == 0
        assert report["table"] == {
            "0": {"cocycles": 1, "coboundaries": 0, "dim": 1},
            "1": {"cocycles": 14, "coboundaries": 14, "dim": 0},
            "2": {"cocycles": 10, "coboundaries": 10, "dim": 0},
        }

    @pytest.mark.parametrize("fixture", ["tangent_sections.adsl", "std_basic.adsl"])
    def test_ce_tangent_reads_no_pairing(self, capsys, fixture):
        # The tangent complex needs no symplectic declaration, and a support
        # the pairing does not close is still a support.
        code, report, _ = run_json(
            capsys, "cohomology", fixture,
            "--complex", "ce-tangent", "--support", "0", "--degree", "1",
        )
        assert code == 0
        assert report["table"]["1"] == {"cocycles": 2, "coboundaries": 2, "dim": 0}

    def test_theorem_check(self, capsys):
        code, report, _ = run_json(
            capsys,
            "theorem-check",
            "std_small.adsl",
            "--support",
            "0..1",
            "--degree",
            "2",
            "--trials",
            "3",
        )
        assert code == 0
        assert report["passed"] is True
        assert report["tables_equal"] is True
        assert report["operator_mismatches"] == []

    def test_check_axioms_passes(self, capsys):
        code, report, _ = run_json(
            capsys,
            "check-axioms",
            "tangent_sections.adsl",
            "--structure",
            "tangent",
        )
        assert code == 0
        assert report["passed"] is True
        axioms = {entry["axiom"] for entry in report["checks"]}
        assert axioms == {
            "antisymmetry",
            "jacobi",
            "anchor-homomorphism",
            "leibniz",
        }

    @pytest.mark.parametrize(
        "command",
        [
            ("check-axioms", "--structure", "tangent"),
            ("check-axioms", "--structure", "cotangent"),
            ("check-courant",),
        ],
    )
    def test_axiom_checks_pass_vacuously_on_nothing(self, capsys, tmp_path, command):
        document = tmp_path / "bare.adsl"
        document.write_text("var x0 x1 x2 x3\nsymplectic std\n")
        code, out, err = run_cli(
            capsys,
            *command,
            "--input",
            str(document),
            "--format",
            "json",
            "--sections",
            "0",
            "--functions",
            "0",
        )
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["passed"] is True
        assert report["options"]["sections"] == 0
        assert report["options"]["functions"] == 0
        assert len(report["checks"]) == 4
        assert all(c["passed"] and c["witness"] is None for c in report["checks"])

    def test_check_weak_symplectic_standard(self, capsys):
        code, report, _ = run_json(
            capsys, "check-weak-symplectic", "std_basic.adsl"
        )
        assert code == 0
        assert report["passed"] is True


class TestMathematicalFailures:
    def test_nonclosed_dirac_graph(self, capsys):
        code, report, _ = run_json(
            capsys,
            "check-dirac",
            "nonclosed_form.adsl",
            "--target",
            "B",
            "--trials",
            "4",
        )
        assert code == 1
        assert report["passed"] is False
        assert report["involutivity_failures"]
        assert report["defect_matches_prediction"] is True

    def test_nonclosed_weak_symplectic_target(self, capsys):
        code, report, _ = run_json(
            capsys,
            "check-weak-symplectic",
            "nonclosed_form.adsl",
            "--target",
            "B",
        )
        assert code == 1
        assert report["passed"] is False

    def test_singular_symplectic_at_load(self, capsys):
        code, report, err = run_json(
            capsys, "check-weak-symplectic", "degenerate_form.adsl"
        )
        assert code == 1
        assert report["passed"] is False
        assert report["error"] == "the symplectic matrix is singular"
        assert "e[2]" in report["witness"]

    def test_unpaired_block_complement(self, capsys):
        code, report, _ = run_json(
            capsys, "check-dirac", "explicit_block.adsl", "--support", "0..2"
        )
        assert code == 1
        assert report["complement"]["equals_complement"] is False
        assert report["complement"]["witness"] == "(e[2], 0)"

    def test_empty_explicit_block_samples_the_default_support(self, capsys, tmp_path):
        document = tmp_path / "empty_block.adsl"
        document.write_text("var x0 x1\nsymplectic explicit support {} matrix []\n")
        code, out, err = run_cli(
            capsys, "check-dirac", "--input", str(document), "--format", "json"
        )
        report = json.loads(out)
        assert code == 1
        assert err == ""
        assert report["options"]["support"] == [0, 1, 2, 3]
        assert report["complement"]["dim_subbundle"] == 0
        assert report["complement"]["witness"] == "(e[0], 0)"

    def test_a_type_error_inside_the_complement_propagates(self, capsys, monkeypatch):
        def broken_complement(*_args, **_kwargs):
            raise TypeError("broken complement")

        monkeypatch.setattr(cli, "orthogonal_complement", broken_complement)
        with pytest.raises(TypeError, match="broken complement"):
            run_json(capsys, "check-dirac", "std_basic.adsl")

    def test_a_polynomial_graph_has_no_complement(self, capsys):
        code, report, _ = run_json(
            capsys, "check-dirac", "nonclosed_form.adsl", "--target", "B"
        )
        assert code == 1
        assert "complement" not in report


class TestUsageErrors:
    def test_syntax_error_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys,
            "d",
            "--input",
            str(fixture_path("syntax_error.adsl")),
            "--target",
            "f",
        )
        assert code == 2
        assert out == ""
        assert "line" in err

    def test_unknown_binding(self, capsys):
        code, out, err = run_cli(
            capsys,
            "d",
            "--input",
            str(fixture_path("std_basic.adsl")),
            "--target",
            "nope",
        )
        assert code == 2
        assert "nope" in err

    def test_an_expression_past_the_budget_exits_two(self, capsys, tmp_path):
        path = tmp_path / "power.adsl"
        path.write_text("var x0 x1 x2 x3\nfn f = (x0 + x1 + x2 + x3 + 1)^40\n")
        code, out, err = run_cli(capsys, "d", "--input", str(path), "--target", "f")
        assert (code, out) == (2, "")
        assert "line 2, column 31: '^' could expand to more than 2000 terms" in err

    @pytest.mark.parametrize("power", ["(x0 + 1)^1999", "(2/3*x0 + 5/7)^999"])
    def test_a_power_past_the_bit_budget_exits_two(self, capsys, tmp_path, power):
        path = tmp_path / "power.adsl"
        path.write_text(f"var x0\nfn f = {power}\n")
        code, out, err = run_cli(capsys, "d", "--input", str(path), "--target", "f")
        assert (code, out) == (2, "")
        assert "'^' could expand to coefficients of more than 500000 bits" in err
        assert "Traceback" not in err

    def test_a_number_past_the_digit_limit_exits_two(self, capsys, tmp_path):
        path = tmp_path / "digits.adsl"
        path.write_text("var x0 x1\nfn f = x0^" + "9" * 5000 + "\n")
        code, out, err = run_cli(capsys, "d", "--input", str(path), "--target", "f")
        assert (code, out) == (2, "")
        assert "line 2, column 11: a number may have at most 4300 digits" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_result_past_the_digit_limit_exits_two(self, capsys, tmp_path, fmt):
        # Each literal is inside the lexer's limit; their product, 6,000
        # digits, is past what Python converts to decimal.
        big = "7" * 3000
        path = tmp_path / "product.adsl"
        path.write_text(f"var x0\nfn f = {big} * {big} * x0^2\n")
        code, out, err = run_cli(
            capsys, "d", "--input", str(path), "--target", "f", "--format", fmt
        )
        assert (code, out) == (2, "")
        assert err == "error: a result has a number of more than 4300 digits\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("var x4096\n", "line 1, column 5: coordinate indices are below 4096, got 4096"),
            ("var x5000000\n", "line 1, column 5: coordinate indices are below 4096"),
            ("var x0\nfn f = x0^32768\n", "line 2, column 10: '^' would give an exponent "
             "larger than 32767"),
            ("var x0\nfn f = x0^32767 * x0\n", "error: a product has an exponent larger "
             "than 32767"),
        ],
        ids=["variable", "far-variable", "power", "product"],
    )
    def test_a_monomial_past_its_fields_exits_two(self, capsys, tmp_path, text, message):
        path = tmp_path / "wide.adsl"
        path.write_text(text)
        code, out, err = run_cli(capsys, "d", "--input", str(path), "--target", "f")
        assert (code, out) == (2, "")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command,text",
        [
            # no table entry [s_i, s_j] passes x0^32767; a nested bracket does
            (
                ("check-courant", "--sections", "2"),
                "var x0 x1\nsection s = (x0^16000 * e[0], x0^16000 * dx[1])\n"
                "section t = (x0^16000 * e[1], x1 * dx[0])\n",
            ),
            # [s, t] = 16000*x0^31999 * e[1], and [r, [s, t]] holds x0^32998
            (
                ("check-axioms", "--structure", "tangent", "--sections", "3"),
                "var x0 x1\nvector r = x0^1000 * e[0]\nvector s = x0^16000 * e[0]\n"
                "vector t = x0^16000 * e[1]\n",
            ),
            # {r, {s, t}} holds x0^32768 only in the cancelling pair of its
            # Cartan form, but {s, {t, r}} has it in its coordinate terms
            (
                ("check-axioms", "--structure", "cotangent", "--sections", "3"),
                "var x0 x1\nsymplectic std\nform r = x0^10769 * x1 * dx[0]\n"
                "form s = x0^10000 * dx[1]\nform t = x0^12000 * dx[1]\n",
            ),
        ],
        ids=["check-courant", "check-axioms", "check-axioms-cotangent"],
    )
    def test_a_nested_bracket_past_the_exponent_field_exits_two(
        self, capsys, tmp_path, command, text
    ):
        path = tmp_path / "nested.adsl"
        path.write_text(text)
        code, out, err = run_cli(
            capsys, *command, "--functions", "1", "--degree", "1", "--input", str(path)
        )
        assert (code, out, err) == (2, "", "error: a product has an exponent larger than 32767\n")

    def test_a_cancelling_pair_past_the_exponent_field_is_never_built(self, capsys, tmp_path):
        # {s_i, [s_j, s_k]} in Cartan form, i_{xa} db - i_{xb} da - d(a(xb)),
        # built x0^32768 in the pair (del_i a_j) xb^j that cancels, and this
        # document exited 2; the coordinate Koszul bracket never builds that
        # key, and no key of the check passes x0^32767.
        path = tmp_path / "pair.adsl"
        path.write_text(
            "var x0 x1 x2 x3\nsymplectic std\nform r = x0^16383 * x1^2 * dx[0]\n"
            "form s = x0 * dx[3]\nform t = x0^16384 * x2 * dx[1]\nfn f = 1\n"
        )
        code, out, err = run_cli(
            capsys, "check-axioms", "--structure", "cotangent", "--sections", "3",
            "--functions", "1", "--degree", "1", "--input", str(path), "--format", "json",
        )
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["passed"] is True
        assert [check["passed"] for check in report["checks"]] == [True] * 4

    def test_theorem_check_on_one_coordinate_exits_two(self, capsys, tmp_path):
        # An empty explicit block leaves x0 unpaired, so the support {0} is
        # closed; the grade-2 cases cannot draw a bivector on it.
        path = tmp_path / "one.adsl"
        path.write_text("var x0\nsymplectic explicit support {} matrix []\n")
        code, out, err = run_cli(
            capsys, "theorem-check", "--input", str(path), "--support", "0", "--degree", "1"
        )
        assert (code, out) == (2, "")
        assert err == "error: theorem-check draws bivectors, so its support needs 2 coordinates\n"

    @pytest.mark.parametrize(
        "text,column",
        [
            ("fn f = " + "(" * 160 + "x0" + ")" * 160, 72),
            ("form w = " + "d[" * 150 + "x0" + "]" * 150, 138),
            ("form w = " + "(" * 64 + "d[x0]" + ")" * 64, 74),
        ],
        ids=["parentheses", "derivatives", "mixed"],
    )
    def test_nesting_past_the_bound_exits_two(self, capsys, tmp_path, text, column):
        path = tmp_path / "deep.adsl"
        path.write_text(f"var x0\n{text}\n")
        code, out, err = run_cli(capsys, "d", "--input", str(path), "--target", "f")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: line 2, column {column}: brackets nest at most 64 deep\n"

    def test_nesting_at_the_bound_parses(self, capsys, tmp_path):
        path = tmp_path / "deep.adsl"
        path.write_text(
            "var x0 x1\nfn f = " + "(" * 64 + "x0" + ")" * 64 + "\n"
            "form w = " + "(" * 63 + "d[x1]" + ")" * 63 + "\n"
        )
        for target, result in (("f", "dx[0]"), ("w", "0")):
            code, out, err = run_cli(capsys, "d", "--input", str(path), "--target", target)
            assert (code, err) == (0, "")
            assert f"result: {result}\n" in out

    @pytest.mark.parametrize("signs,result", [(990, "dx[0]"), (991, "-dx[0]")])
    def test_a_long_run_of_unary_minus_parses(self, capsys, tmp_path, signs, result):
        path = tmp_path / "signs.adsl"
        path.write_text("var x0\nfn f = " + "-" * signs + "x0\n")
        code, out, err = run_cli(capsys, "d", "--input", str(path), "--target", "f")
        assert (code, err) == (0, "")
        assert f"result: {result}\n" in out

    def test_a_minor_past_the_exponent_field_exits_two(self, capsys, tmp_path):
        # The flat map is one block whose entries hold x0^20000 or 1; its
        # minors reach x0^40000, which no field holds.
        path = tmp_path / "minor.adsl"
        path.write_text(
            "var x0 x1 x2 x3\nform B = x0^20000 * dx[0] ^^ dx[1] + x0^20000 * dx[1] ^^ dx[2]"
            " + x0^20000 * dx[2] ^^ dx[3] + dx[0] ^^ dx[3]\n"
        )
        code, out, err = run_cli(
            capsys, "check-weak-symplectic", "--target", "B", "--input", str(path)
        )
        assert (code, out, err) == (2, "", "error: an exponent is larger than 32767\n")

    def test_missing_file(self, capsys):
        code, out, err = run_cli(
            capsys, "d", "--input", "/does/not/exist.adsl", "--target", "f"
        )
        assert code == 2
        assert "cannot read" in err

    def test_truncation_too_large(self, capsys):
        code, out, err = run_cli(
            capsys,
            "cohomology",
            "--input",
            str(fixture_path("std_basic.adsl")),
            "--complex",
            "lp",
            "--support",
            "0..3",
            "--degree",
            "3",
            "--max-basis",
            "10",
        )
        assert code == 2
        assert "basis" in err

    @pytest.mark.parametrize(
        "command,extra,expect_exit",
        [
            ("check-weak-symplectic", (), 0),
            ("cohomology", ("--complex", "lp", "--degree", "1"), 0),
            ("check-axioms", ("--structure", "cotangent"), 2),
        ],
    )
    def test_an_empty_string_support_is_the_empty_support(
        self, capsys, command, extra, expect_exit
    ):
        # "" must not fall back to the declared coordinates: it is {}.
        outcomes = [
            run_cli(capsys, command, "--input", str(fixture_path("std_basic.adsl")),
                    "--format", "json", "--support", support, *extra)
            for support in ("", "{}")
        ]
        assert outcomes[0] == outcomes[1]
        code, out, err = outcomes[0]
        assert code == expect_exit
        if expect_exit == 2:
            assert (out, err) == ("", "error: the sampling support is empty\n")
        else:
            assert json.loads(out)["options"]["support"] == []

    @pytest.mark.parametrize(
        "command,fixture,extra,reason",
        [
            ("cohomology", "std_small.adsl",
             ("--complex", "lp", "--support", "0..1", "--degree", "-1"), "--degree"),
            ("cohomology", "std_small.adsl",
             ("--complex", "lp", "--support", "0..1", "--degree", "2", "--grades=-1"),
             "negative grades"),
            ("cohomology", "std_basic.adsl",
             ("--complex", "lp", "--support", "0..2", "--degree", "1"), "closed under"),
            ("theorem-check", "std_basic.adsl", ("--support", "0..2", "--degree", "1"),
             "closed under"),
            # An explicit block closes a support only if it lies inside it.
            ("cohomology", "explicit_block.adsl",
             ("--complex", "lp", "--support", "1..2", "--degree", "1"),
             "closed under the pairing; its closure is [0, 1, 2]"),
            ("cohomology", "tangent_sections.adsl",
             ("--complex", "ce-cotangent", "--support", "0..1", "--degree", "1"),
             "needs a 'symplectic' declaration"),
            ("theorem-check", "std_small.adsl",
             ("--support", "0..1", "--degree", "1", "--trials", "-1"), "--trials"),
            ("theorem-check", "std_small.adsl",
             ("--support", "0..1", "--degree", "1", "--max-basis", "-5"), "--max-basis"),
            ("check-axioms", "tangent_sections.adsl",
             ("--structure", "tangent", "--sections", "-2", "--degree", "-1"), "must be"),
            ("check-axioms", "tangent_sections.adsl",
             ("--structure", "tangent", "--functions", "-1"), "--functions"),
            ("check-courant", "courant_sections.adsl", ("--sections", "-1"), "--sections"),
            ("check-dirac", "dirac_std.adsl", ("--degree", "-1"), "--degree"),
            ("check-dirac", "dirac_std.adsl", ("--support=-1..3",), "negative support"),
            ("check-dirac", "dirac_std.adsl", ("--support", "0..200000"),
             "support entry 200000 is not below 4096"),
            # Negative range starts, which were expanded element by element
            # before they were rejected.
            ("check-dirac", "dirac_std.adsl", ("--support=-200000000..3",),
             "negative support entry -200000000"),
            ("cohomology", "std_basic.adsl",
             ("--complex", "lp", "--support", "0..3", "--degree", "2", "--grades=-200000000..2"),
             "negative grades entry -200000000"),
            ("cohomology", "std_small.adsl",
             ("--complex", "lp", "--support", "0..1", "--degree", "2", "--grades", "0..200000"),
             "grades entry 200000 is not below 4097"),
            ("check-axioms", "tangent_sections.adsl",
             ("--structure", "tangent", "--support", "0,4096"),
             "support entry 4096 is not below 4096"),
            ("check-axioms", "std_basic.adsl", ("--structure", "tangent", "--support", "{}"),
             "support is empty"),
            ("check-courant", "courant_sections.adsl", ("--support", "{}"), "support is empty"),
            ("check-dirac", "dirac_std.adsl", ("--support", "{}"), "support is empty"),
            ("theorem-check", "std_basic.adsl", ("--support", "{}", "--degree", "1"),
             "support is empty"),
            # Sampling pools past sampling.MAX_POOL monomials, which were
            # enumerated in full before the first draw.
            ("check-axioms", "std_basic.adsl", ("--structure", "tangent", "--degree", "300"),
             "from 348881876 monomials (limit 100000)"),
            ("check-dirac", "dirac_std.adsl", ("--support", "0..3000"),
             "from 4507503 monomials (limit 100000)"),
            ("theorem-check", "std_basic.adsl", ("--support", "0..3", "--degree", "300"),
             "from 348881876 monomials (limit 100000)"),
        ],
    )
    def test_bad_argument_values_exit_two(self, capsys, command, fixture, extra, reason):
        code, out, err = run_cli(
            capsys, command, "--input", str(fixture_path(fixture)), *extra
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert reason in err

    def test_unwritable_output_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(
            capsys,
            "d",
            "--input",
            str(fixture_path("std_basic.adsl")),
            "--target",
            "f",
            "--output",
            str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}")
        assert err.count("\n") == 1

    def test_bad_arguments_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["cohomology", "--input", "x.adsl"])  # missing required flags
        assert exc.value.code == 2

    def test_an_unknown_complex_is_not_a_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["cohomology", "--input", str(fixture_path("std_small.adsl")),
                     "--complex", "nope", "--support", "0..1", "--degree", "1"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_mixed_bracket_kinds_rejected(self, capsys):
        code, out, err = run_cli(
            capsys,
            "bracket",
            "--input",
            str(fixture_path("std_basic.adsl")),
            "--left",
            "f",
            "--right",
            "a",
        )
        assert code == 2


# -- argv fuzz -----------------------------------------------------------------

# Values for each option: mostly valid and small, so a run stays short, with
# malformed, negative and unknown ones mixed in.
_NAMES = st.sampled_from(("f", "g", "a", "b", "c", "X", "Y", "Z", "P", "s", "t", "u", "B",
                          "nope", "x0"))
_SUPPORTS = st.sampled_from(("0..1", "0..3", "0,2", "1", "", "{}", "2..0", "-1..2", "0..x",
                             "a", "0,,1"))
_OPTION_VALUES = {
    "--format": st.sampled_from(("text", "json", "xml")),
    "--seed": st.integers(min_value=-3, max_value=3).map(str),
    "--timing": st.none(),
    "--structure": st.sampled_from(("tangent", "cotangent", "other")),
    "--sections": st.integers(min_value=-1, max_value=3).map(str),
    "--functions": st.integers(min_value=-1, max_value=2).map(str),
    "--degree": st.sampled_from(("-1", "0", "1", "2", "two")),
    "--trials": st.integers(min_value=-1, max_value=3).map(str),
    "--support": _SUPPORTS,
    "--target": _NAMES,
    "--left": _NAMES,
    "--right": _NAMES,
    "--vector": _NAMES,
    "--kind": st.sampled_from(("courant", "dorfman", "other")),
    "--complex": st.sampled_from(("lp", "ce-tangent", "ce-cotangent", "other")),
    "--grades": st.sampled_from(("0..2", "1", "0..4", "2..1", "-1", "g")),
    "--max-basis": st.sampled_from(("-1", "0", "3", "200")),
}
# Each command's options, required ones first: (required, optional).
_COMMAND_OPTIONS = {
    "check-axioms": (("--structure",), ("--sections", "--functions", "--support", "--degree")),
    "check-courant": ((), ("--sections", "--functions", "--support", "--degree")),
    "check-dirac": ((), ("--target", "--trials", "--support", "--degree")),
    "check-weak-symplectic": ((), ("--target", "--support")),
    "bracket": (("--left", "--right"), ("--kind",)),
    "d": (("--target",), ()),
    "lie": (("--vector", "--target"), ()),
    "sigma": (("--target",), ()),
    "cohomology": (("--complex", "--support", "--degree"), ("--grades", "--max-basis")),
    "theorem-check": (("--support", "--degree"), ("--grades", "--trials", "--max-basis")),
}
_COMMON = ("--format", "--seed", "--timing")
_INPUTS = st.sampled_from(sorted(p.name for p in FIXTURES.glob("*.adsl")) + ["missing.adsl"])


@st.composite
def argvs(draw):
    """An argv for ``cli.run``: a command, an input document, and its
    options in a random order.  A required option is missing one time in
    ten, as is the input; an optional one is present half the time; now and
    then an unknown flag follows."""
    command = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    required, optional = _COMMAND_OPTIONS[command]
    names = [name for name in required if draw(st.integers(min_value=0, max_value=9))]
    names += [name for name in optional + _COMMON if draw(st.booleans())]
    if draw(st.integers(min_value=0, max_value=9)):
        names.append("--input")
    argv = [command]
    for name in draw(st.permutations(names)):
        if name == "--input":
            argv += [name, str(FIXTURES / draw(_INPUTS))]
            continue
        value = draw(_OPTION_VALUES[name])
        argv += [name] if value is None else [f"{name}={value}"]
    if not draw(st.integers(min_value=0, max_value=9)):
        argv.append("--bogus")
    return argv


class TestArgvFuzz:
    """Whatever the argv, the CLI keeps its exit-code contract: 0, 1 or 2,
    and no traceback."""

    @given(argvs())
    @settings(max_examples=100, deadline=None)
    def test_exit_code_is_0_1_or_2_with_no_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except SystemExit as exc:  # argparse rejects a usage error this way
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv


def parse_outcome(parse, argv):
    """Exit code, stdout, stderr and, on success, the namespace of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, code = vars(parse(list(argv))), 0
        except SystemExit as exc:  # argparse rejects a usage error this way
            namespace, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), namespace


_STD = str(fixture_path("std_basic.adsl"))


def parse_id(argv):
    return " ".join(arg.replace(_STD, "std_basic.adsl") for arg in argv) or "(empty)"
_COHOMOLOGY = ["cohomology", "--input", _STD, "--complex", "lp", "--support", "0..1"]
_PARSE_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate"],
    ["coh", "--input", _STD],  # a prefix of a command is no command
    *([command, "-h"] for command in sorted(_COMMAND_OPTIONS)),
    ["cohomology", "--input", _STD],  # missing required options
    ["bracket"],
    ["check-axioms", "--input", _STD, "--structure", "other"],  # not a choice
    [*_COHOMOLOGY, "--degree", "two"],  # not an int
    ["d", "--input", _STD, "--target", "f", "extra"],  # a leftover positional
    ["d", "--input", _STD, "--target", "f", "--bogus"],  # an unknown option
    ["d", "--input", _STD, "--target", "f"],
    [*_COHOMOLOGY, "--degree", "1", "--max-b", "9"],
    [*_COHOMOLOGY, "--degree", "1", "--max=9"],
    ["cohomology", f"--input={_STD}", "--complex=ce-tangent", "--support=0..2", "--degree=2"],
    ["d", "--input", _STD, "--target", "f", "--"],
    ["d", "--input", _STD, "--", "--target", "f"],
    ["d", "--", "--input", _STD, "--target", "f"],
]


class TestParsePaths:
    """A known command is parsed on its own parser, everything else on the
    full one; ``run``'s parse must match the full parser's on any argv."""

    @pytest.mark.parametrize("columns", ["80", "40"])
    @pytest.mark.parametrize("argv", _PARSE_ARGVS, ids=parse_id)
    def test_run_parses_as_the_full_parser(self, monkeypatch, columns, argv):
        # Help and usage text wrap at the terminal width.
        monkeypatch.setenv("COLUMNS", columns)
        assert parse_outcome(cli._parse, argv) == parse_outcome(cli._parser().parse_args, argv)

    def test_a_valid_run_never_builds_the_full_parser(self, capsys):
        cli._parser.cache_clear()
        for command, fixture, extra in TestDeterminism.CASES:
            code, _, err = run_cli(capsys, command, "--input", str(fixture_path(fixture)), *extra)
            assert (code, err) == (0, ""), command
        assert cli._parser.cache_info().misses == 0
        # A subcommand's usage error is its own parser's; a top-level one
        # builds the full parser, once.
        for argv in (
            ["cohomology", "--input", _STD],
            ["frobnicate"],
            ["d", "--input", _STD, "--target", "f", "extra"],
        ):
            assert parse_outcome(cli.run, argv)[0] == 2
        assert cli._parser.cache_info().misses == 1


class TestParserReuse:
    def test_calls_after_a_usage_error_match_fresh_processes(self, monkeypatch):
        # One parser serves every cli.run call in a process.  Whatever a
        # usage error leaves on it must not reach a later call, of the same
        # subcommand or another: each call gives the exit code, report and
        # messages of a fresh interpreter.
        std = str(fixture_path("std_basic.adsl"))
        argvs = [
            ["cohomology", "--input", std],  # missing required options
            ["bracket", "--input", std, "--left", "f", "--right", "g", "--format", "json"],
            ["check-axioms", "--input", std, "--structure", "other"],  # not a choice
            ["d", "--input", std, "--target", "f"],
            ["--bogus"],
            ["check-axioms", "--input", std, "--structure", "tangent", "--format", "json"],
            ["cohomology", "--input", std, "--complex", "lp", "--support", "0..1",
             "--degree", "1", "--grades", "x"],
            ["cohomology", "--input", std, "--complex", "lp", "--support", "0..1",
             "--degree", "1"],
        ]
        parsers = {cmd: cli._command_parser(cmd) for cmd, *_ in argvs if cmd in cli._COMMANDS}
        # Usage lines wrap at the terminal width; pin it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        env = child_env()
        env["COLUMNS"] = "80"
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.run(list(argv))
                except SystemExit as exc:  # argparse rejects a usage error this way
                    code = exc.code
            fresh = subprocess.run(
                [sys.executable, "-m", "algebroid.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
            )
            got = (code, out.getvalue(), err.getvalue())
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert cli._parser() is cli._parser()
        # Each command's own parser served its runs after their usage errors.
        assert all(cli._command_parser(command) is parser for command, parser in parsers.items())


class TestConsoleScript:
    def test_installed_entry_point(self):
        completed = subprocess.run(
            [
                *console_script("algebroid"),
                "bracket",
                "--input",
                str(fixture_path("std_basic.adsl")),
                "--left",
                "f",
                "--right",
                "g",
                "--format",
                "json",
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert completed.returncode == 0
        report = json.loads(completed.stdout)
        assert report["result"] == "x1 - 2*x2*x3"

    def test_module_invocation_matches(self):
        argv = [
            "bracket",
            "--input",
            str(fixture_path("std_basic.adsl")),
            "--left",
            "f",
            "--right",
            "g",
            "--format",
            "json",
        ]
        script = subprocess.run(
            [*console_script("algebroid"), *argv],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        module = subprocess.run(
            [sys.executable, "-m", "algebroid.cli", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert script.stdout == module.stdout
        assert script.returncode == module.returncode == 0


class TestImportFootprint:
    def test_cli_import_starts_no_pool_and_has_one_elimination_path(self):
        code = (
            "import sys; import algebroid.cli; from algebroid import linalg; "
            "print('concurrent.futures' in sys.modules, linalg.BACKEND)"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=child_env(),
            check=True,
        )
        assert completed.stdout.split() == ["False", "pure-python"]
