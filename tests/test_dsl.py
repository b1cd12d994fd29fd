"""The model-document language: lexing, parsing, validation, rendering.

Oracles: parsed expression values are compared against hand-built objects;
rendering is checked to be a fixed point of parse-then-render (the canonical
form reproduces itself byte for byte).
"""

from fractions import Fraction

import pytest

from algebroid.courant import GeneralizedSection
from algebroid.dsl import parse_document, render_value
from algebroid.errors import DslError, NotInvertible
from algebroid.exterior import KForm, KVector, de_rham, wedge
from algebroid.poly import MAX_EXPONENT, MAX_VARIABLES, Poly, render_fraction

from conftest import fixture_path


def render_document(document) -> str:
    """The canonical text of a parsed document; a fixed point of
    parse . render on the documents the tests round-trip."""
    lines = []
    if document.var_indices:
        lines.append("var " + " ".join(f"x{i}" for i in document.var_indices))
    w = document.symplectic
    if w is not None:
        if w.kind == "standard":
            lines.append("symplectic std")
        else:
            support = ", ".join(str(i) for i in w.block)
            rows = ", ".join(
                "[" + ", ".join(render_fraction(v) for v in row) + "]"
                for row in w.matrix
            )
            lines.append(
                f"symplectic explicit support {{{support}}} matrix [{rows}]"
            )
    for binding in document.bindings:
        lines.append(f"{binding.kind} {binding.name} = {render_value(binding.value)}")
    return "\n".join(lines) + "\n"


def parse(text):
    return parse_document(text)


def x(i):
    return Poly.variable(i)


class TestExpressions:
    def test_polynomial_binding(self):
        doc = parse("var x0 x1\nfn f = x0^2 - 2/3*x1 + 1\n")
        assert doc.lookup("f").value == x(0) ** 2 - Fraction(2, 3) * x(1) + 1

    def test_form_binding(self):
        doc = parse("var x0 x1 x2\nform a = x0 * dx[1] ^^ dx[2] - dx[0] ^^ dx[1]\n")
        expected = wedge(
            KForm.from_poly(x(0)), wedge(KForm.coordinate(1), KForm.coordinate(2))
        ) - wedge(KForm.coordinate(0), KForm.coordinate(1))
        assert doc.lookup("a").value == expected

    def test_vector_binding(self):
        doc = parse("var x0 x1\nvector X = x1 * e[0] - 3 * e[1]\n")
        assert doc.lookup("X").value == KVector.blade((0,), x(1)) - (
            KVector.blade((1,), Poly.constant(3))
        )

    def test_multivector_binding(self):
        doc = parse("var x0 x1 x2\nmultivector P = e[0] ^^ e[1] + x2 * e[0] ^^ e[2]\n")
        expected = KVector.blade((0, 1)) + KVector.blade((0, 2), x(2))
        assert doc.lookup("P").value == expected

    def test_section_binding(self):
        doc = parse("var x0 x1\nsection s = (e[0] - x1 * e[1], x0 * dx[1])\n")
        expected = GeneralizedSection(
            KVector.coordinate(0) - KVector.blade((1,), x(1)),
            KForm.blade((1,), x(0)),
        )
        assert doc.lookup("s").value == expected

    def test_section_with_zero_component(self):
        doc = parse("var x0\nsection s = (e[0], 0)\n")
        assert doc.lookup("s").value == GeneralizedSection(KVector.coordinate(0), KForm.zero(1))

    def test_d_operator_inside_expression(self):
        doc = parse("var x0 x1\nform a = d[x0*x1]\n")
        assert doc.lookup("a").value == de_rham(x(0) * x(1))
        doc2 = parse("var x0 x1 x2\nform b = d[x0 * dx[1]]\n")
        assert doc2.lookup("b").value == de_rham(KForm.blade((1,), x(0)))

    def test_name_reference(self):
        doc = parse("var x0 x1\nfn f = x0 + x1\nfn g = f^2 - f\n")
        f = x(0) + x(1)
        assert doc.lookup("g").value == f * f - f

    def test_rational_powers_and_precedence(self):
        doc = parse("var x0 x1\nfn f = -x0^2 + 1/2 * x1 * x0 - -3\n")
        assert doc.lookup("f").value == -(x(0) ** 2) + Fraction(1, 2) * x(1) * x(0) + 3

    def test_standard_symplectic(self):
        doc = parse("var x0 x1\nsymplectic std\n")
        assert doc.symplectic.kind == "standard"

    def test_explicit_symplectic(self):
        doc = parse(
            "var x0 x1\n"
            "symplectic explicit support {0, 1} matrix [[0, 1/2], [-1/2, 0]]\n"
        )
        w = doc.symplectic
        assert w.kind == "explicit"
        assert w.flat_components(0) == [(1, Fraction(1, 2))]
        assert w.matrix == [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]

    def test_unsorted_explicit_support_is_permuted(self):
        doc = parse(
            "var x0 x1 x2\n"
            "symplectic explicit support {2, 0} matrix [[0, 1], [-1, 0]]\n"
        )
        w = doc.symplectic
        # w(e_0, e_2) sits at the permuted position of the original (2, 0) slot
        assert w.flat_components(0) == [(2, Fraction(-1))]
        assert w.flat_components(2) == [(0, Fraction(1))]

    def test_singular_explicit_matrix(self):
        with pytest.raises(NotInvertible):
            parse(
                "var x0 x1\n"
                "symplectic explicit support {0, 1} matrix [[0, 0], [0, 0]]\n"
            )

    def test_comments_and_blank_lines(self):
        doc = parse("# a model\nvar x0   # trailing\n\nfn f = x0\n")
        assert doc.lookup("f").value == x(0)


class TestValidation:
    def cases(self):
        return [
            ("var x0\nfn f = x0 +\n", 2, None),
            ("var x0\nfn f = y\n", 2, None),
            ("var x0\nform a = dx[0] + dx[0] ^^ dx[1]\n", 2, None),
            ("var x0\nfn f = dx[0]\n", 2, None),
            ("var x0\nvector X = x0\n", 2, None),
            ("var x0\nfn f = x0 ^ x0\n", 2, None),
        ]

    def test_error_positions(self):
        for text, line, column in self.cases():
            with pytest.raises(DslError) as err:
                parse(text)
            assert err.value.line == line
            if column is not None:
                assert err.value.column == column

    def test_unexpected_character_position(self):
        with pytest.raises(DslError) as err:
            parse("var x0\nfn f = x0 @ 2\n")
        assert err.value.line == 2
        assert err.value.column == 11

    def test_undeclared_coordinate(self):
        with pytest.raises(DslError):
            parse("var x0\nfn f = x5\n")
        with pytest.raises(DslError):
            parse("var x0\nform a = dx[5]\n")

    def test_duplicate_binding(self):
        with pytest.raises(DslError):
            parse("var x0\nfn f = x0\nfn f = x0\n")

    def test_second_symplectic_rejected(self):
        with pytest.raises(DslError):
            parse("var x0 x1\nsymplectic std\nsymplectic std\n")

    def test_zero_binding_rejected(self):
        with pytest.raises(DslError) as err:
            parse("var x0\nform a = dx[0] - dx[0]\n")
        assert "zero" in str(err.value)
        with pytest.raises(DslError):
            parse("var x0\nvector X = e[0] - e[0]\n")

    def test_zero_fn_allowed(self):
        doc = parse("var x0\nfn f = x0 - x0\n")
        assert doc.lookup("f").value.is_zero()

    def test_keyword_collision(self):
        with pytest.raises(DslError):
            parse("var x0\nfn form = x0\n")

    def test_wrong_kind_for_binding(self):
        with pytest.raises(DslError):
            parse("var x0\nfn f = e[0]\n")
        with pytest.raises(DslError):
            parse("var x0 x1\nform a = e[0] ^^ e[1]\n")


class TestDigitLimit:
    """Python converts no decimal string of more than 4,300 digits to an int;
    a longer number or coordinate index is a DslError where it is lexed."""

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("var x0 x1\nfn f = x0^" + "9" * 5000 + "\n", 2, 11),
            ("var x" + "1" * 5000 + "\n", 1, 5),
            ("var x0\nfn f = x0 + 1/" + "7" * 4301 + "\n", 2, 15),
            ("var x0\nform a = dx[" + "0" * 4301 + "]\n", 2, 13),
        ],
        ids=["exponent", "coordinate", "denominator", "index"],
    )
    def test_a_number_past_the_limit(self, text, line, column):
        with pytest.raises(DslError, match="a number may have at most 4300 digits") as err:
            parse(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_a_number_at_the_limit_parses(self):
        doc = parse("var x0\nfn f = " + "7" * 4300 + " * x0\n")
        assert doc.lookup("f").value == int("7" * 4300) * x(0)


class TestRepresentationBounds:
    """A monomial is one int with a 16-bit field per variable below
    ``MAX_VARIABLES``: an index or an exponent that no field holds is a
    DslError at its token."""

    @pytest.mark.parametrize(
        "text,column",
        [
            ("var x4096\n", 5),
            ("var x5000000\n", 5),
            ("var x0\nfn f = x4096\n", 8),
            ("var x0\nform a = dx[4096]\n", 13),
            ("var x0\nvector X = e[4096]\n", 14),
            ("var x0 x1\nsymplectic explicit support {0, 4096} matrix [[0, 1], [-1, 0]]\n", 33),
        ],
        ids=["var", "far-var", "coordinate", "dx", "e", "support"],
    )
    def test_an_index_past_the_variables(self, text, column):
        with pytest.raises(DslError, match=f"coordinate indices are below {MAX_VARIABLES}") as err:
            parse(text)
        assert (err.value.line, err.value.column) == (text.count("\n"), column)

    def test_the_last_index_parses(self):
        doc = parse(f"var x{MAX_VARIABLES - 1}\nfn f = x{MAX_VARIABLES - 1}^2\n")
        assert doc.lookup("f").value == x(MAX_VARIABLES - 1) ** 2

    @pytest.mark.parametrize(
        "power,column",
        [("(x0^2)^16384", 14), ("(2*x0*x1^3)^10923", 19)],
    )
    def test_a_power_past_the_exponent_field(self, power, column):
        with pytest.raises(DslError, match="'\\^' would give an exponent larger than 32767") as err:
            parse(f"var x0 x1\nfn f = {power}\n")
        assert (err.value.line, err.value.column) == (2, column)

    def test_powers_up_to_the_largest_exponent_expand(self):
        assert MAX_EXPONENT == 32767
        assert parse("var x0\nfn f = (x0^2)^16383\n").lookup("f").value == x(0) ** 32766
        doc = parse("var x0 x1\nfn f = (x0*x1^3 + 1)^3\n")
        assert doc.lookup("f").value == (x(0) * x(1) ** 3 + 1) ** 3


class TestExpressionBudget:
    """A ``^``, ``*`` or ``^^`` past the expression budget is a DslError at
    its operator, raised before anything is expanded."""

    def test_a_power_past_the_term_bound(self, monkeypatch):
        def expand(base, exponent):
            raise AssertionError("the power was expanded")

        monkeypatch.setattr(Poly, "__pow__", expand)
        # C(4 + 40, 4) = 135,751 possible terms
        with pytest.raises(DslError, match="could expand to more than 2000 terms") as err:
            parse("var x0 x1 x2 x3\nfn f = (x0 + x1 + x2 + x3 + 1)^40\n")
        assert (err.value.line, err.value.column) == (2, 31)
        # a bound of about 8,000 digits, more than an int may print
        with pytest.raises(DslError, match="could expand to more than 2000 terms"):
            parse("var x0 x1\nfn f = (x0 + x1 + 1)^" + "9" * 4000 + "\n")

    def test_powers_inside_the_bound_expand(self):
        # the benchmark's largest power: C(4 + 2 * 5, 4) = 1,001 possible terms
        doc = parse("var x0 x1 x2 x3\nfn g = (x0 + 2*x1 + 1/3*x2*x3)^5\n")
        g = x(0) + 2 * x(1) + Fraction(1, 3) * x(2) * x(3)
        assert doc.lookup("g").value == g**5
        # the power of a monomial is one term, whatever its degree
        assert parse("var x0\nfn f = 2*x0^5000\n").lookup("f").value == 2 * x(0) ** 5000

    def test_a_power_past_the_bit_bound(self, monkeypatch):
        def expand(base, exponent):
            raise AssertionError("the power was expanded")

        monkeypatch.setattr(Poly, "__pow__", expand)
        message = "could expand to coefficients of more than 500000 bits"
        # inside the term bound, but 2,000 * 1,999 * 1 and 1,000 * 999 * 10 bits
        with pytest.raises(DslError, match=message) as err:
            parse("var x0\nfn f = (x0 + 1)^1999\n")
        assert (err.value.line, err.value.column) == (2, 16)
        with pytest.raises(DslError, match=message) as err:
            parse("var x0\nfn f = (2/3*x0 + 5/7)^999\n")
        assert (err.value.line, err.value.column) == (2, 22)
        # a constant is one term, but its power still grows
        with pytest.raises(DslError, match=message):
            parse("var x0\nfn f = 2^500001 * x0\n")

    def test_powers_inside_the_bit_bound_expand(self):
        # 101 * 100 * ceil(log2(21 * 29)) = 101,000 bits
        doc = parse("var x0\nfn f = (2/3*x0 + 5/7)^100\n")
        assert doc.lookup("f").value == (Fraction(2, 3) * x(0) + Fraction(5, 7)) ** 100
        # a unit monomial's coefficient stays 1, up to the largest exponent
        assert parse("var x0\nfn f = x0^32767\n").lookup("f").value == x(0) ** 32767
        with pytest.raises(DslError, match="exponent larger than 32767") as err:
            parse("var x0\nfn f = x0^32768\n")
        assert (err.value.line, err.value.column) == (2, 10)
        assert parse("var x0\nfn f = 2^500000 * x0\n").lookup("f").value == 2**500000 * x(0)

    @pytest.mark.parametrize("op", ["*", "^^"])
    def test_a_product_past_the_term_bound(self, op):
        # f has C(4 + 9, 4) = 715 terms; f * f may hold C(4 + 18, 4) = 7,315
        with pytest.raises(DslError, match="could expand to more than 2000 terms") as err:
            parse(f"var x0 x1 x2 x3\nfn f = (x0 + x1 + x2 + x3 + 1)^9\nfn g = f {op} f\n")
        assert (err.value.line, err.value.column) == (3, 10)

    def test_a_product_past_the_multiplication_bound(self):
        # 601 terms on each side: at most 1,201 terms, but 601^2 multiplications
        message = "would make more than 250000 term multiplications"
        with pytest.raises(DslError, match=message) as err:
            parse("var x0 x1\nfn f = (x0 + 1)^600\nform a = (f * dx[0]) ^^ (f * dx[1])\n")
        assert (err.value.line, err.value.column) == (3, 22)
        with pytest.raises(DslError, match=message):
            parse("var x0\nfn f = (x0 + 1)^600\nfn g = f * f\n")


class TestRendering:
    def test_render_value_round_trips(self):
        doc = parse(
            "var x0 x1 x2 x3\n"
            "fn f = x0*x1 + 1/2*x2^2\n"
            "form a = x0 * dx[1] ^^ dx[2]\n"
            "vector X = x1 * e[0] - e[3]\n"
            "multivector P = e[0] ^^ e[1] + x2 * e[2] ^^ e[3]\n"
            "section s = (e[0], x0 * dx[1])\n"
        )
        for binding in doc.bindings:
            text = render_value(binding.value)
            round_doc = parse(
                f"var x0 x1 x2 x3\n{binding.kind} probe = {text}\n"
            )
            assert round_doc.lookup("probe").value == binding.value

    def test_document_fixed_point(self):
        text = (
            "var x0 x1 x2 x3\n"
            "symplectic std\n"
            "fn f = x0*x1 + 1/2*x2^2\n"
            "form a = x0 * dx[1] ^^ dx[2]\n"
            "vector X = x1 * e[0] - e[3]\n"
        )
        rendered = render_document(parse(text))
        assert render_document(parse(rendered)) == rendered

    def test_explicit_symplectic_fixed_point(self):
        text = (
            "var x0 x1 x2\n"
            "symplectic explicit support {0, 1} matrix [[0, 1/2], [-1/2, 0]]\n"
            "fn c = x2\n"
        )
        rendered = render_document(parse(text))
        assert render_document(parse(rendered)) == rendered

    def test_fixture_corpus_round_trips(self):
        parseable = [
            "std_basic.adsl",
            "std_small.adsl",
            "explicit_block.adsl",
            "tangent_sections.adsl",
            "cotangent_sections.adsl",
            "courant_sections.adsl",
            "dirac_std.adsl",
            "nonclosed_form.adsl",
            "rational_form.adsl",
        ]
        for name in parseable:
            source = fixture_path(name).read_text()
            doc = parse(source)
            rendered = render_document(doc)
            assert render_document(parse(rendered)) == rendered

    def test_error_fixtures_raise(self):
        for name in ("syntax_error.adsl", "unbound_name.adsl", "grade_mismatch.adsl"):
            with pytest.raises(DslError):
                parse(fixture_path(name).read_text())
        with pytest.raises(NotInvertible):
            parse(fixture_path("degenerate_form.adsl").read_text())


class TestDocumentStructure:
    def test_var_lines_merge(self):
        doc = parse("var x0 x2\nvar x1\nfn f = x0 + x1 + x2\n")
        assert doc.var_indices == (0, 1, 2)

    def test_contains_and_lookup(self):
        doc = parse("var x0\nfn f = x0\n")
        assert "f" in doc
        assert "g" not in doc
        assert doc.lookup("f").kind == "fn"
