"""A small line-oriented modelling language for polynomial models.

Grammar (one declaration per line, ``#`` starts a comment)::

    declaration:
        'var' NAME+                       e.g.  var x0 x1 x2
        'symplectic' 'std'
        'symplectic' 'explicit' 'support' '{' INT (',' INT)* '}'
                     'matrix' '[' row (',' row)* ']'
                     where row = '[' rational (',' rational)* ']'
        'fn'          NAME '=' expr
        'form'        NAME '=' expr       (grade >= 1)
        'vector'      NAME '=' expr       (grade 1)
        'multivector' NAME '=' expr
        'section'     NAME '=' '(' expr ',' expr ')'

    expr    : sum
    sum     : wedge (('+' | '-') wedge)*
    wedge   : product ('^^' product)*
    product : unary ('*' unary)*
    unary   : '-'* power
    power   : atom ('^' INT)?             (scalar base, integer exponent)
    atom    : INT ('/' INT)?              exact rational literal
            | NAME                        declared coordinate x<i> or bound name
            | 'dx' '[' INT ']'            coordinate 1-form
            | 'e'  '[' INT ']'            coordinate vector field
            | 'd'  '[' expr ']'           exterior derivative
            | '(' expr ')'                grouping
            | '(' expr ',' expr ')'       generalized section

Every coordinate index that appears (in x<i>, dx[i], e[i], or the explicit
support) must be declared on a ``var`` line and be below
``poly.MAX_VARIABLES``; binding names are unique and may not collide with
keywords or with the coordinate pattern ``x<digits>``.  A ``^`` whose result
would hold an exponent above ``poly.MAX_EXPONENT`` is rejected at the ``^``,
and a ``(`` or ``d[`` nested more than ``MAX_NESTING`` deep at its bracket.
Binding a tensor kind to an identically zero value of grade >= 1 is
rejected: the canonical printer could not preserve its grade.

``parse_document`` evaluates eagerly into exact values, and
``render_value`` prints a bound value in the canonical form, which reparses
to an equal value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from algebroid.courant import GeneralizedSection
from algebroid.errors import DslError, GradeError
from algebroid.exterior import KForm, KVector, de_rham, render_alternating, wedge
from algebroid.poly import MAX_EXPONENT, MAX_VARIABLES, Poly, render_poly
from algebroid.symplectic import ConstantSymplectic

KEYWORDS = {
    "var",
    "symplectic",
    "std",
    "explicit",
    "support",
    "matrix",
    "fn",
    "form",
    "vector",
    "multivector",
    "section",
    "d",
    "dx",
    "e",
}

_COORD_RE = re.compile(r"^x(\d+)$")

# Python converts no decimal string of more than 4,300 digits to an int, so
# a longer number or coordinate index is rejected where it is lexed.
MAX_DIGITS = 4300

# The expression budget.  A ``^``, ``*`` or ``^^`` whose result could hold
# more than EXPANSION_TERMS terms, or a ``*`` or ``^^`` that would make more
# than EXPANSION_MULTIPLICATIONS term multiplications, is rejected before it
# is expanded: unbounded, a two-line document such as
# ``(x0 + x1 + x2 + x3 + 1)^40`` expands 135,751 terms for minutes.  The
# largest benchmark power, ``(x0 + 2*x1 + 1/3*x2*x3)^5``, may hold
# C(14, 4) = 1,001 terms.
EXPANSION_TERMS = 2_000
EXPANSION_MULTIPLICATIONS = 250_000

# Terms are not digits: inside the term budget, ``(x0 + 1)^1999`` ran for
# 5 s and ``(2/3*x0 + 5/7)^999`` for 25 s (2-vCPU VM), on coefficients of
# thousands of bits.  So a ``^`` whose coefficients could hold more than
# EXPANSION_BITS bits in all, by ``_power_bits``, is rejected as well.  The
# largest powers of those two bases inside it, ``^706`` and ``^223``, take
# about 0.35 s each on the same VM.  The largest benchmark power may hold
# 1,001 * 5 * 5 = 25,025 bits.
EXPANSION_BITS = 500_000

# '(' and 'd[' nest at most MAX_NESTING deep.  A level costs eight parser
# frames, so a line stays inside Python's recursion limit of 1,000 frames,
# under a test runner's deeper stack too; a deeper one is a parse error at
# its bracket.
MAX_NESTING = 64

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<wedge>\^\^)|(?P<sym>[+\-*/^=\[\](){},]))"
)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind  # "int" | "name" | "sym" | "end"
        self.text = text
        self.line = line
        self.column = column


def _lex_line(text, line_no):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos] == "#":
            break
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped or stripped[0] == "#":
                break
            column = len(text) - len(stripped) + 1
            raise DslError(f"unexpected character {stripped[0]!r}", line_no, column)
        pos = match.end()
        kind = match.lastgroup
        value = match.group(kind)
        column = match.start(kind) + 1
        digits = value if kind == "int" else value[1:] if _COORD_RE.match(value) else ""
        if len(digits) > MAX_DIGITS:
            raise DslError(f"a number may have at most {MAX_DIGITS} digits", line_no, column)
        tokens.append(_Token("sym" if kind == "wedge" else kind, value, line_no, column))
    tokens.append(_Token("end", "", line_no, len(text) + 1))
    return tokens


class Binding:
    __slots__ = ("kind", "name", "value")

    def __init__(self, kind: str, name: str, value):
        self.kind = kind  # "fn" | "form" | "vector" | "multivector" | "section"
        self.name = name
        self.value = value


class ModelDocument:
    """The result of parsing: declared coordinates, an optional symplectic
    structure, and ordered named bindings."""

    def __init__(self):
        self.var_indices = ()
        self.symplectic = None
        self.bindings = []
        self._by_name = {}

    def bind(self, binding: Binding):
        self.bindings.append(binding)
        self._by_name[binding.name] = binding

    def lookup(self, name: str):
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


class _LineParser:
    """Recursive-descent parser over one line's tokens."""

    def __init__(self, tokens, document):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.document = document

    # -- token plumbing --------------------------------------------------

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "end":
            self.pos += 1
        return token

    def expect_sym(self, text) -> _Token:
        token = self.current
        if token.kind != "sym" or token.text != text:
            raise DslError(
                f"expected {text!r}, found {token.text!r}" if token.kind != "end"
                else f"expected {text!r} before end of line",
                token.line,
                token.column,
            )
        return self.advance()

    def at_sym(self, text) -> bool:
        return self.current.kind == "sym" and self.current.text == text

    def expect_int(self) -> int:
        token = self.current
        if token.kind != "int":
            raise DslError(
                f"expected an integer, found {token.text!r}"
                if token.kind != "end"
                else "expected an integer before end of line",
                token.line,
                token.column,
            )
        self.advance()
        return int(token.text)

    def expect_end(self):
        token = self.current
        if token.kind != "end":
            raise DslError(f"unexpected {token.text!r}", token.line, token.column)

    def error(self, message, token=None) -> DslError:
        token = token or self.current
        return DslError(message, token.line, token.column)

    # -- coordinates -------------------------------------------------------

    def coordinate_index(self, token) -> int:
        match = _COORD_RE.match(token.text)
        if not match:
            raise self.error(f"expected a coordinate like x0, found {token.text!r}", token)
        return self.check_bound(int(match.group(1)), token)

    def check_bound(self, index, token) -> int:
        if index >= MAX_VARIABLES:
            raise self.error(f"coordinate indices are below {MAX_VARIABLES}, got {index}", token)
        return index

    def check_declared(self, index, token):
        if index not in self.document.var_indices:
            self.check_bound(index, token)
            raise self.error(f"coordinate x{index} is not declared", token)

    # -- expressions -------------------------------------------------------

    def parse_expr(self):
        return self.parse_sum()

    def parse_nested(self, bracket):
        """An expression inside the '(' or 'd[' at token ``bracket``."""
        if self.depth == MAX_NESTING:
            raise self.error(f"brackets nest at most {MAX_NESTING} deep", bracket)
        self.depth += 1
        value = self.parse_expr()
        self.depth -= 1
        return value

    def parse_sum(self):
        value = self.parse_wedge()
        while self.current.kind == "sym" and self.current.text in "+-":
            op = self.advance()
            right = self.parse_wedge()
            value = self.combine_additive(value, right, op)
        return value

    def parse_wedge(self):
        value = self.parse_product()
        while self.at_sym("^^"):
            op = self.advance()
            right = self.parse_product()
            value = self.combine_wedge(value, right, op)
        return value

    def parse_product(self):
        value = self.parse_unary()
        while self.at_sym("*"):
            op = self.advance()
            right = self.parse_unary()
            value = self.combine_product(value, right, op)
        return value

    def parse_unary(self):
        negative = False
        while self.at_sym("-"):
            self.advance()
            negative = not negative
        value = self.parse_power()
        return -value if negative else value

    def parse_power(self):
        value = self.parse_atom()
        if self.at_sym("^"):
            op = self.advance()
            exponent = self.expect_int()
            if not isinstance(value, Poly):
                raise self.error("only scalars can be raised to a power", op)
            terms = _power_terms(value, exponent)
            self.check_expansion(terms, 0, op)
            if _power_bits(value, exponent, terms) > EXPANSION_BITS:
                raise self.error(
                    f"{op.text!r} could expand to coefficients of more than "
                    f"{EXPANSION_BITS} bits",
                    op,
                )
            if value.max_exponent() * exponent > MAX_EXPONENT:
                raise self.error(
                    f"{op.text!r} would give an exponent larger than {MAX_EXPONENT}", op
                )
            return value**exponent
        return value

    def parse_atom(self):
        token = self.current
        if token.kind == "int":
            self.advance()
            numerator = int(token.text)
            if self.at_sym("/"):
                self.advance()
                denominator = self.expect_int()
                if denominator == 0:
                    raise self.error("zero denominator", token)
                return Poly.constant(Fraction(numerator, denominator))
            return Poly.constant(numerator)
        if token.kind == "name":
            if token.text == "dx" or token.text == "e":
                self.advance()
                self.expect_sym("[")
                index_token = self.current
                index = self.expect_int()
                self.expect_sym("]")
                self.check_declared(index, index_token)
                cls = KForm if token.text == "dx" else KVector
                return cls.coordinate(index)
            if token.text == "d":
                self.advance()
                self.expect_sym("[")
                inner = self.parse_nested(token)
                self.expect_sym("]")
                if isinstance(inner, Poly):
                    return de_rham(inner)
                if type(inner) is KForm:
                    return de_rham(inner)
                raise self.error("d[...] applies to scalars and forms", token)
            match = _COORD_RE.match(token.text)
            if match:
                self.advance()
                index = int(match.group(1))
                self.check_declared(index, token)
                return Poly.variable(index)
            if token.text in KEYWORDS:
                raise self.error(f"unexpected keyword {token.text!r}", token)
            self.advance()
            binding = self.document.lookup(token.text)
            if binding is None:
                raise self.error(f"unbound name {token.text!r}", token)
            return binding.value
        if token.kind == "sym" and token.text == "(":
            self.advance()
            first = self.parse_nested(token)
            if self.at_sym(","):
                self.advance()
                second = self.parse_nested(token)
                self.expect_sym(")")
                return self.make_section(first, second, token)
            self.expect_sym(")")
            return first
        raise self.error(
            f"unexpected {token.text!r}" if token.kind != "end" else "unexpected end of line",
            token,
        )

    # -- typed combination --------------------------------------------------

    def combine_additive(self, left, right, op):
        try:
            if op.text == "+":
                return left + right
            return left - right
        except (GradeError, TypeError):
            raise self.error(
                f"cannot apply {op.text!r} to {_kind_name(left)} and {_kind_name(right)}",
                op,
            ) from None

    def check_expansion(self, terms, multiplications, op):
        """Reject an operation past the expression budget before expanding it.

        The message gives the limit, not the bound: a power's bound can have
        more digits than an int may print."""
        if terms > EXPANSION_TERMS:
            raise self.error(
                f"{op.text!r} could expand to more than {EXPANSION_TERMS} terms", op
            )
        if multiplications > EXPANSION_MULTIPLICATIONS:
            raise self.error(
                f"{op.text!r} would make more than {EXPANSION_MULTIPLICATIONS} term "
                "multiplications",
                op,
            )

    def combine_product(self, left, right, op):
        if isinstance(left, Poly) or isinstance(right, Poly):
            self.check_expansion(*_product_size(left, right), op)
            try:
                return left * right
            except (GradeError, TypeError):
                pass
        raise self.error(
            f"cannot multiply {_kind_name(left)} and {_kind_name(right)}; "
            "use ^^ for exterior products",
            op,
        )

    def combine_wedge(self, left, right, op):
        if isinstance(left, GeneralizedSection) or isinstance(right, GeneralizedSection):
            raise self.error("sections have no exterior product", op)
        self.check_expansion(*_product_size(left, right), op)
        try:
            return wedge(left, right)
        except (GradeError, TypeError):
            raise self.error(
                f"cannot wedge {_kind_name(left)} with {_kind_name(right)}", op
            ) from None

    def make_section(self, first, second, token):
        if isinstance(first, Poly) and first.is_zero():
            first = KVector.zero(1)
        if isinstance(second, Poly) and second.is_zero():
            second = KForm.zero(1)
        if type(first) is not KVector or first.grade != 1:
            raise self.error("a section's first component must be a vector field", token)
        if type(second) is not KForm or second.grade != 1:
            raise self.error("a section's second component must be a 1-form", token)
        return GeneralizedSection(first, second)


def _power_terms(base: Poly, exponent: int) -> int:
    """A bound on the terms of ``base ** exponent``: the monomials of degree
    <= d * e in the base's n variables, C(n + d e, n), and the multisets of
    e of its k terms, C(k - 1 + e, e).  A monomial's power is one term."""
    k = len(base.terms)
    if k <= 1:
        return 1
    n = len(base.variables())
    d = base.total_degree()
    return min(comb(n + d * exponent, n), comb(k - 1 + exponent, exponent))


def _power_bits(base: Poly, exponent: int, terms: int) -> int:
    """A bound on the coefficient bits of ``base ** exponent``, given a bound
    ``terms`` on its terms.

    Scaled by the lcm L of its denominators, the base has integer
    coefficients whose absolute values sum to S.  Every coefficient of the
    power is then an integer of at most S^e over a divisor of L^e, so it
    holds at most about e * ceil(log2(L S)) bits.
    """
    scale = base.denominator()
    height = sum(abs(int(coeff * scale)) for coeff in base.terms.values())
    return terms * exponent * max(0, scale * height - 1).bit_length()


def _product_size(left, right):
    """(bound on result terms, term multiplications) of a product or wedge.

    Every coefficient c of one side meets every coefficient c' of the other:
    |c| |c'| term multiplications, giving at most min(|c| |c'|,
    C(n + d + d', n)) terms, with n their variables and d, d' their degrees.
    The multiplications bound the terms, so a product within the term limit
    by that count alone needs no binomial.
    """
    a, b = _coefficients(left), _coefficients(right)
    multiplications = sum(len(c.terms) for c in a) * sum(len(c.terms) for c in b)
    if multiplications <= EXPANSION_TERMS:
        return multiplications, multiplications
    terms = 0
    for c in a:
        for c2 in b:
            n = len(c.variables() | c2.variables())
            degree = c.total_degree() + c2.total_degree()
            terms += min(len(c.terms) * len(c2.terms), comb(n + degree, n))
    return terms, multiplications


def _coefficients(value):
    """The polynomials a product multiplies: a scalar itself, or each
    coefficient of a form or multivector (a section has none)."""
    if isinstance(value, Poly):
        return [value]
    if type(value) in (KForm, KVector):
        return list(value.terms.values())
    return []


def _kind_name(value) -> str:
    if isinstance(value, Poly):
        return "a scalar"
    if type(value) is KForm:
        return f"a grade-{value.grade} form"
    if type(value) is KVector:
        return f"a grade-{value.grade} multivector"
    if isinstance(value, GeneralizedSection):
        return "a section"
    return type(value).__name__


def _parse_rational(parser: _LineParser) -> Fraction:
    negative = False
    while parser.at_sym("-"):
        parser.advance()
        negative = not negative
    numerator = parser.expect_int()
    denominator = 1
    if parser.at_sym("/"):
        parser.advance()
        denominator = parser.expect_int()
        if denominator == 0:
            raise parser.error("zero denominator")
    value = Fraction(numerator, denominator)
    return -value if negative else value


def _comma_list(parser: _LineParser, opening, closing, item) -> list:
    """``opening [item (, item)*] closing``, each element read by ``item()``."""
    parser.expect_sym(opening)
    items = []
    if not parser.at_sym(closing):
        items.append(item())
        while parser.at_sym(","):
            parser.advance()
            items.append(item())
    parser.expect_sym(closing)
    return items


def _parse_index(parser: _LineParser) -> int:
    """A declared coordinate index."""
    token = parser.current
    index = parser.expect_int()
    parser.check_declared(index, token)
    return index


def _parse_symplectic(parser: _LineParser, document: ModelDocument):
    if document.symplectic is not None:
        raise parser.error("a document declares at most one symplectic structure")
    token = parser.current
    if token.kind != "name" or token.text not in ("std", "explicit"):
        raise parser.error("expected 'std' or 'explicit'")
    parser.advance()
    if token.text == "std":
        parser.expect_end()
        document.symplectic = ConstantSymplectic.standard()
        return
    word = parser.current
    if word.kind != "name" or word.text != "support":
        raise parser.error("expected 'support'")
    parser.advance()
    indices = _comma_list(parser, "{", "}", lambda: _parse_index(parser))
    word = parser.current
    if word.kind != "name" or word.text != "matrix":
        raise parser.error("expected 'matrix'")
    parser.advance()
    rows = _comma_list(
        parser, "[", "]", lambda: _comma_list(parser, "[", "]", lambda: _parse_rational(parser))
    )
    parser.expect_end()
    order = sorted(range(len(indices)), key=lambda k: indices[k])
    if len(rows) != len(indices) or any(len(row) != len(indices) for row in rows):
        raise parser.error("matrix shape must match the support")
    permuted = [[rows[a][b] for b in order] for a in order]
    try:
        document.symplectic = ConstantSymplectic.explicit(
            sorted(indices), permuted
        )
    except ValueError as exc:
        raise parser.error(str(exc)) from None


_BINDING_KINDS = ("fn", "form", "vector", "multivector", "section")


def _parse_binding(parser: _LineParser, document: ModelDocument, kind: str):
    name_token = parser.current
    if name_token.kind != "name":
        raise parser.error("expected a name")
    name = name_token.text
    if name in KEYWORDS or _COORD_RE.match(name):
        raise parser.error(f"{name!r} cannot be used as a binding name", name_token)
    if name in document:
        raise parser.error(f"{name!r} is already bound", name_token)
    parser.advance()
    parser.expect_sym("=")
    value = parser.parse_expr()
    parser.expect_end()

    if kind == "fn":
        if type(value) in (KForm, KVector) and value.grade == 0:
            value = value.as_poly()
        if not isinstance(value, Poly):
            raise parser.error(
                f"fn {name} must be a scalar, got {_kind_name(value)}", name_token
            )
    elif kind == "form":
        if type(value) is not KForm or value.grade < 1:
            raise parser.error(
                f"form {name} must have grade >= 1, got {_kind_name(value)}", name_token
            )
        if value.is_zero():
            raise parser.error(
                f"form {name} is identically zero; a zero binding cannot keep its grade",
                name_token,
            )
    elif kind == "vector":
        if type(value) is not KVector or value.grade != 1:
            raise parser.error(
                f"vector {name} must be a grade-1 multivector, got {_kind_name(value)}",
                name_token,
            )
        if value.is_zero():
            raise parser.error(
                f"vector {name} is identically zero; a zero binding cannot keep its grade",
                name_token,
            )
    elif kind == "multivector":
        if isinstance(value, Poly):
            value = KVector.from_poly(value)
        if type(value) is not KVector:
            raise parser.error(
                f"multivector {name} must be a multivector, got {_kind_name(value)}",
                name_token,
            )
        if value.is_zero() and value.grade > 0:
            raise parser.error(
                f"multivector {name} is identically zero; a zero binding cannot keep "
                "its grade",
                name_token,
            )
    elif kind == "section":
        if not isinstance(value, GeneralizedSection):
            raise parser.error(
                f"section {name} must be a (vector, form) pair, got {_kind_name(value)}",
                name_token,
            )
    document.bind(Binding(kind, name, value))


def parse_document(text: str) -> ModelDocument:
    """Parse and evaluate a model document."""
    document = ModelDocument()
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = _lex_line(line, line_no)
        if tokens[0].kind == "end":
            continue
        parser = _LineParser(tokens, document)
        head = parser.current
        if head.kind != "name":
            raise parser.error("expected a declaration keyword")
        if head.text == "var":
            parser.advance()
            indices = set(document.var_indices)
            saw = False
            while parser.current.kind == "name":
                token = parser.advance()
                indices.add(parser.coordinate_index(token))
                saw = True
            parser.expect_end()
            if not saw:
                raise parser.error("var expects at least one coordinate")
            document.var_indices = tuple(sorted(indices))
        elif head.text == "symplectic":
            parser.advance()
            _parse_symplectic(parser, document)
        elif head.text in _BINDING_KINDS:
            parser.advance()
            _parse_binding(parser, document, head.text)
        else:
            raise parser.error(f"unknown declaration {head.text!r}")
    return document


# -- canonical rendering -----------------------------------------------------


def render_value(value) -> str:
    if isinstance(value, Poly):
        return render_poly(value)
    if type(value) in (KForm, KVector):
        return render_alternating(value)
    if isinstance(value, GeneralizedSection):
        return f"({render_alternating(value.vector)}, {render_alternating(value.form)})"
    raise TypeError(f"cannot render {value!r}")
