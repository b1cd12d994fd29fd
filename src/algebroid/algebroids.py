"""Lie algebroid structures over polynomial models.

An ``AlgebroidStructure`` packages a space of sections (grade-1 KVectors,
grade-1 KForms, or generalized sections), an anchor into vector fields, and
a bracket on sections.  ``check_algebroid_axioms`` verifies, on concrete
sections and functions, the four defining identities:

1. antisymmetry of the bracket;
2. the Jacobi identity;
3. the anchor is a homomorphism onto the Lie bracket of vector fields;
4. the Leibniz rule  [s, f t] = f [s, t] + anchor(s)(f) t.

Antisymmetry is checked on the section indices i <= j, Jacobi on
i < j < k, the anchor on i < j, and Leibniz on every (i, j, function f);
a failing check's witness is its first failing tuple in lexicographic index
order.

A structure's bracket is given in accumulating form, ``add_bracket(out, a,
b, sign=1)``, which adds sign * [a, b] into the blade sums ``out`` (a
(vector, form) pair of them for generalized sections); the method
``bracket(a, b)`` wraps it.  The checker keeps the rule of ``exterior``,
accumulate, then wrap once: each defect is one raw sum, tested for zero as
it stands and wrapped only to render a witness.

``cotangent_algebroid(pi)`` is the cotangent structure of a Poisson
bivector pi, a grade-2 KVector: 1-forms with the anchor a -> i_a pi and
the Koszul bracket of that anchor, whose three Cartan terms are summed into
one accumulation.  ``ce_differential`` is the Chevalley-Eilenberg
differential of such a structure on alternating polynomial cochains; for
the cotangent structure it is ``contravariant_differential(pi, .)``,
sigma = -[pi, .], the Schouten bracket with pi negated.

Both read pi alone; a constant symplectic form enters as
``w.bivector(cover)``.  The cover must hold every section's indices for the
anchor, and the indices of a field's coefficients for sigma: a constant
term of pi reaches [pi, field] only through those.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from algebroid.errors import ArityError, GradeError
from algebroid.exterior import (
    KForm,
    KVector,
    _all_vanish,
    _apply,
    _coerce_poly,
    _contract,
    _differentiate,
    _lie,
    _wrapped,
    de_rham,
    interior_product,
    schouten_bracket,
    vector_apply,
)
from algebroid.poly import Poly, _add_scaled, _poly

_ONE = Poly.one().terms


class AlgebroidStructure:
    """A section space with an anchor and a bracket in accumulating form."""

    __slots__ = ("name", "section_kind", "anchor", "add_bracket")

    def __init__(self, name, section_kind, anchor, add_bracket):
        self.name = name
        self.section_kind = section_kind  # "vector" | "form" | "generalized"
        self.anchor = anchor  # section -> grade-1 KVector
        self.add_bracket = add_bracket  # (sums, section, section, sign=1) -> None

    def bracket(self, a, b):
        """[a, b]: ``add_bracket`` into fresh sums, wrapped once."""
        return _wrapped(self.add_bracket, a, b)


def tangent_algebroid() -> AlgebroidStructure:
    """Vector fields with the identity anchor and the Lie bracket."""
    return AlgebroidStructure(
        name="tangent",
        section_kind="vector",
        anchor=lambda section: section,
        add_bracket=_lie,
    )


def _koszul_bracket(anchor, a: KForm, b: KForm) -> KForm:
    """{a, b} = L_{anchor a} b - L_{anchor b} a - d(b(anchor a)), in Cartan
    form (L_X b = i_X db + d(b(X))): i_{xa} db - i_{xb} da - d(a(xb)).  No
    antisymmetry of the anchor is used; da and db are memoized on the forms."""
    for which, form in (("first", a), ("second", b)):
        if type(form) is not KForm or form.grade != 1:
            raise GradeError(f"the Koszul bracket's {which} argument must be a grade-1 KForm")
    out = {}
    _koszul(anchor, out, a, b)
    return KForm._of_sums(out)


def _koszul(anchor, out, a, b, sign=1):
    """Add ``sign`` times {a, b} into the blade sums ``out``."""
    xa = anchor(a)
    xb = anchor(b)
    _contract(out, xa, de_rham(b), sign)
    _contract(out, xb, de_rham(a), -sign)
    value = {}
    _contract(value, xb, a)
    _differentiate(out, value.get((), {}), -sign)


def cotangent_algebroid(pi: KVector) -> AlgebroidStructure:
    """One-forms with the anchor a -> i_a pi and the Koszul bracket of the
    Poisson bivector ``pi``, a grade-2 KVector.  The structure keeps the
    anchor of each form it has seen, as ``de_rham`` keeps d."""
    if type(pi) is not KVector or pi.grade != 2:
        raise GradeError("the cotangent algebroid needs a grade-2 KVector")

    # id(section) -> (section, anchor): the memo holds the form, so its id
    # cannot pass to another form while the entry lives.  Forms are
    # immutable, so an entry stays right.
    memo = {}

    def anchor(section):
        hit = memo.get(id(section))
        if hit is None:
            hit = memo[id(section)] = (section, interior_product(section, pi))
        return hit[1]

    return AlgebroidStructure(
        name="cotangent",
        section_kind="form",
        anchor=anchor,
        add_bracket=lambda out, a, b, sign=1: _koszul(anchor, out, a, b, sign),
    )


class AxiomCheck:
    __slots__ = ("axiom", "passed", "witness")

    def __init__(self, axiom: str, passed: bool, witness: str = None):
        self.axiom = axiom
        self.passed = passed
        self.witness = witness

    def __eq__(self, other):
        return type(other) is AxiomCheck and (self.axiom, self.passed, self.witness) == (
            other.axiom, other.passed, other.witness)


class AxiomReport:
    __slots__ = ("passed", "checks", "first_failure")

    def __init__(self, passed: bool, checks: list, first_failure: AxiomCheck = None):
        self.passed = passed
        self.checks = checks
        self.first_failure = first_failure

    def __eq__(self, other):
        return type(other) is AxiomReport and (self.passed, self.checks, self.first_failure) == (
            other.passed, other.checks, other.first_failure)

    @classmethod
    def of(cls, checks) -> "AxiomReport":
        """The report over ``checks``, failing at the first failed check."""
        first_failure = next((c for c in checks if not c.passed), None)
        return cls(first_failure is None, checks, first_failure)


def first_witness(axiom, cases, wrap) -> AxiomCheck:
    """Check ``axiom`` on ``cases``, an iterable of ``(label, sums)`` pairs
    whose sums are a defect's raw blade sums (see ``_all_vanish``).

    The check fails at the first defect that is not zero, with the witness
    ``label`` followed by ``wrap(sums)``, and visits no case after it; it
    passes when every defect is zero (in particular when there are no
    cases).
    """
    for label, sums in cases:
        if not _all_vanish(sums):
            return AxiomCheck(axiom, False, f"{label}{wrap(sums)}")
    return AxiomCheck(axiom, True)


def check_algebroid_axioms(structure, sections, functions) -> AxiomReport:
    """Verify the four algebroid axioms on the given sections and functions.

    Each axiom is checked on every applicable tuple of section indices (and
    function indices, for Leibniz); the report records one entry per axiom.
    Its witness is the first failing tuple in lexicographic index order.
    Every bracket [s_i, s_j], anchor(s_i), anchor(s_i)(f) and product f s_j
    is computed once, and every defect is one accumulation.
    """
    s = list(sections)
    functions = [f if isinstance(f, Poly) else Poly.constant(f) for f in functions]
    add_bracket = structure.add_bracket
    anchor = structure.anchor
    n = len(s)
    B = [[structure.bracket(a, b) for b in s] for a in s]
    A = [anchor(a) for a in s]
    F = [[vector_apply(field, f) for f in functions] for field in A]
    # f s_j, shared by every i: the bracket's memoized derivatives then hit.
    FS = [[f * section for section in s] for f in functions]
    kind = type(s[0]) if s else KVector

    def antisymmetry():
        for i in range(n):
            for j in range(i, n):
                out = kind._sums()
                B[i][j]._add_into(out, _ONE)
                B[j][i]._add_into(out, _ONE)
                yield f"[s{i}, s{j}] + [s{j}, s{i}] = ", out

    def jacobi():
        for i, j, k in combinations(range(n), 3):
            out = kind._sums()
            add_bracket(out, s[i], B[j][k])
            add_bracket(out, s[j], B[k][i])
            add_bracket(out, s[k], B[i][j])
            yield f"jacobiator(s{i}, s{j}, s{k}) = ", out

    def homomorphism():
        for i, j in combinations(range(n), 2):
            out = {}
            anchor(B[i][j])._add_into(out, _ONE)
            _lie(out, A[i], A[j], -1)
            yield f"anchor([s{i}, s{j}]) - [anchor(s{i}), anchor(s{j})] = ", out

    def leibniz():
        for i in range(n):
            for j in range(n):
                for fi, f in enumerate(functions):
                    out = kind._sums()
                    add_bracket(out, s[i], FS[fi][j])
                    B[i][j]._add_into(out, f.terms, -1)
                    s[j]._add_into(out, F[i][fi].terms, -1)
                    yield (
                        f"[s{i}, f{fi} s{j}] - f{fi} [s{i}, s{j}] - anchor(s{i})(f{fi}) s{j} = ",
                        out,
                    )

    return AxiomReport.of(
        [
            first_witness("antisymmetry", antisymmetry(), kind._of_sums),
            first_witness("jacobi", jacobi(), kind._of_sums),
            first_witness("anchor-homomorphism", homomorphism(), KVector._of_sums),
            first_witness("leibniz", leibniz(), kind._of_sums),
        ]
    )


_COCHAIN_KIND = {"vector": KForm, "form": KVector}
_SECTION_KIND = {"vector": KVector, "form": KForm}


def _validate_sections(structure, sections):
    expected = _SECTION_KIND.get(structure.section_kind)
    if expected is None:
        raise TypeError(
            f"cochains over {structure.section_kind!r} sections are not supported"
        )
    for section in sections:
        if type(section) is not expected or section.grade != 1:
            raise GradeError(
                f"sections of the {structure.name} structure must be grade-1 "
                f"{expected.__name__}s"
            )


def ce_value(structure, k, value_fn, sections) -> Poly:
    """The Chevalley-Eilenberg formula on an arbitrary k-cochain evaluator.

    ``value_fn`` takes k sections and returns a Poly; ``sections`` has
    length k + 1.  Exposed separately so iterated differentials can be
    formed by nesting closures without materializing cochains.
    """
    sections = list(sections)
    if len(sections) != k + 1:
        raise ArityError(f"a {k}-cochain differential takes {k + 1} sections")
    _validate_sections(structure, sections)
    total = {}
    for i, section in enumerate(sections):
        rest = sections[:i] + sections[i + 1 :]
        inner = _coerce_poly(value_fn(*rest))
        _apply(total, structure.anchor(section), inner.terms, -1 if i & 1 else 1)
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            bracketed = structure.bracket(sections[i], sections[j])
            rest = [bracketed] + [
                sections[l] for l in range(k + 1) if l != i and l != j
            ]
            value = _coerce_poly(value_fn(*rest))
            _add_scaled(total, value.terms, -1 if (i + j) & 1 else 1)
    return _poly(total)


def ce_differential(structure, cochain, sections) -> Poly:
    """(d_A cochain)(sections) for an alternating polynomial cochain.

    The cochain is a KForm for vector-kind sections, a KVector for
    form-kind sections, or a bare Poly in grade 0.
    """
    if isinstance(cochain, (Poly, int, Fraction)):
        cochain = _COCHAIN_KIND[structure.section_kind].from_poly(
            cochain if isinstance(cochain, Poly) else Poly.constant(cochain)
        )
    expected = _COCHAIN_KIND.get(structure.section_kind)
    if expected is None:
        raise TypeError(
            f"cochains over {structure.section_kind!r} sections are not supported"
        )
    if type(cochain) is not expected:
        raise GradeError(
            f"cochains of the {structure.name} structure must be {expected.__name__}s"
        )
    return ce_value(structure, cochain.grade, cochain.evaluate, sections)


def contravariant_differential(pi: KVector, field) -> KVector:
    """sigma = -[pi, .], the Schouten bracket with the Poisson bivector pi
    negated.

    It is the Chevalley-Eilenberg differential of the cotangent structure,
    materialized on the coordinate coframe; sigma f = -X_f = -[pi, f].
    """
    return schouten_bracket(-pi, field)
