"""The ``algebroid`` command line driver.

Each subcommand parses a model document, runs one core operation, and emits
a deterministic report (``--format json|text``, default text).  Every number
in a report is exact — rationals render as ``p/q`` strings — and JSON is
printed with sorted keys and a trailing newline, so reports are byte-stable
under a fixed seed.  Timing is recorded only when ``--timing`` is given.

Exit codes: 0 when every verdict passes, 1 on a mathematical failure (the
report carries a witness), 2 on usage, parse, or validation errors, 3 on an
internal error (a broken invariant of this program).

An argv that starts with a known command is parsed by that command's own
parser, built as ``add_parser`` builds its subparser, so it prints the same
errors and help.  Only a top-level ``-h``, a missing or unknown command, or
arguments that parser leaves over reach the full parser, which re-parses the
whole argv.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from algebroid import dsl
from algebroid.algebroids import (
    check_algebroid_axioms,
    contravariant_differential,
    cotangent_algebroid,
    tangent_algebroid,
)
from algebroid.cohomology import (
    COMPLEXES,
    DEFAULT_MAX_BASIS,
    TruncationSpec,
    check_lp_ce_agreement,
    compute_cohomology,
)
from algebroid.courant import (
    GeneralizedSection,
    check_courant_axioms,
    check_dirac,
    courant_bracket,
    dorfman_bracket,
    orthogonal_complement,
)
from algebroid.errors import AlgebroidError, DslError, NotInvertible
from algebroid.exterior import (
    KForm,
    KVector,
    de_rham,
    lie_bracket,
    lie_derivative,
    schouten_bracket,
)
from algebroid.poly import MAX_VARIABLES, Poly, render_fraction
from algebroid.sampling import Sampler
from algebroid.symplectic import check_weak_symplectic, poisson_bracket

DEFAULT_SEED = 1729


class UsageError(Exception):
    """A bad request that is not the model's fault: exit code 2."""


# -- report plumbing ---------------------------------------------------------


def _jsonify(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return render_fraction(value)
    if isinstance(value, (Poly, KForm, KVector, GeneralizedSection)):
        return dsl.render_value(value)
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    raise TypeError(f"cannot serialize {value!r}")


def _render_text(report, lines=None, indent=""):
    lines = [] if lines is None else lines
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            _render_text(value, lines, indent + "  ")
        elif isinstance(value, list):
            if all(isinstance(item, dict) for item in value) and value:
                lines.append(f"{indent}{key}:")
                for item in value:
                    inner = []
                    _render_text(item, inner, indent + "    ")
                    if inner:
                        inner[0] = indent + "  - " + inner[0].lstrip()
                    lines.extend(inner)
            else:
                rendered = ", ".join(str(item) for item in value)
                lines.append(f"{indent}{key}: [{rendered}]")
        elif isinstance(value, bool):
            lines.append(f"{indent}{key}: {'yes' if value else 'no'}")
        elif value is None:
            lines.append(f"{indent}{key}: none")
        else:
            lines.append(f"{indent}{key}: {value}")
    return lines


def _emit(report, args) -> None:
    normalized = _jsonify(report)
    if args.format == "json":
        text = json.dumps(normalized, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(_render_text(normalized)) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _load(args):
    try:
        with open(args.input, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.input}: {exc.strerror}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{args.input} is not UTF-8: {exc}") from None
    document = dsl.parse_document(text)
    return document, digest


def _base_report(args, digest=None) -> dict:
    """The fields every report starts with; ``sha256`` only with a digest."""
    source = {"file": os.path.basename(args.input)}
    if digest is not None:
        source["sha256"] = digest
    return {
        "schema": 1,
        "command": args.command,
        "input": source,
        "seed": getattr(args, "seed", DEFAULT_SEED),
    }


def _require_symplectic(document):
    if document.symplectic is None:
        raise UsageError("this command needs a 'symplectic' declaration")
    return document.symplectic


def _require_binding(document, name, kinds, what):
    binding = document.lookup(name)
    if binding is None:
        raise UsageError(f"{what}: no binding named {name!r}")
    if binding.kind not in kinds:
        raise UsageError(
            f"{what}: {name!r} is a {binding.kind}, expected one of {', '.join(kinds)}"
        )
    return binding


def _parse_index_list(text, what, bound=None):
    """Accept ``a..b`` ranges and comma lists, with optional braces; every
    entry, a range's ends before it is expanded, must be a natural number
    below ``bound`` when one is given."""
    body = text.strip().strip("{}").strip()
    if not body:
        return ()
    out = []
    for piece in body.split(","):
        piece = piece.strip()
        if ".." in piece:
            lo, _, hi = piece.partition("..")
            try:
                lo, hi = int(lo), int(hi)
            except ValueError:
                raise UsageError(f"bad {what} range {piece!r}") from None
            if hi < lo:
                raise UsageError(f"empty {what} range {piece!r}")
            _check_entry(lo, what, bound)
            _check_entry(hi, what, bound)
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(piece))
            except ValueError:
                raise UsageError(f"bad {what} entry {piece!r}") from None
            _check_entry(out[-1], what, bound)
    return tuple(sorted(set(out)))


def _check_entry(index, what, bound):
    if index < 0:
        raise UsageError(f"negative {what} entry {index}")
    if bound is not None and index >= bound:
        raise UsageError(f"{what} entry {index} is not below {bound}")


def _model_support(document, args, default=None):
    if getattr(args, "support", None) is not None:
        return _parse_index_list(args.support, "support", MAX_VARIABLES)
    if default is not None:
        return default
    if document.var_indices:
        return document.var_indices
    raise UsageError("no coordinates declared and no --support given")


def _sampling_support(document, args, default=None):
    """The support random inputs are drawn over; it must be nonempty."""
    support = _model_support(document, args, default)
    if not support:
        raise UsageError("the sampling support is empty")
    return support


def _axiom_entries(report):
    return [
        {"axiom": check.axiom, "passed": check.passed, "witness": check.witness}
        for check in report.checks
    ]


# -- subcommand handlers -----------------------------------------------------


def _cmd_check_axioms(args, document, report):
    structure_name = args.structure
    w = _require_symplectic(document) if structure_name == "cotangent" else None
    support = _sampling_support(document, args)
    if w is None:
        structure = tangent_algebroid()
        pool_kind = "vector"
    else:
        # pi covers every section: bound forms over the declared coordinates
        # and sampled ones over the support
        structure = cotangent_algebroid(w.bivector(set(document.var_indices) | set(support)))
        pool_kind = "form"
    sections = []
    for binding in document.bindings:
        if binding.kind == pool_kind and binding.value.grade == 1:
            sections.append(binding.value)
    functions = [b.value for b in document.bindings if b.kind == "fn"]
    sampler = Sampler(args.seed)
    while len(sections) < args.sections:
        if pool_kind == "vector":
            sections.append(sampler.vector_field(support, args.degree))
        else:
            sections.append(sampler.oneform(support, args.degree))
    while len(functions) < args.functions:
        functions.append(sampler.nonzero_poly(support, args.degree))
    result = check_algebroid_axioms(structure, sections, functions)
    report["options"] = {
        "structure": structure_name,
        "sections": len(sections),
        "functions": len(functions),
        "support": list(support),
        "degree": args.degree,
    }
    report["checks"] = _axiom_entries(result)
    report["passed"] = result.passed
    return result.passed


def _cmd_check_courant(args, document, report):
    sections = [b.value for b in document.bindings if b.kind == "section"]
    functions = [b.value for b in document.bindings if b.kind == "fn"]
    sampler = Sampler(args.seed)
    support = _sampling_support(document, args)
    while len(sections) < args.sections:
        sections.append(sampler.section(support, args.degree))
    while len(functions) < args.functions:
        functions.append(sampler.nonzero_poly(support, args.degree))
    result = check_courant_axioms(sections, functions)
    report["options"] = {
        "sections": len(sections),
        "functions": len(functions),
        "support": list(support),
        "degree": args.degree,
    }
    report["checks"] = _axiom_entries(result)
    report["passed"] = result.passed
    return result.passed


def _target_form(document, name):
    """The 2-form bound to ``--target``."""
    binding = _require_binding(document, name, ("form",), "--target")
    if binding.value.grade != 2:
        raise UsageError(f"--target: {name!r} must be a 2-form")
    return binding.value


def _dirac_default_support(form):
    """check-dirac's support when none is given: the form's, or 0..3 when it is zero."""
    return tuple(sorted(form.support())) or (0, 1, 2, 3)


def _cmd_check_dirac(args, document, report):
    if args.target:
        form = _target_form(document, args.target)
        support = _sampling_support(document, args, default=_dirac_default_support(form))
    elif document.symplectic is not None:
        w = document.symplectic
        default = _dirac_default_support(w.materialize(()))
        support = _sampling_support(document, args, default=default)
        form = w.materialize(support)
    else:
        raise UsageError("check-dirac needs a symplectic declaration or --target")
    sampler = Sampler(args.seed)
    draw = functools.partial(sampler.vector_field, support, args.degree)
    pairs = [(draw(), draw()) for _ in range(args.trials)]
    fields = [draw() for _ in range(3)]
    functions = [sampler.nonzero_poly(support, args.degree) for _ in range(2)]
    result = check_dirac(form, pairs, fields, functions)
    report["options"] = {
        "trials": args.trials,
        "support": list(support),
        "degree": args.degree,
        "target": args.target,
    }
    report["isotropy_failures"] = [
        {"left": x, "right": y, "pairing": value}
        for x, y, value in result.isotropy_failures
    ]
    report["involutivity_failures"] = [
        {"left": x, "right": y, "defect": defect}
        for x, y, defect in result.involutivity_failures
    ]
    report["defect_matches_prediction"] = result.defect_matches_prediction
    report["axioms"] = _axiom_entries(result.axioms)
    passed = result.passed
    if not args.target:
        complement = orthogonal_complement(form, w.closure(support))
        report["complement"] = {
            "ambient": list(complement.ambient_indices),
            "fiber_dimension": complement.fiber_dimension,
            "dim_subbundle": complement.dim_subbundle,
            "dim_complement": complement.dim_complement,
            "isotropic": complement.isotropic,
            "equals_complement": complement.equals_complement,
            "witness": complement.witness,
        }
        passed = passed and complement.equals_complement
    report["passed"] = passed
    return passed


def _cmd_check_weak_symplectic(args, document, report):
    if args.target:
        target = _target_form(document, args.target)
    else:
        target = _require_symplectic(document)
    support = _model_support(document, args)
    form = target if args.target else target.materialize(support)
    result = check_weak_symplectic(form, support)
    report["options"] = {"support": list(support), "target": args.target}
    report["closed"] = result.closed
    report["closed_witness"] = result.closed_witness
    report["injective"] = result.injective
    report["injective_witness"] = result.injective_witness
    report["rank"] = result.rank
    report["dimension"] = result.dimension
    report["generic"] = result.generic
    report["caveats"] = [str(entry) for entry in result.caveats]
    report["passed"] = result.passed
    return result.passed


_BRACKET_KINDS = ("fn", "form", "vector", "multivector", "section")


def _cmd_bracket(args, document, report):
    left = _require_binding(document, args.left, _BRACKET_KINDS, "--left")
    right = _require_binding(document, args.right, _BRACKET_KINDS, "--right")
    kinds = (left.kind, right.kind)
    lval, rval = left.value, right.value
    if kinds == ("section", "section"):
        op = dorfman_bracket if args.kind == "dorfman" else courant_bracket
        value = op(lval, rval)
        result_kind = "section"
    elif "section" in kinds:
        raise UsageError("sections only bracket with sections")
    elif kinds == ("fn", "fn"):
        indices = [*lval.variables(), *rval.variables()]  # as df, then dg, hold them
        pi = _require_symplectic(document).strict_bivector(indices)
        value = poisson_bracket(pi, lval, rval)
        result_kind = "fn"
    elif kinds == ("form", "form"):
        if lval.grade != 1 or rval.grade != 1:
            raise UsageError("the form bracket needs two 1-forms")
        indices = [i for form in (lval, rval) for (i,) in form.terms]
        pi = _require_symplectic(document).strict_bivector(indices)
        value = cotangent_algebroid(pi).bracket(lval, rval)
        result_kind = "form"
    elif "form" in kinds:
        raise UsageError("forms only bracket with forms")
    elif kinds == ("vector", "vector"):
        value = lie_bracket(lval, rval)
        result_kind = "vector"
    else:  # remaining mixes of fn / vector / multivector: Schouten
        value = schouten_bracket(
            lval if not isinstance(lval, Poly) else KVector.from_poly(lval),
            rval if not isinstance(rval, Poly) else KVector.from_poly(rval),
        )
        result_kind = "multivector"
    report["options"] = {
        "left": args.left,
        "right": args.right,
        "kind": args.kind if kinds == ("section", "section") else None,
    }
    report["result"] = value
    report["result_kind"] = result_kind
    if isinstance(value, (KForm, KVector)):
        report["result_grade"] = value.grade
    report["passed"] = True
    return True


def _cmd_d(args, document, report):
    binding = _require_binding(document, args.target, ("fn", "form"), "--target")
    value = de_rham(binding.value)
    report["options"] = {"target": args.target}
    report["result"] = value
    report["result_grade"] = value.grade
    report["closed"] = value.is_zero()
    report["passed"] = True
    return True


def _cmd_lie(args, document, report):
    field = _require_binding(document, args.vector, ("vector",), "--vector")
    target = _require_binding(
        document, args.target, ("fn", "form", "vector", "multivector"), "--target"
    )
    value = lie_derivative(field.value, target.value)
    report["options"] = {"vector": args.vector, "target": args.target}
    report["result"] = value
    if isinstance(value, (KForm, KVector)):
        report["result_grade"] = value.grade
    report["passed"] = True
    return True


def _cmd_sigma(args, document, report):
    w = _require_symplectic(document)
    binding = _require_binding(
        document, args.target, ("fn", "vector", "multivector"), "--target"
    )
    value = contravariant_differential(w.bivector(document.var_indices), binding.value)
    report["options"] = {"target": args.target}
    report["result"] = value
    report["result_grade"] = value.grade
    report["passed"] = True
    return True


def _truncation(args, support, w):
    """The truncation over ``support``, which must be closed under the
    pairing of ``w`` when there is one: pi over it then reaches every
    partner of its indices."""
    spec = TruncationSpec(support=support, degree=args.degree)
    if w is not None and not w.is_closed_support(spec.support):
        raise UsageError(
            "the truncation support must be closed under the pairing; "
            f"its closure is {list(w.closure(spec.support))}"
        )
    return spec


def _table_payload(table):
    return {
        str(grade): {
            "cocycles": dims[0],
            "coboundaries": dims[1],
            "dim": dims[2],
        }
        for grade, dims in table.items()
    }


def _cmd_cohomology(args, document, report):
    w = None
    if args.complex in ("lp", "ce-cotangent"):
        w = _require_symplectic(document)
    spec = _truncation(args, _model_support(document, args), w)
    # No support exceeds MAX_VARIABLES and a grade above the support's size
    # is (0, 0), so a larger grade is refused before any range is built.
    grades = _parse_index_list(args.grades, "grades", MAX_VARIABLES + 1)
    pi = None if w is None else w.bivector(spec.support)
    result = compute_cohomology(args.complex, pi, spec, grades, max_basis=args.max_basis)
    report["options"] = {
        "complex": args.complex,
        "support": list(spec.support),
        "degree": spec.degree,
        "grades": list(grades),
        "max_basis": args.max_basis,
    }
    report["table"] = _table_payload(result.table())
    report["passed"] = True
    return True


def _cmd_theorem_check(args, document, report):
    w = _require_symplectic(document)
    spec = _truncation(args, _sampling_support(document, args), w)
    if len(spec.support) < 2:
        raise UsageError("theorem-check draws bivectors, so its support needs 2 coordinates")
    grades = _parse_index_list(args.grades, "grades", MAX_VARIABLES + 1)
    sampler = Sampler(args.seed)
    operator_grades = [0, 1, 2]
    # Drawn lazily: a case's forms and their memoized derivatives are
    # released once the case is checked.
    cases = (
        (k, sampler.kvector(k, spec.support, spec.degree),
         [sampler.oneform(spec.support, spec.degree) for _ in range(k + 1)])
        for k in operator_grades
        for _ in range(args.trials)
    )
    result = check_lp_ce_agreement(
        w.bivector(spec.support), spec, grades, cases, max_basis=args.max_basis
    )
    report["options"] = {
        "support": list(spec.support),
        "degree": spec.degree,
        "grades": list(grades),
        "trials": args.trials,
        "max_basis": args.max_basis,
    }
    report["operator_grades"] = operator_grades
    report["operator_mismatches"] = [
        {"grade": grade, "field": field, "difference": diff}
        for grade, field, _args, diff in result.mismatches
    ]
    report["lp_table"] = _table_payload(result.lp_table)
    report["ce_table"] = _table_payload(result.ce_table)
    report["tables_equal"] = result.tables_equal
    report["passed"] = result.passed
    return result.passed


# command -> (handler, help line)
_COMMANDS = {
    "check-axioms": (_cmd_check_axioms, "algebroid axioms on sections"),
    "check-courant": (_cmd_check_courant, "Courant axioms on sections"),
    "check-dirac": (_cmd_check_dirac, "graph Dirac structure checks"),
    "check-weak-symplectic": (
        _cmd_check_weak_symplectic, "closedness and injectivity of a 2-form"
    ),
    "bracket": (_cmd_bracket, "bracket of two bound entities"),
    "d": (_cmd_d, "exterior derivative of a bound entity"),
    "lie": (_cmd_lie, "Lie derivative along a bound vector"),
    "sigma": (_cmd_sigma, "contravariant differential"),
    "cohomology": (_cmd_cohomology, "truncated cohomology table"),
    "theorem-check": (_cmd_theorem_check, "contravariant vs Chevalley-Eilenberg agreement"),
}


# -- argument parsing --------------------------------------------------------


def _add_arguments(sub, command) -> None:
    """Add the arguments of ``command`` to ``sub``, its subparser or its own parser."""
    sub.add_argument("--input", required=True, help="model document (.adsl)")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--output", help="write the report here instead of stdout")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--timing", action="store_true", help="record wall time")
    if command == "check-axioms":
        sub.add_argument("--structure", choices=("tangent", "cotangent"), required=True)
        sub.add_argument("--sections", type=int, default=3, help="minimum section count")
        sub.add_argument("--functions", type=int, default=2)
        sub.add_argument("--support", help="sampling support, e.g. 0..3 or 0,2")
        sub.add_argument("--degree", type=int, default=2, help="sampling degree")
    elif command == "check-courant":
        sub.add_argument("--sections", type=int, default=3)
        sub.add_argument("--functions", type=int, default=2)
        sub.add_argument("--support")
        sub.add_argument("--degree", type=int, default=2)
    elif command == "check-dirac":
        sub.add_argument("--target", help="a bound 2-form (default: the symplectic)")
        sub.add_argument("--trials", type=int, default=8)
        sub.add_argument("--support")
        sub.add_argument("--degree", type=int, default=2)
    elif command == "check-weak-symplectic":
        sub.add_argument("--target", help="a bound 2-form (default: the symplectic)")
        sub.add_argument("--support")
    elif command == "bracket":
        sub.add_argument("--left", required=True)
        sub.add_argument("--right", required=True)
        sub.add_argument(
            "--kind",
            choices=("courant", "dorfman"),
            default="courant",
            help="which bracket for section operands",
        )
    elif command == "lie":
        sub.add_argument("--vector", required=True)
        sub.add_argument("--target", required=True)
    elif command in ("d", "sigma"):
        sub.add_argument("--target", required=True)
    elif command == "cohomology":
        sub.add_argument("--complex", choices=COMPLEXES, required=True)
        sub.add_argument("--support", required=True)
        sub.add_argument("--degree", type=int, required=True)
        sub.add_argument("--grades", default="0..2")
        sub.add_argument("--max-basis", type=int, default=DEFAULT_MAX_BASIS)
    elif command == "theorem-check":
        sub.add_argument("--support", required=True)
        sub.add_argument("--degree", type=int, required=True)
        sub.add_argument("--grades", default="0..2")
        sub.add_argument("--trials", type=int, default=25)
        sub.add_argument("--max-basis", type=int, default=DEFAULT_MAX_BASIS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algebroid",
        description="exact checks and cohomology for polynomial models",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        _add_arguments(commands.add_parser(command, help=text), command)
    return parser


# Integer options that count something; a negative value is a usage error.
_COUNT_OPTIONS = ("degree", "trials", "sections", "functions", "max_basis")


def _check_counts(args) -> None:
    for name in _COUNT_OPTIONS:
        value = getattr(args, name, None)
        if value is not None and value < 0:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must be nonnegative, got {value}")


# Parsing leaves no state on a parser, so one serves every ``run`` call.
_parser = functools.cache(build_parser)


@functools.cache
def _command_parser(command) -> argparse.ArgumentParser:
    """``command``'s parser alone, configured as its subparser is."""
    parser = argparse.ArgumentParser(prog=f"algebroid {command}")
    _add_arguments(parser, command)
    return parser


def _parse(argv):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return _parser().parse_args(argv)


def run(argv=None) -> int:
    args = _parse(argv)
    try:
        return _run(args)
    except (UsageError, AlgebroidError) as exc:
        # An AlgebroidError gets here only from writing the report out, as
        # ResultTooLarge does; _run handles the ones its handlers raise.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def _run(args) -> int:
    started = time.monotonic()
    _check_counts(args)
    try:
        document, digest = _load(args)
    except DslError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 2
    except NotInvertible as exc:
        # A declared symplectic structure that is singular is a mathematical
        # failure of the model, reported with its kernel witness.
        report = _base_report(args)
        report["error"] = "the symplectic matrix is singular"
        report["witness"] = str(getattr(exc, "witness", ""))
        report["passed"] = False
        _emit(report, args)
        return 1

    report = _base_report(args, digest)
    try:
        passed = _COMMANDS[args.command][0](args, document, report)
    except NotInvertible as exc:
        report["error"] = str(exc)
        witness = getattr(exc, "witness", None)
        if witness is not None:
            report["witness"] = str(witness)
        report["passed"] = False
        _emit(report, args)
        return 1
    except AlgebroidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.timing:
        # The single inexact field, and the only one excluded from the
        # byte-identity contract; everything else in a report is exact.
        report["timing"] = {"seconds": f"{time.monotonic() - started:.6f}"}
    _emit(report, args)
    return 0 if passed else 1


def entrypoint() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entrypoint()
