"""The benchmark's workloads: model documents and CLI jobs, built from a seed.

Every document is generated here, so the benchmark never reads the test
fixtures.  The seed picks only the signs of the rational coefficients in
the documents and the CLI ``--seed``; the structure and size of every job
are fixed, so the cost of a workload stays comparable across seeds.

Each job carries the verdict known by construction (its exit code and, where
the report has one, the fields that must hold) and the cohomology tables the
closed-form oracle must reproduce.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class Job:
    """One CLI call: ``algebroid <argv> --input <doc> --seed <seed>``."""

    name: str
    argv: tuple
    expect_exit: int
    # report key -> value that must hold in the JSON report
    expect_fields: dict = field(default_factory=dict)
    # (report key holding a table, support size m, degree bound D)
    oracle: tuple = ()


# Why each workload was chosen; the same text is in BENCHMARK.json.
WHY = {
    "cohomology": "large very sparse integer elimination: linalg.rank dominates, assembly is the rest",
    "identities": "sampled identity checks and a large bracket: Poly mul and partial dominate, almost no elimination",
    "structure-checks": "small Poly-entry matrices and many small integer ranks: Poly.exact_div inside rank_generic dominates",
}


def _signed(rng, magnitudes) -> list:
    """The given coefficient magnitudes with seeded signs.

    Only signs vary with the seed: the magnitudes fix the size of every
    intermediate number, so a job costs about the same at every seed.
    """
    return [Fraction(m) * rng.choice((1, -1)) for m in magnitudes]


# Magnitudes of the coefficients c_i of the banded forms' primitive.  With
# eight variables a band of seven terms takes under a second; the eighth
# term makes the check take five.
_BAND = (1, Fraction(1, 2), 2, Fraction(1, 3), 3, Fraction(2, 3), Fraction(3, 2))


def _term(coeff: Fraction, body: str, first: bool) -> str:
    magnitude = abs(coeff)
    text = str(magnitude.numerator)
    if magnitude.denominator != 1:
        text += f"/{magnitude.denominator}"
    if body:
        text = body if magnitude == 1 else f"{text}*{body}"
    if first:
        return ("-" if coeff < 0 else "") + text
    return (" - " if coeff < 0 else " + ") + text


def _linear(terms) -> str:
    """Render sum(coeff * body) for (coeff, body) pairs."""
    return "".join(_term(c, body, i == 0) for i, (c, body) in enumerate(terms))


def _vars(n: int) -> str:
    return "var " + " ".join(f"x{i}" for i in range(n))


def _banded_form(rng, n: int, defect: bool) -> str:
    """A 2-form dx0^dx1 + ... + d[t] that is closed by construction.

    ``t = sum c_i x(i+2) x(i+3) dx[i]`` for ``i < min(n, 7)``, with cyclic
    indices; its exterior derivative keeps the form closed while making the
    flat map's matrix polynomial.  ``defect`` adds ``c x0 dx1^dx2``, whose
    differential is ``c dx0^dx1^dx2``, so the form is not closed (it stays
    injective: the constant part of the matrix is the standard one).
    """
    pairs = " + ".join(f"dx[{2 * i}] ^^ dx[{2 * i + 1}]" for i in range(n // 2))
    t = _linear(
        (c, f"x{(i + 2) % n}*x{(i + 3) % n}*dx[{i}]")
        for i, c in enumerate(_signed(rng, _BAND[:n]))
    )
    form = f"{pairs} + d[{t}]"
    if defect:
        form += _term(_signed(rng, (1,))[0], "x0*dx[1] ^^ dx[2]", first=False)
    return form


def _documents(workload: str, rng) -> dict:
    if workload == "cohomology":
        return {"std6.adsl": f"{_vars(6)}\nsymplectic std\n"}
    if workload == "identities":
        f = _linear(zip(_signed(rng, (1, 1, 1, 1, 1)), ("x0", "x1", "x2", "x3", "")))
        g = _linear(zip(_signed(rng, (1, 2, Fraction(1, 3))), ("x0", "x1", "x2*x3")))
        return {
            "std4.adsl": f"{_vars(4)}\nsymplectic std\n",
            "power.adsl": f"{_vars(4)}\nsymplectic std\nfn f = ({f})^8\nfn g = ({g})^5\n",
        }
    if workload == "structure-checks":
        return {
            "banded8.adsl": f"{_vars(8)}\nform B = {_banded_form(rng, 8, defect=False)}\n",
            "banded6_open.adsl": f"{_vars(6)}\nform B = {_banded_form(rng, 6, defect=True)}\n",
            "std30.adsl": f"{_vars(30)}\nsymplectic std\n",
        }
    raise ValueError(f"unknown workload {workload!r}")


def _jobs(workload: str) -> list:
    if workload == "cohomology":
        # One large lp job and two small ones: a pass takes about 5 s, so a
        # run holds several passes.
        return [
            Job("lp", ("cohomology", "--complex", "lp", "--support", "0..3", "--degree", "4",
                       "--input", "std6.adsl"), 0, oracle=(("table", 4, 4),)),
            Job("ce-tangent", ("cohomology", "--complex", "ce-tangent", "--support", "0..3",
                               "--degree", "3", "--input", "std6.adsl"), 0,
                oracle=(("table", 4, 3),)),
            Job("ce-cotangent", ("cohomology", "--complex", "ce-cotangent", "--support", "0..5",
                                 "--degree", "1", "--input", "std6.adsl"), 0,
                oracle=(("table", 6, 1),)),
        ]
    if workload == "identities":
        return [
            Job("axioms-cotangent", ("check-axioms", "--structure", "cotangent", "--sections", "10",
                                     "--functions", "4", "--degree", "4", "--input", "std4.adsl"),
                0, {"passed": True}),
            Job("axioms-tangent", ("check-axioms", "--structure", "tangent", "--sections", "10",
                                   "--functions", "4", "--degree", "4", "--input", "std4.adsl"),
                0, {"passed": True}),
            Job("courant", ("check-courant", "--sections", "8", "--functions", "4", "--degree", "4",
                            "--input", "std4.adsl"), 0, {"passed": True}),
            Job("theorem", ("theorem-check", "--support", "0..3", "--degree", "2", "--trials", "100",
                            "--input", "std4.adsl"), 0,
                {"passed": True, "tables_equal": True, "operator_mismatches": []},
                oracle=(("lp_table", 4, 2), ("ce_table", 4, 2))),
            Job("bracket", ("bracket", "--left", "f", "--right", "g", "--input", "power.adsl"),
                0, {"passed": True}),
        ]
    if workload == "structure-checks":
        return [
            Job("weak-closed", ("check-weak-symplectic", "--target", "B", "--input", "banded8.adsl"),
                0, {"closed": True, "injective": True, "passed": True}),
            Job("weak-open", ("check-weak-symplectic", "--target", "B",
                              "--input", "banded6_open.adsl"),
                1, {"closed": False, "injective": True, "passed": False}),
            Job("dirac", ("check-dirac", "--support", "0..29", "--trials", "8", "--degree", "2",
                          "--input", "std30.adsl"), 0, {"passed": True}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int, docs_dir: str) -> list:
    """Write the workload's documents into ``docs_dir`` and return its jobs.

    Each job's argv is complete: ``--input`` is resolved against ``docs_dir``
    and ``--seed`` and ``--format json`` are appended.
    """
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(docs_dir, exist_ok=True)
    for name, text in _documents(workload, rng).items():
        with open(os.path.join(docs_dir, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    jobs = []
    for job in _jobs(workload):
        argv = list(job.argv)
        at = argv.index("--input") + 1
        argv[at] = os.path.join(docs_dir, argv[at])
        argv += ["--seed", str(seed), "--format", "json"]
        jobs.append(Job(job.name, tuple(argv), job.expect_exit, job.expect_fields, job.oracle))
    return jobs


WORKLOADS = tuple(WHY)
