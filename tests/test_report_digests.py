"""Pinned report bytes: every subcommand on every valid fixture.

Each case runs ``cli.run`` in process at ``--seed 1729``, in both ``--format
json`` and ``text``, from inside ``tests/fixtures`` so that no absolute path
reaches a report or an error line.  The sha256 of its exit code, stdout and
stderr must equal the digest pinned in ``report_digests.json``.  A change to
the arithmetic that moves any byte of any report fails here.

To re-pin after a deliberate change to report bytes, run
``PYTHONPATH=src python tests/test_report_digests.py`` from the repository
root and review the diff of ``tests/report_digests.json``.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from algebroid import cli

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
PINNED = HERE / "report_digests.json"

# Fixtures that fail to parse; every other fixture is run.
INVALID = {"syntax_error.adsl", "unbound_name.adsl", "grade_mismatch.adsl"}

# Commands that need no bound name, run on every valid fixture.
GENERIC = [
    ("check-axioms", "--structure", "tangent"),
    ("check-axioms", "--structure", "cotangent"),
    ("check-courant",),
    ("check-dirac",),
    ("check-weak-symplectic",),
    ("cohomology", "--complex", "lp", "--support", "0..1", "--degree", "2"),
    ("cohomology", "--complex", "ce-tangent", "--support", "0..1", "--degree", "2"),
    ("cohomology", "--complex", "ce-cotangent", "--support", "0..1", "--degree", "2"),
    ("theorem-check", "--support", "0..1", "--degree", "1", "--trials", "4"),
]

# Commands on the names each fixture binds.
NAMED = {
    "corank_form.adsl": [
        ("check-dirac", "--target", "B"),
        ("check-weak-symplectic", "--target", "B"),
    ],
    "cotangent_sections.adsl": [
        ("bracket", "--left", "a", "--right", "b"),
        ("check-axioms", "--structure", "cotangent", "--support", "0..1"),
        ("d", "--target", "c"),
        ("sigma", "--target", "f"),
    ],
    "courant_sections.adsl": [
        ("bracket", "--left", "s", "--right", "t"),
        ("bracket", "--left", "t", "--right", "u", "--kind", "dorfman"),
        ("d", "--target", "f"),
    ],
    "dirac_std.adsl": [
        ("check-dirac", "--support", "1..2"),
        ("check-weak-symplectic", "--support", "1..2"),
    ],
    "explicit_block.adsl": [
        ("bracket", "--left", "c", "--right", "f"),
        ("check-dirac", "--support", "0..5"),
        ("check-weak-symplectic", "--support", "2"),
        ("sigma", "--target", "f"),
    ],
    "nonclosed_form.adsl": [
        ("check-dirac", "--target", "B"),
        ("check-weak-symplectic", "--target", "B"),
        ("d", "--target", "B"),
    ],
    "rational_form.adsl": [
        ("check-dirac", "--target", "B"),
        ("check-weak-symplectic", "--target", "B"),
        ("d", "--target", "B"),
    ],
    "std_basic.adsl": [
        ("bracket", "--left", "f", "--right", "g"),
        ("bracket", "--left", "X", "--right", "Y"),
        ("bracket", "--left", "X", "--right", "f"),
        ("bracket", "--left", "f", "--right", "P"),
        ("bracket", "--left", "Y", "--right", "P"),
        ("d", "--target", "a"),
        ("lie", "--vector", "X", "--target", "a"),
        ("lie", "--vector", "Y", "--target", "f"),
        ("sigma", "--target", "f"),
    ],
    "std_small.adsl": [
        ("bracket", "--left", "f", "--right", "g"),
        ("sigma", "--target", "g"),
    ],
    "tangent_sections.adsl": [
        ("bracket", "--left", "X", "--right", "Y"),
        ("lie", "--vector", "Z", "--target", "f"),
        ("lie", "--vector", "X", "--target", "Y"),
    ],
}


def cases():
    """``(case id, argv)`` pairs; argv names its fixture relative to ``FIXTURES``."""
    out = []
    for fixture in sorted(p.name for p in FIXTURES.glob("*.adsl")):
        if fixture in INVALID:
            continue
        for command in GENERIC + NAMED.get(fixture, []):
            for fmt in ("json", "text"):
                argv = [command[0], "--input", fixture, "--format", fmt, "--seed", "1729"]
                argv += command[1:]
                case_id = " ".join([fixture, *command, fmt])
                out.append((case_id, argv))
    return out


def digest(code: int, out: str, err: str) -> str:
    blob = json.dumps([code, out, err]).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def run_case(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return digest(code, out.getvalue(), err.getvalue())


CASES = cases()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(case_id for case_id, _ in CASES)


@pytest.mark.parametrize("case_id,argv", CASES, ids=[case_id for case_id, _ in CASES])
def test_report_bytes_match_pin(monkeypatch, pinned, case_id, argv):
    monkeypatch.chdir(FIXTURES)
    assert run_case(argv) == pinned[case_id]


if __name__ == "__main__":
    os.chdir(FIXTURES)
    pinned = {case_id: run_case(argv) for case_id, argv in CASES}
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} cases in {PINNED}")
