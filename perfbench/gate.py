"""The correctness gate: every job's report against truths independent of the code.

A job fails when its exit code differs from the verdict known by
construction, a field its construction fixes differs, a cohomology table
differs from the closed-form count, its bytes differ from the digest pinned
for the default seed, or its bytes differ from the first repetition in the
same run.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from math import comb


def cohomology_counts(m: int, degree: int, grade: int) -> tuple:
    """(cocycles, coboundaries, dim) of the truncated complexes in closed form.

    On each strand (grade and coefficient degree fixed) the lp, ce-tangent
    and ce-cotangent complexes of the standard structure satisfy a polynomial
    Poincare lemma.  With ``C(j, e) = C(m, j) * C(m + e - 1, e)`` cochains of
    grade j and coefficient degree exactly e, the cocycles at (k, d) are
    ``Z(0, d) = [d = 0]`` and ``Z(k, d) = C(k-1, d+1) - Z(k-1, d+1)``.
    Cocycles at grade k take degrees up to D; coboundaries are the rank of
    the differential from grade k-1 at degrees up to D + 1.
    """

    def cochains(j, e):
        return comb(m, j) * comb(m + e - 1, e)

    @lru_cache(maxsize=None)
    def cocycles_at(k, d):
        if k == 0:
            return int(d == 0)
        return cochains(k - 1, d + 1) - cocycles_at(k - 1, d + 1)

    cocycles = sum(cocycles_at(grade, d) for d in range(degree + 1))
    if grade == 0:
        coboundaries = 0
    else:
        coboundaries = sum(
            cochains(grade - 1, e) - cocycles_at(grade - 1, e) for e in range(degree + 2)
        )
    return cocycles, coboundaries, cocycles - coboundaries


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_job(job, exit_code, report: bytes, pinned=None, first=None) -> list:
    """Problems with one job's outcome; an empty list means it passed.

    ``pinned`` is the digest fixed for this job at the default seed (None at
    other seeds); ``first`` is the digest of this job's report in the run's
    first repetition (None for the first repetition itself).
    """
    problems = []
    if exit_code != job.expect_exit:
        problems.append(f"exit code {exit_code}, expected {job.expect_exit}")
    if report is None:
        return problems + ["no report written"]
    digest = sha256(report)
    if pinned is not None and digest != pinned:
        problems.append(f"report sha256 {digest[:16]} differs from the pinned {pinned[:16]}")
    if first is not None and digest != first:
        problems.append("report bytes differ from the first repetition")
    try:
        data = json.loads(report)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    for key, expected in job.expect_fields.items():
        if data.get(key) != expected:
            problems.append(f"{key} is {data.get(key)!r}, expected {expected!r}")
    for key, m, degree in job.oracle:
        table = data.get(key) or {}
        grades = data.get("options", {}).get("grades", [])
        if sorted(table) != sorted(str(g) for g in grades):
            problems.append(f"{key} grades {sorted(table)} differ from the requested {grades}")
            continue
        for grade in grades:
            row = table[str(grade)]
            got = (row.get("cocycles"), row.get("coboundaries"), row.get("dim"))
            want = cohomology_counts(m, degree, grade)
            if got != want:
                problems.append(f"{key} grade {grade} is {got}, closed form gives {want}")
    return problems
