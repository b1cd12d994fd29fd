"""Exact linear algebra: sparse integer elimination for rank, nullspace and
row spaces, fraction-free Bareiss for ``Poly`` entries, and cross-checks
against dense reference Bareiss kept here."""

import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from algebroid import cli, linalg, poly
from algebroid.cohomology import TruncationSpec, compute_cohomology
from algebroid.exterior import KForm, KVector, de_rham, interior_product
from algebroid.poly import Poly
from algebroid.symplectic import ConstantSymplectic, check_weak_symplectic

from conftest import poincare_counts, sparse_rows


def frac_matvec(rows, vec):
    """A dense matrix times a sparse vector."""
    return [sum(Fraction(row[j]) * x for j, x in vec) for row in rows]


def random_int_matrix(rng, nrows, ncols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]


class TestRank:
    def test_identity(self):
        rows = [[(0, 1)], [(1, 1)], [(2, 1)]]
        assert linalg.rank(rows, 3) == 3

    def test_dependent_rows(self):
        rows = sparse_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert linalg.rank(rows, 3) == 2

    def test_zero_matrix(self):
        assert linalg.rank([[], []], 2) == 0
        assert linalg.rank([], 4) == 0
        assert linalg.rank([], 0) == 0

    def test_rational_entries_scaled(self):
        rows = sparse_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]])
        assert linalg.rank(rows, 2) == 2
        singular = sparse_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
        assert linalg.rank(singular, 2) == 1

    def test_rank_bounded_by_product_oracle(self):
        # rank(AB) <= min(rank A, rank B), with equality for generic sizes
        rng = random.Random(7)
        for _ in range(25):
            a = random_int_matrix(rng, 4, 3)
            b = random_int_matrix(rng, 3, 5)
            ab = [
                [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(5)]
                for i in range(4)
            ]
            assert linalg.rank(sparse_rows(ab), 5) <= min(
                linalg.rank(sparse_rows(a), 3), linalg.rank(sparse_rows(b), 5)
            )


class TestNullspace:
    def test_kernel_vectors_annihilate(self):
        rng = random.Random(11)
        for _ in range(40):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 6)
            rows = random_int_matrix(rng, nrows, ncols)
            basis = linalg.nullspace(sparse_rows(rows), ncols)
            assert len(basis) == ncols - linalg.rank(sparse_rows(rows), ncols)
            for vec in basis:
                assert all(v == 0 for v in frac_matvec(rows, vec))

    def test_kernel_is_canonical_integer_primitive(self):
        rows = [[(0, 2), (1, 4)], [(2, 2)]]
        basis = linalg.nullspace(rows, 3)
        assert basis == [[(0, -2), (1, 1)]]
        for vec in basis:
            assert all(isinstance(v, int) for _, v in vec)

    def test_full_rank_kernel_empty(self):
        assert linalg.nullspace([[(0, 1)], [(1, 1)]], 2) == []

    def test_zero_matrix_kernel_standard_basis(self):
        basis = linalg.nullspace([[]], 2)
        assert basis == [[(0, 1)], [(1, 1)]]
        assert linalg.nullspace([], 3) == [[(0, 1)], [(1, 1)], [(2, 1)]]
        assert linalg.nullspace([[], []], 0) == []
        assert linalg.nullspace([], 0) == []


class TestRowSpaces:
    def test_contains_and_equal(self):
        a = [[(0, 1), (2, 1)], [(1, 1), (2, 1)]]
        b = [[(0, 1), (1, 1), (2, 2)]]
        assert linalg.row_space_contains(a, [(0, 1), (1, 1), (2, 2)], 3)
        assert not linalg.row_space_contains(b, [(0, 1), (2, 1)], 3)
        # equal spans: each contains the other's rows
        c = [[(0, 1), (1, 1), (2, 2)], [(0, 1), (1, -1)]]
        assert all(linalg.row_space_contains(a, row, 3) for row in c)
        assert all(linalg.row_space_contains(c, row, 3) for row in a)

    def test_empty_row_space_holds_only_zero(self):
        assert linalg.row_space_contains([], [], 2)
        assert not linalg.row_space_contains([], [(1, 1)], 2)


class TestGenericElimination:
    def test_rank_matches_integer_backend(self):
        rng = random.Random(3)
        for _ in range(20):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
            rows = random_int_matrix(rng, nrows, ncols, bound=5)
            as_polys = sparse_rows([[Poly.constant(v) for v in row] for row in rows])
            got, pivot_entries = linalg.rank_generic(as_polys, ncols)
            assert got == linalg.rank(sparse_rows(rows), ncols)
            assert all(entry.is_constant() for entry in pivot_entries)

    def test_polynomial_rank(self):
        x = Poly.variable(0)
        rows = [[(0, x), (1, Poly.one())], [(0, x * x), (1, x)]]  # second row = x * first
        got, pivot_entries = linalg.rank_generic(rows, 2)
        assert got == 1
        assert pivot_entries == [x]

    def test_pivot_entries_are_the_bareiss_pivots(self):
        # One-step Bareiss pivots are the leading principal minors: x, then
        # x^2 - y, then the determinant.  check-weak-symplectic prints the
        # non-constant ones as caveats, so they are part of its reports.
        x, y = Poly.variable(0), Poly.variable(1)
        one = Poly.one()
        rows = sparse_rows([[x, one, y], [y, x, Poly.zero()], [one, y, x]])
        got, pivot_entries = linalg.rank_generic(rows, 3)
        assert got == 3
        assert pivot_entries == [x, x * x - y, x * x * x - 2 * x * y + y * y * y]
        assert rows[1] == [(0, y), (1, x)]  # the caller's rows are not touched

    def test_empty_matrix(self):
        assert linalg.rank_generic([], 3) == (0, [])
        assert linalg.nullspace_generic([], 1) == [[(0, Poly.one())]]

    def test_polynomial_nullspace_annihilates(self):
        x, y = Poly.variable(0), Poly.variable(1)
        rows = [[(0, x), (1, y)]]
        basis = linalg.nullspace_generic(rows, 2)
        assert len(basis) == 1
        for vec in basis:
            coeffs = dict(vec)
            total = Poly.zero()
            for j, entry in rows[0]:
                total = total + entry * coeffs.get(j, Poly.zero())
            assert total.is_zero()

    def test_ties_in_display_order_do_not_break_elimination(self):
        # pivots whose quotients exercise exact_div on same-degree monomials
        x2, x3 = Poly.variable(2), Poly.variable(3)
        p = x2 * x3 + x2 * x2
        rows = sparse_rows([[p, p * x2], [p * x3, p * x2 * x3]])
        assert linalg.rank_generic(rows, 2)[0] == 1

    def test_rational_rows_match_unscaled_elimination(self):
        matrices = list(random_rational_poly_matrices(59, 100))
        assert any(type(c) is Fraction for rows, _ in matrices
                   for row in rows for entry in row for c in entry.terms.values())
        for rows, ncols in matrices:
            before = [[Poly(entry.terms) for entry in row] for row in rows]
            assert_matches_reference(rows, ncols)
            assert rows == before  # the caller's rows are not touched

    def test_the_kernel_sees_integer_coefficients_only(self, monkeypatch):
        # Scaling rows to Z[x] is what keeps Fraction arithmetic out of the
        # Bareiss products; without it these matrices reach the kernel with
        # Fraction coefficients.
        seen = set()
        kernel = linalg._row_echelon

        def checked(rows, ncols):
            seen.update(type(c) for row in rows for entry in row for c in entry.terms.values())
            result = kernel(rows, ncols)
            seen.update(type(c) for row in rows for entry in row for c in entry.terms.values())
            return result

        monkeypatch.setattr(linalg, "_row_echelon", checked)
        for rows, ncols in random_rational_poly_matrices(61, 20):
            linalg.rank_generic(sparse_rows(rows), ncols)
            linalg.nullspace_generic(sparse_rows(rows), ncols)
        assert seen == {int}


    def test_far_apart_variables_get_dense_fields(self, monkeypatch):
        # x0 and x1000 take two adjacent fields, not a thousand apart.
        widest = []
        kernel = linalg._row_echelon

        def recording(rows, ncols):
            widest.append(max(key.bit_length() for row in rows for entry in row
                              for key in entry.terms))
            return kernel(rows, ncols)

        monkeypatch.setattr(linalg, "_row_echelon", recording)
        x, y = Poly.variable(0), Poly.variable(1000)
        for rows in ([[x, y], [y * y, x + 1]], [[x, y], [x * y, y * y]]):
            assert_matches_reference(rows, 2)
        assert widest and max(widest) < 64

    def test_constant_matrices(self):
        c = Poly.constant
        assert_matches_reference([[c(1), c(2)], [c(2), c(4)]], 2)
        assert_matches_reference([[c(Fraction(1, 2)), c(3)], [c(5), c(Fraction(-2, 3))]], 2)
        assert_matches_reference([[c(0), c(0), c(7)]], 3)

    def test_zero_rows_and_empty_shapes(self):
        x, y = Poly.variable(0), Poly.variable(1)
        zero = Poly.zero()
        assert_matches_reference([[zero, zero], [x, y], [zero, zero]], 2)
        assert_matches_reference([[zero, zero]], 2)
        for ncols in (0, 1, 3):
            assert_matches_reference([], ncols)
        for nrows in (1, 3):
            assert_matches_reference([[] for _ in range(nrows)], 0)
        assert linalg.rank_generic([[], []], 0) == (0, [])
        assert linalg.nullspace_generic([[], []], 0) == []

    def test_high_degree_entries_widen_the_fields(self):
        x, y = Poly.variable(0), Poly.variable(1)
        rows = [[x**40 + y, y**41, x], [x, y**2 + 1, x**20 * y**20], [x**40, y, x * y]]
        assert_matches_reference(rows, 3)
        assert_matches_reference([rows[0], rows[0], rows[1]], 3)  # rank deficient

    def test_block_structured_matches_reference(self):
        # Direct sums of 1-4 rational Poly matrices, padded with zero rows
        # and columns, then rows and columns permuted; most split into
        # several blocks.
        rng = random.Random(67)
        source = random_rational_poly_matrices(71, 400)
        split = 0
        for matrix, ncols, pieces in direct_sums(rng, source, 100, Poly.zero()):
            assert_matches_reference(matrix, ncols)
            rank_ = linalg.rank_generic(sparse_rows(matrix), ncols)[0]
            assert rank_ == sum(reference_echelon_generic(rows, width)[0] for rows, width in pieces)
            split += len(reference_blocks(matrix, ncols)) > 1
        assert split > 50

    def test_fraction_coefficient_rows(self):
        x, y = Poly.variable(0), Poly.variable(1)
        half, third = Fraction(1, 2), Fraction(1, 3)
        rows = [[half * x, third * y + 1, x * y], [y, half * x * x, Poly.constant(third)]]
        assert_matches_reference(rows, 3)
        assert_matches_reference([rows[0], [Fraction(6, 5) * e for e in rows[0]]], 3)

    def test_no_poly_products_while_the_kernel_runs(self, monkeypatch):
        # Every entry is packed before elimination, so the Bareiss products
        # and those of the back-substitution add packed keys; a Poly product,
        # or a call of the product kernel ``_mac``, inside either means the
        # packed form was bypassed.
        def flat_rows(n):
            form = banded_form(n, 7)
            return sparse_rows([[interior_product(KVector.coordinate(i), form).coefficient((j,))
                                 for j in range(n)] for i in range(n)])

        inside = [False]
        calls = {"_mac": 0, "Poly.__mul__": 0}

        def running(kernel):
            def wrapped(*args):
                inside[0] = True
                try:
                    return kernel(*args)
                finally:
                    inside[0] = False

            return wrapped

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += inside[0]
                return fn(*args)

            return wrapped

        rows, odd_rows = flat_rows(8), flat_rows(7)
        monkeypatch.setattr(linalg, "_row_echelon", running(linalg._row_echelon))
        monkeypatch.setattr(linalg, "_back_substitute", running(linalg._back_substitute))
        monkeypatch.setattr(poly, "_mac", counting("_mac", poly._mac))
        product = counting("Poly.__mul__", Poly.__mul__)
        monkeypatch.setattr(Poly, "__mul__", product)
        monkeypatch.setattr(Poly, "__rmul__", product)
        rank_, caveats = linalg.rank_generic(rows, 8)
        assert rank_ == 8 and caveats
        # An antisymmetric matrix of odd size is singular.
        assert len(linalg.nullspace_generic(odd_rows, 7)) == 1
        assert calls == {"_mac": 0, "Poly.__mul__": 0}

    def test_a_unit_kernel_vector_is_its_own_witness(self, capsys, tmp_path):
        # x0 lies outside the explicit block, so e[0] spans a kernel line of
        # flat: the witness must carry no factor of the pivots.
        document = tmp_path / "block6.adsl"
        document.write_text(
            "var x0 x1 x2 x3 x4 x5 x6 x7\n"
            "symplectic explicit support {1, 2, 4, 5, 6, 7} matrix [[0, 2, 1, 0, 3, -1],"
            " [-2, 0, 5, 1, 0, 2], [-1, -5, 0, 4, 1, 0], [0, -1, -4, 0, 2, 7],"
            " [-3, 0, -1, -2, 0, 1], [1, -2, 0, -7, -1, 0]]\n"
        )
        argv = ["check-weak-symplectic", "--input", str(document), "--format", "json"]
        assert cli.run(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert (report["rank"], report["dimension"]) == (6, 8)
        assert report["injective_witness"] == "e[0]"

    def test_an_inexact_division_is_an_internal_error(self, monkeypatch, capsys, tmp_path):
        # A Bareiss division is exact by the minors it divides; a wrong
        # quotient leaves a later one inexact, which is a broken invariant.
        divide = poly._divide

        def wrong(terms, divisor, guard):
            quot = divide(terms, divisor, guard)
            if quot is not None:
                quot[0] = quot.get(0, 0) + 7  # 7 more in the constant term
            return quot

        document = tmp_path / "banded4.adsl"
        document.write_text(
            "var x0 x1 x2 x3\nform B = dx[0] ^^ dx[1] + dx[2] ^^ dx[3] + d[x2*x3*dx[0]"
            " - 1/2*x3*x0*dx[1] + 2*x0*x1*dx[2] - 1/3*x1*x2*dx[3]]\n"
        )
        argv = ["check-weak-symplectic", "--target", "B", "--input", str(document)]
        assert cli.run(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(poly, "_divide", wrong)
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            "internal error: a fraction-free elimination step did not divide exactly\n"
        )


def assert_matches_reference(rows, ncols):
    """``rank_generic`` and ``nullspace_generic`` on the sparse form of the
    dense ``Poly`` matrix ``rows`` agree, block by block, with the textbook
    Bareiss of ``reference_echelon_generic`` on each block that
    ``reference_blocks`` finds: the ranks add up, the pivot entries are the
    blocks' own, in column order, and each kernel vector vanishes outside
    its block, is proportional to the reference one, annihilates, and is in
    normal form.  A column no row touches has its unit vector."""
    rank_, pivot_entries = linalg.rank_generic(sparse_rows(rows), ncols)
    basis = linalg.nullspace_generic(sparse_rows(rows), ncols)
    one, zero = Poly.one(), Poly.zero()
    want_rank, want_pivots, want, block_of = 0, {}, {}, {}
    for columns, row_indices in reference_blocks(rows, ncols):
        block = [[rows[i][j] for j in columns] for i in row_indices]
        width = len(columns)
        block_rank, pivots, echelon_rows = reference_echelon_generic(block, width)
        want_rank += block_rank
        want_pivots.update((columns[c], echelon_rows[t][c]) for t, c in enumerate(pivots))
        free = [c for c in range(width) if c not in pivots]
        for f, ref in zip(free, reference_nullspace_generic(block, width)):
            want[columns[f]] = dict(zip(columns, ref))
            block_of[columns[f]] = set(columns)
    for j in range(ncols):
        if not any(row[j] for row in rows):
            want[j] = {j: one}
            block_of[j] = {j}
    assert rank_ == want_rank
    assert pivot_entries == [want_pivots[j] for j in sorted(want_pivots)]
    free = sorted(want)
    assert len(basis) == len(free) == ncols - rank_
    for f, vec in zip(free, basis):
        columns = [j for j, _ in vec]
        assert columns == sorted(columns) and all(entry for _, entry in vec)
        assert set(columns) <= block_of[f]
        dense = [zero] * ncols
        for j, entry in vec:
            dense[j] = entry
        ref = [want[f].get(j, zero) for j in range(ncols)]
        assert all(dense[i] * ref[j] == dense[j] * ref[i]
                   for i in range(ncols) for j in range(i + 1, ncols))
        assert_normal_form(dense, f, free)
        for row in rows:
            total = zero
            for entry, coeff in zip(row, dense):
                total = total + entry * coeff
            assert total.is_zero()


def reference_blocks(matrix, ncols):
    """The connected blocks of a dense matrix, by breadth-first search over
    the bipartite graph of rows and columns joined at nonzero entries.

    Returns a list of (columns, row indices), both ascending, in the order
    of their first column; columns no row touches belong to no block.
    """
    seen = set()
    out = []
    for start in range(ncols):
        if start in seen or not any(row[start] for row in matrix):
            continue
        columns, row_indices, frontier = {start}, set(), [start]
        while frontier:
            c = frontier.pop()
            for i, row in enumerate(matrix):
                if row[c] and i not in row_indices:
                    row_indices.add(i)
                    reached = {j for j in range(ncols) if row[j]} - columns
                    columns |= reached
                    frontier.extend(reached)
        seen |= columns
        out.append((sorted(columns), sorted(row_indices)))
    return out


def direct_sums(rng, source, count, zero):
    """``count`` direct sums of 1-4 matrices drawn from ``source``, padded
    with 0-2 rows and columns of ``zero``, with rows and columns permuted.
    Yields (matrix, ncols, pieces)."""
    for _ in range(count):
        pieces = [next(source) for _ in range(rng.randint(1, 4))]
        nrows = sum(len(rows) for rows, _ in pieces) + rng.randint(0, 2)
        ncols = sum(width for _, width in pieces) + rng.randint(0, 2)
        matrix = [[zero] * ncols for _ in range(nrows)]
        r = c = 0
        for rows, width in pieces:
            for i, row in enumerate(rows):
                matrix[r + i][c:c + width] = row
            r += len(rows)
            c += width
        row_order = rng.sample(range(nrows), nrows)
        col_order = rng.sample(range(ncols), ncols)
        yield [[matrix[i][j] for j in col_order] for i in row_order], ncols, pieces


def assert_normal_form(vec, f, free):
    """The normal form of a generic kernel vector for free column ``f``:
    integer coefficients of content 1, no monomial dividing every term, a
    positive first term at ``f`` and zero at the other ``free`` columns."""
    terms = [(mono, c) for entry in vec for mono, c in entry.terms.items()]
    assert all(type(c) is int for _, c in terms)
    assert gcd(*(c for _, c in terms)) == 1
    shared = set.intersection(*({v for v, _ in poly.decode(mono)} for mono, _ in terms))
    assert shared == set()
    assert vec[f].sorted_terms()[0][1] > 0
    assert all(vec[g].is_zero() for g in free if g != f)


BAND = (1, Fraction(-1, 2), 2, Fraction(-1, 3), 3, Fraction(-2, 3), Fraction(3, 2))


def banded_form(n, band):
    """dx0^dx1 + dx2^dx3 + ... + d[sum c_i x(i+2) x(i+3) dx[i]] over i < band,
    indices mod n: the closed banded 2-form of the ``structure-checks``
    benchmark, with fixed signs on its coefficients ``BAND``."""
    x = [Poly.variable(i) for i in range(n)]
    pairs = KForm(2, {(2 * i, 2 * i + 1): Poly.one() for i in range(n // 2)})
    primitive = KForm(1, {(i,): BAND[i % len(BAND)] * x[(i + 2) % n] * x[(i + 3) % n]
                          for i in range(band)})
    return pairs + de_rham(primitive)


def random_rational_poly_matrices(seed, count):
    """Seeded small ``Poly`` matrices with ``Fraction`` coefficients.

    In every third one with two rows or more, a row is replaced by another
    row plus a rational multiple of a row other than itself, so the rows
    are dependent.
    """
    rng = random.Random(seed)

    def entry():
        p = Poly.zero()
        for _ in range(rng.randint(0, 2)):
            mono = Poly.one()
            for var in range(2):
                mono = mono * Poly.variable(var, rng.randint(0, 1))
            p = p + Fraction(rng.randint(-6, 6), rng.randint(1, 6)) * mono
        return p

    for n in range(count):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if n % 3 == 2 and nrows >= 2:
            i, j = rng.sample(range(nrows), 2)
            k = rng.choice([r for r in range(nrows) if r != i])
            q = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            rows[i] = [a + q * b for a, b in zip(rows[j], rows[k])]
        yield rows, ncols


def reference_echelon_generic(matrix, ncols):
    """One-step Bareiss on a copy of a ``Poly`` matrix, on its coefficients
    as given, rational ones included.

    The textbook counterpart of ``linalg.rank_generic`` without its row
    scales: pivots are the first nonzero entry down each column, and every
    division is checked to be exact.  Returns (rank, pivot columns, rows);
    row t holds pivot t.
    """
    a = [list(row) for row in matrix]
    rank, prev, pivots = 0, None, []
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        p = a[rank]
        for row in a[rank + 1:]:
            for j in range(c + 1, ncols):
                value = p[c] * row[j] - row[c] * p[j]
                row[j] = value if prev is None else value.exact_div(prev)
            row[c] = Poly.zero()
        prev = p[c]
        pivots.append(c)
        rank += 1
    return rank, pivots, a


def reference_nullspace_generic(matrix, ncols):
    """A kernel basis with the lines of ``nullspace_generic``'s, one vector
    per free column that vanishes at the other free columns,
    back-substituted in the fraction field over the rows of
    ``reference_echelon_generic``."""
    rank, pivots, rows = reference_echelon_generic(matrix, ncols)
    one, zero = Poly.one(), Poly.zero()
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [(zero, one)] * ncols
        x[free] = (one, one)
        for t in reversed(range(rank)):
            col, row = pivots[t], rows[t]
            num, den = zero, one
            for j in range(col + 1, ncols):
                xn, xd = x[j]
                if not xn.is_zero():
                    num, den = num * xd + row[j] * xn * den, den * xd
            x[col] = (-num, den * row[col])
        clear = one
        for _, xd in x:
            clear = clear * xd
        basis.append([xn * clear.exact_div(xd) for xn, xd in x])
    return basis


def reference_rank(matrix, ncols):
    """Rank of an integer matrix by textbook dense Bareiss on a copy.

    Every division is checked to be exact, the property fraction-free
    elimination rests on.
    """
    a = [list(row) for row in matrix]
    rank, prev = 0, 1
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        p = a[rank]
        for row in a[rank + 1:]:
            for j in range(c + 1, ncols):
                q, r = divmod(p[c] * row[j] - row[c] * p[j], prev)
                assert r == 0
                row[j] = q
            row[c] = 0
        prev = p[c]
        rank += 1
    return rank


def reference_pivots(matrix, ncols):
    """Columns not in the span of the columns before them."""
    ranks = [reference_rank([row[:j] for row in matrix], j) for j in range(ncols + 1)]
    return [j for j in range(ncols) if ranks[j + 1] > ranks[j]]


def assert_canonical_kernel(rows, ncols, pivots):
    """For each free column f (a column not in ``pivots``, the reference
    pivots), the kernel holds exactly one vector that is zero at the other
    free columns and 1 at f; the canonical basis is that vector scaled to
    coprime integers."""
    free = [j for j in range(ncols) if j not in pivots]
    basis = linalg.nullspace(sparse_rows(rows), ncols)
    assert len(basis) == len(free)
    for f, vec in zip(free, basis):
        assert all(v == 0 for v in frac_matvec(rows, vec))
        coords = dict(vec)
        assert all(coords.values()) and list(coords) == sorted(coords)
        assert coords[f] > 0
        assert all(g not in coords for g in free if g != f)
        content = 0
        for v in coords.values():
            content = gcd(content, v)
        assert content == 1


def random_matrices(seed, count, bound=10**40):
    """Seeded sparse, dense and low-rank integer matrices with huge entries."""
    rng = random.Random(seed)

    def entry():
        return rng.randint(-bound, bound)

    for n in range(count):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        kind = n % 3
        if kind == 0:  # sparse: about one entry in five is nonzero
            yield [[entry() if rng.random() < 0.2 else 0 for _ in range(ncols)]
                   for _ in range(nrows)], ncols
        elif kind == 1:  # dense
            yield [[entry() for _ in range(ncols)] for _ in range(nrows)], ncols
        else:  # a product through a narrow inner dimension, so rank-deficient
            inner = rng.randint(1, 3)
            left = [[rng.randint(-9, 9) for _ in range(inner)] for _ in range(nrows)]
            right = [[entry() for _ in range(ncols)] for _ in range(inner)]
            yield [[sum(l * r[j] for l, r in zip(row, right)) for j in range(ncols)]
                   for row in left], ncols


class TestReferenceBareiss:
    def test_rank_and_pivots_match_reference(self):
        # The pivot columns are the complement of the kernel's free columns.
        for rows, ncols in random_matrices(41, 150):
            assert linalg.rank(sparse_rows(rows), ncols) == reference_rank(rows, ncols)
            assert_canonical_kernel(rows, ncols, reference_pivots(rows, ncols))

    def test_nullspace_is_the_canonical_kernel(self):
        for rows, ncols in random_matrices(43, 150):
            assert_canonical_kernel(rows, ncols, reference_pivots(rows, ncols))

    def test_block_structured_matches_reference(self):
        # Direct sums of 1-4 blocks drawn from the generator above, padded
        # with all-zero rows and columns, then rows and columns permuted.
        rng = random.Random(47)
        for matrix, ncols, pieces in direct_sums(rng, random_matrices(53, 400), 100, 0):
            want = reference_rank(matrix, ncols)
            assert linalg.rank(sparse_rows(matrix), ncols) == want
            assert want == sum(reference_rank(rows, width) for rows, width in pieces)
            assert_canonical_kernel(matrix, ncols, reference_pivots(matrix, ncols))

    def test_huge_entries_stay_exact(self):
        # arbitrary-precision integers pass through elimination exactly
        big = 10**40
        rows = [[(0, big), (1, 1)], [(0, 1), (1, big)]]
        assert linalg.rank(rows, 2) == 2
        basis = linalg.nullspace([[(0, big), (1, -(big * big))]], 2)
        assert basis == [[(0, big), (1, 1)]]


def random_rational_matrices(seed, count):
    """Seeded small rational matrices: ``Fraction`` entries, integral ones
    such as ``Fraction(6, 3)`` among them, mixed with plain ints and zeros;
    in every third one a row is a rational combination of two others, and
    in every fifth one a row is repeated."""
    rng = random.Random(seed)

    def entry():
        kind = rng.randrange(4)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-9, 9)
        if kind == 2:
            d = rng.randint(1, 4)
            return Fraction(rng.randint(-5, 5) * d, d)  # integral, denominator 1
        return Fraction(rng.randint(-12, 12), rng.randint(1, 12))

    for n in range(count):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if n % 3 == 2 and nrows >= 3:
            i, j, k = rng.sample(range(nrows), 3)
            p, q = Fraction(rng.randint(-5, 5), rng.randint(1, 5)), rng.randint(-3, 3)
            rows[i] = [p * a + q * b for a, b in zip(rows[j], rows[k])]
        if n % 5 == 4:
            rows.append(list(rng.choice(rows)))
        yield rows, ncols


def common_multiple(rows):
    """The matrix ``rows`` times the lcm of all its denominators: integer
    entries, the same rank and kernel, scaled as a whole, not row by row."""
    scale = lcm(*(Fraction(value).denominator for row in rows for value in row))
    return [[int(value * scale) for value in row] for row in rows]


def std_window(complex_name, m, degree, grades):
    """The cohomology table of ``complex_name`` for ``symplectic std`` on
    coordinates 0..m-1, coefficient degree <= ``degree``."""
    pi = ConstantSymplectic.standard().bivector(range(m))
    return compute_cohomology(complex_name, pi, TruncationSpec(range(m), degree), grades,
                              100000).table()


class TestSparseEliminator:
    def test_cohomology_row_reductions_are_pinned(self, monkeypatch):
        # The lp strands at support 0..3, degree <= 5 hold 840 rows, and the
        # eliminator reduces a row by a pivot row 465 times: a count of the
        # pivot rows it finds at leading columns.  A dense or block-split
        # elimination makes no such reduction.
        counts = {"rows": 0, "reductions": 0}
        echelon = linalg._echelon

        class Counted(dict):
            def get(self, column):
                pivot = super().get(column)
                counts["reductions"] += pivot is not None
                return pivot

        def counting(rows, ncols, pivots):
            counts["rows"] += len(rows)
            return echelon(rows, ncols, Counted(pivots))

        monkeypatch.setattr(linalg, "_echelon", counting)
        table = std_window("lp", 4, 4, [0, 1, 2])
        assert table == {0: (1, 0, 1), 1: (125, 125, 0), 2: (295, 295, 0)}
        assert counts == {"rows": 840, "reductions": 465}

    @pytest.mark.parametrize("complex_name, support, degree", [
        ("lp", 4, 4), ("ce-tangent", 6, 6),
    ])
    def test_pivot_entries_stay_small(self, monkeypatch, complex_name, support, degree):
        # Primitive-row elimination has no Bareiss bound on entry growth.
        # The largest pivot entry is 3 bits on the first window and 4 on the
        # second (5 on lp 0..5 at degree 7); 8 bits leaves room.
        bits = []
        echelon = linalg._echelon

        def recording(rows, ncols, pivots):
            pivots = echelon(rows, ncols, pivots)
            bits.extend(abs(a).bit_length() for row in pivots.values() for a in row.values())
            return pivots

        monkeypatch.setattr(linalg, "_echelon", recording)
        table = std_window(complex_name, support, degree, range(support + 1))
        assert all(dims == poincare_counts(support, degree, k) for k, dims in table.items())
        assert bits and max(bits) <= 8

    def test_pivot_rows_are_primitive(self):
        rows = [[(0, 2), (1, 4), (3, 6)], [(0, 3), (1, 1)],
                [(2, Fraction(1, 2)), (3, Fraction(1, 3))]]
        assert linalg._echelon(rows, 4, {}) == {
            0: {0: 1, 1: 2, 3: 3}, 1: {1: -5, 3: -9}, 2: {2: 3, 3: 2},
        }
        for rows, ncols in random_rational_matrices(73, 100):
            for pivot in linalg._echelon(sparse_rows(rows), ncols, {}).values():
                assert gcd(*pivot.values()) == 1

    def test_integral_fractions_are_ints(self):
        # Fraction(6, 3) has denominator 1; its row is not scaled but still
        # becomes ints, which gcd needs.
        rows = [[Fraction(6, 3), Fraction(4, 2), 0], [Fraction(3), Fraction(3), Fraction(-9, 3)]]
        ints = [[2, 2, 0], [3, 3, -3]]
        assert linalg.rank(sparse_rows(rows), 3) == linalg.rank(sparse_rows(ints), 3) == 2
        assert linalg.nullspace(sparse_rows(rows), 3) == linalg.nullspace(sparse_rows(ints), 3)
        assert linalg.nullspace(sparse_rows(rows), 3) == [[(0, -1), (1, 1)]]
        assert linalg.row_space_contains(sparse_rows(rows), [(0, Fraction(10, 2)), (1, 5)], 3)
        assert not linalg.row_space_contains(sparse_rows(rows), [(0, Fraction(2, 2))], 3)

    def test_rows_mixing_ints_and_fractions(self):
        rows = [[1, Fraction(1, 2), 3], [2, 1, Fraction(13, 2)]]
        assert linalg.rank(sparse_rows(rows), 3) == 2
        assert linalg.nullspace(sparse_rows(rows), 3) == [[(0, -1), (1, 2)]]
        assert linalg.row_space_contains(sparse_rows(rows), [(2, Fraction(1, 2))], 3)
        assert not linalg.row_space_contains(sparse_rows(rows), [(1, 1)], 3)

    def test_empty_and_duplicate_rows(self):
        rows = [[], [(1, 2), (2, Fraction(1, 3))], [], [(1, 2), (2, Fraction(1, 3))], []]
        assert linalg.rank(rows, 3) == 1
        assert linalg.nullspace(rows, 3) == [[(0, 1)], [(1, -1), (2, 6)]]
        assert linalg.row_space_contains(rows, [(1, 6), (2, 1)], 3)
        assert linalg.row_space_contains(rows, [], 3)
        assert not linalg.row_space_contains(rows, [(0, 1)], 3)
        assert linalg.rank([[(0, 1)]] * 4, 1) == 1

    def test_rational_matrices_match_reference(self):
        # The reference eliminates the matrix scaled by one common multiple.
        for rows, ncols in random_rational_matrices(79, 300):
            scaled = common_multiple(rows)
            assert linalg.rank(sparse_rows(rows), ncols) == reference_rank(scaled, ncols)
            assert_canonical_kernel(rows, ncols, reference_pivots(scaled, ncols))
            basis = linalg.nullspace(sparse_rows(rows), ncols)
            assert basis == linalg.nullspace(sparse_rows(scaled), ncols)

    def test_row_space_contains_eliminates_once(self, monkeypatch):
        # The rows are eliminated once, then the vector alone is reduced by
        # their pivot rows.
        calls = []
        echelon = linalg._echelon

        def counting(rows, ncols, pivots):
            calls.append(len(rows))
            return echelon(rows, ncols, pivots)

        monkeypatch.setattr(linalg, "_echelon", counting)
        for rows, ncols in random_rational_matrices(83, 100):
            sparse = sparse_rows(rows)
            combination = [sum(Fraction(k + 1, 3) * row[j] for k, row in enumerate(rows))
                           for j in range(ncols)]
            calls.clear()
            assert linalg.row_space_contains(sparse, sparse_rows([combination])[0], ncols)
            assert calls == [len(rows), 1]
            for j in range(ncols):  # each unit vector, against the reference rank
                unit = [(j, 1)]
                want = reference_rank(common_multiple(rows + [[int(i == j) for i in range(ncols)]]),
                                      ncols) == reference_rank(common_multiple(rows), ncols)
                assert linalg.row_space_contains(sparse, unit, ncols) == want

    @pytest.mark.parametrize("function", [linalg.rank, linalg.nullspace])
    def test_out_of_range_column_raises(self, function):
        with pytest.raises(ValueError, match="column 3 is out of range for 3 columns"):
            function([[(0, 1), (2, 2)], [(3, 1)]], 3)
        with pytest.raises(ValueError, match="column -1 is out of range"):
            function([[(-1, 1)]], 3)
        with pytest.raises(ValueError, match="column 0 is out of range for 0 columns"):
            function([[(0, 1)]], 0)

    def test_out_of_range_vector_raises(self):
        with pytest.raises(ValueError, match="column 2 is out of range for 2 columns"):
            linalg.row_space_contains([[(0, 1)]], [(2, 1)], 2)


class TestOneKernel:
    """One kernel per entry type: integer and rational matrices go through
    the sparse ``linalg._echelon``, ``Poly`` matrices through
    ``linalg._row_echelon``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        kernel = linalg._row_echelon

        def recording(rows, ncols):
            seen.append(ncols)
            return kernel(rows, ncols)

        monkeypatch.setattr(linalg, "_row_echelon", recording)
        return seen

    @pytest.fixture
    def sparse_calls(self, monkeypatch):
        seen = []
        kernel = linalg._echelon

        def recording(rows, ncols, pivots):
            seen.append(ncols)
            return kernel(rows, ncols, pivots)

        monkeypatch.setattr(linalg, "_echelon", recording)
        return seen

    def test_polynomial_weak_symplectic_check(self, calls, sparse_calls):
        x = Poly.variable(0)
        form = KForm(2, {(0, 1): x + 1, (2, 3): x * x + 1, (1, 2): Poly.variable(3)})
        report = check_weak_symplectic(form, (0, 1, 2, 3))
        assert report.injective and report.caveats
        assert calls == [2, 2]  # the blocks on columns {0, 2} and {1, 3}
        assert sparse_calls == []

    def test_explicit_inverse(self, calls, sparse_calls):
        # A rational matrix: the singularity test and the kernel of [W | -I]
        # each eliminate once in the sparse kernel, and Bareiss never runs.
        matrix = [[0, 2, 1, 0], [-2, 0, 0, 3], [-1, 0, 0, 1], [0, -3, -1, 0]]
        w = ConstantSymplectic.explicit((0, 1, 2, 3), matrix)
        product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*w.inverse)]
                   for row in matrix]
        assert product == [[int(i == j) for j in range(4)] for i in range(4)]
        assert (sparse_calls, calls) == ([4, 8], [])

