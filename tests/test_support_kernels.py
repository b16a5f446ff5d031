"""The exact kernels that sum over nonzero entries only (output rows, samples)
or read a diagonal matrix's compounds off its diagonal (``compound``) against
dense test-local references, on pairs whose zeros sit in every pattern the
certifiers meet: dense random, diagonal, upper-triangular, companion and
example3's block form (a Jordan chain beside a rotation), n = 2..6."""

import math
import random
from fractions import Fraction
from itertools import zip_longest

import pytest

from varsign import linalg
from varsign.linalg import Backend, Matrix, Minors, compound, index_sets
from varsign.lti import LtiSystem, impulse_response, output_rows

from conftest import row_scales, streamed_minor

KINDS = ("dense", "diagonal", "upper", "companion", "block")


def _entry(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def _state_matrix(kind: str, n: int, rng) -> list[list[Fraction]]:
    zero = Fraction(0)
    if kind == "dense":
        return [[_entry(rng) for _ in range(n)] for _ in range(n)]
    if kind == "diagonal":
        return [[_entry(rng) if i == j else zero for j in range(n)] for i in range(n)]
    if kind == "upper":
        return [[_entry(rng) if i <= j else zero for j in range(n)] for i in range(n)]
    if kind == "companion":
        A = [[Fraction(j == i + 1) for j in range(n)] for i in range(n - 1)]
        return A + [[_entry(rng) for _ in range(n)]]
    # example3's form: a Jordan chain (ones on and below the diagonal) beside
    # a rotation block [[a, -s], [s, a]]
    m = n - 2
    a, s = _entry(rng), _entry(rng) or Fraction(1)
    A = [[Fraction(i == j or i == j + 1) if i < m and j < m else zero for j in range(n)]
         for i in range(n)]
    A[m][m], A[m][m + 1], A[m + 1][m], A[m + 1][m + 1] = a, -s, s, a
    return A


def _vector(rng, n, zeros: float):
    return tuple(Fraction(0) if rng.random() < zeros else _entry(rng) for _ in range(n))


def _cases():
    rng = random.Random(20261019)
    for n in range(2, 7):
        for kind in KINDS:
            A = Matrix.exact(_state_matrix(kind, n, rng))
            c = _vector(rng, n, 0.3)
            inputs = [_vector(rng, n, 0.5), tuple(Fraction(i == n - 1) for i in range(n)),
                      (Fraction(0),) * n, _vector(rng, n, 0.0)]
            yield pytest.param(A, c, inputs, id=f"{kind}-{n}")


CASES = list(_cases())


def _lift(xs):
    d = math.lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


def _dense_rows(A: Matrix, c, N: int):
    """(rows, dens): every product of each row with each column of D_A A summed."""
    dA = math.lcm(*(x.denominator for row in A.data for x in row))
    M = [[x.numerator * (dA // x.denominator) for x in row] for row in A.data]
    dc, w = _lift(c)
    rows, dens = [tuple(w)], [dc]
    for _ in range(N - 1):
        w = rows[-1]
        rows.append(tuple(sum(w[i] * M[i][j] for i in range(A.rows)) for j in range(A.cols)))
        dens.append(dens[-1] * dA)
    return rows, dens


def _bareiss_minor(X: Matrix, I, J) -> Fraction:
    """One minor by the integer Bareiss elimination, on rows lifted afresh."""
    rows, scale = [], 1
    for i in I:
        d, row = _lift([X.data[i - 1][j - 1] for j in J])
        rows.append(row)
        scale *= d
    return Fraction(linalg._bareiss(rows)[1], scale)


@pytest.mark.parametrize("A, c, inputs", CASES)
def test_exact_output_rows_match_the_dense_chain(A, c, inputs):
    want_rows, want_dens = _dense_rows(A, c, 16)
    rows = output_rows(A, c, 3).extend(9).extend(16)
    assert rows.rows == want_rows and rows.dens == want_dens
    assert all(type(x) is int for row in rows.rows for x in row)


@pytest.mark.parametrize("A, c, inputs", CASES)
def test_exact_samples_match_dense_dot_products_at_every_shift(A, c, inputs):
    want_rows, want_dens = _dense_rows(A, c, 20 + A.rows)
    rows = output_rows(A, c, 1)  # shared by every input and shift, grown on demand
    for b in inputs:
        sys = LtiSystem(A, b, c)
        db, lifted = _lift(b)
        for shift in range(A.rows + 1):
            for start, N in ((0, 8), (8, 12), (3, 20)):
                got = impulse_response(sys, N, rows, start, shift)
                window = want_rows[start + shift:N + shift]
                assert got.nums == tuple(sum(w[i] * lifted[i] for i in range(A.rows))
                                         for w in window)
                assert all(type(x) is int for x in got.nums)
                assert got.db == db and list(got.dens) == want_dens[start + shift:N + shift]


@pytest.mark.parametrize("A, c, inputs", CASES)
def test_exact_compound_matches_per_minor_bareiss(A, c, inputs):
    for r in range(1, A.rows + 1):
        sets = index_sets(A.rows, r)
        assert compound(A, r).data == tuple(tuple(_bareiss_minor(A, I, J) for J in sets)
                                            for I in sets)


@pytest.mark.parametrize("A, c, inputs", CASES)
def test_exact_minor_reads_interleave_with_structural_zeros(A, c, inputs):
    """``value`` and ``stream`` calls on one ``Minors`` of A stacked on its
    first two output rows (zero rows and zero columns included) read in turn
    give the per-minor Bareiss values, whichever call reads a minor first:
    ``value`` as ``Fraction``s, ``stream`` as ints, each the value times the
    product of its row scales."""
    rows, dens = _dense_rows(A, c, 2)
    X = Matrix.exact([*A.data, *([Fraction(x, d) for x in w] for w, d in zip(rows, dens))])
    orders = [(index_sets(X.rows, r), index_sets(X.cols, r)) for r in range(1, A.rows + 1)]
    want = {(I, J): _bareiss_minor(X, I, J)
            for row_sets, col_sets in orders for I in row_sets for J in col_sets}
    scales = row_scales(X)
    minors = Minors(X)
    for row_sets, col_sets in orders:
        ahead = minors.stream(row_sets[::-1], col_sets)
        behind = minors.stream(row_sets, col_sets[::2])
        for k, (one, two) in enumerate(zip_longest(ahead, behind)):
            for item in (one, two):
                if item is not None:
                    (I, J), v = item
                    assert type(v) is int
                    assert v == want[I, J] * math.prod(scales[i - 1] for i in I)
                    assert minors.value((I, J)) == want[I, J]
            I = row_sets[k % len(row_sets)]
            for J in col_sets[::-1]:
                assert minors.value((I, J)) == want[I, J]


def test_compound_of_a_diagonal_runs_no_elimination(monkeypatch):
    """``compound`` reads C_r of an exact diagonal matrix off its diagonal,
    with no elimination at any order; a plain ``Minors`` of it runs one
    elimination per minor read, the off-diagonal ones included."""
    calls = []
    bareiss = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda m: calls.append(len(m)) or bareiss(m))
    n = 6
    D = Matrix.exact([[Fraction(i + 1, 7) if i == j else 0 for j in range(n)] for i in range(n)])
    for r in range(1, n + 1):
        calls.clear()
        C = compound(D, r).data
        assert calls == []
        sets = index_sets(n, r)
        assert all(C[a][b] == (math.prod(Fraction(i, 7) for i in I) if a == b else 0)
                   for a, I in enumerate(sets) for b in range(len(sets)))
    first = compound(D, 2).data[0]
    calls.clear()
    minors = Minors(D)
    assert tuple(minors.value(((1, 2), J)) for J in index_sets(n, 2)) == first
    assert calls == [2] * math.comb(n, 2)


def _diagonals():
    """Exact diagonal matrices: a 1 x 1, zeros on the diagonal, negative and
    repeated entries, and the mixed denominators 1/3, 2/7 and 5/6."""
    F = Fraction
    rng = random.Random(4811)
    pool = [F(0), F(1, 3), F(-2, 7), F(5, 6), F(-1), F(3), F(-5, 6)]
    diagonals = [[F(-2, 7)], [F(0)], [F(1, 3), F(2, 7), F(5, 6)], [F(0), F(-5, 6), F(0), F(1, 3)],
                 [F(2, 7)] * 5, [F(-1, 3), F(-1, 3), F(5, 6), F(-5, 6), F(0), F(2, 7)]]
    diagonals += [[rng.choice(pool) for _ in range(n)] for n in range(1, 8) for _ in range(2)]
    diagonals.append([F(1, 3), F(2, 7), F(5, 6), F(-1), F(0), F(2, 7), F(-5, 6)])
    return [[[d if i == j else F(0) for j in range(len(ds))] for i, d in enumerate(ds)]
            for ds in diagonals]


def test_compound_of_a_diagonal_matches_its_minors(monkeypatch):
    """C_r of an exact diagonal matrix, up to 7 x 7 and at every order, holds
    the ``ints`` and ``dens`` of the matrix of its minors, as ``minor`` reads
    them, with no elimination; one nonzero entry off the diagonal brings the
    elimination back."""
    calls = []
    bareiss = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda m: calls.append(len(m)) or bareiss(m))
    rows = _diagonals()
    assert {len(D) for D in rows} == set(range(1, 8))
    for entries in rows:
        D, n = Matrix.exact(entries), len(entries)
        for r in range(1, n + 1):
            sets = index_sets(n, r)
            want = Matrix.exact([[linalg.minor(D, I, J) for J in sets] for I in sets])
            calls.clear()
            C = compound(D, r)
            assert calls == [], (entries, r)
            assert (C.ints, C.dens) == (want.ints, want.dens), (entries, r)
        if n > 1:
            entries[n - 1][0] = Fraction(1, 3)
            X = Matrix.exact(entries)
            for r in range(1, n + 1):
                sets = index_sets(n, r)
                calls.clear()
                C = compound(X, r)
                assert calls == [r] * len(sets) ** 2, (entries, r)
                assert C.data == tuple(tuple(linalg.minor(X, I, J) for J in sets) for I in sets)


def test_minors_without_zero_entries_eliminate_every_minor_once(monkeypatch):
    """On an exact matrix without a zero entry, as on any other, every minor
    read runs one elimination."""
    calls = []
    bareiss = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda m: calls.append(len(m)) or bareiss(m))
    rng = random.Random(7)
    X = Matrix.exact([[Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
                       for _ in range(4)] for _ in range(5)])
    for r in range(1, 5):
        rows, cols = index_sets(5, r), index_sets(4, r)
        want = [_bareiss_minor(X, I, J) for I in rows for J in cols]
        ints = [streamed_minor(X, I, J) for I in rows for J in cols]
        calls.clear()
        minors = Minors(X)
        reads = list(minors.stream(rows, cols))
        assert [v for _, v in reads] == ints
        assert [minors.value(key) for key, _ in reads] == want
        assert calls == [r] * len(want)


def test_lift_scales_by_the_lcm_of_the_denominators():
    F = Fraction
    assert linalg.lift((1, 0, -3)) == (1, (1, 0, -3))
    assert linalg.lift((F(1, 3), F(-2, 7), F(5, 6), 0)) == (42, (14, -12, 35, 0))
    assert linalg.lift((F(-3, 4),)) == (4, (-3,))
    assert linalg.lift((F(0), F(0), F(0))) == (1, (0, 0, 0))
    for xs in ([F(1, 3), F(-2, 7), F(5, 6), F(0), 4], [F(-9, 10), F(3, 4)]):
        d, lifted = linalg.lift(xs)
        assert all(type(v) is int for v in lifted)
        assert [F(v, d) for v in lifted] == xs


def test_float_minors_keep_their_signed_zeros():
    X = Matrix.floating([[-0.0, 0.0], [0.0, -0.0]])
    minors = [Minors(X).value(((1,), J)) for J in [(1,), (2,)]]
    assert [math.copysign(1.0, x) for x in minors] == [-1.0, 1.0]
    assert all(x == 0.0 for x in compound(X, 1).data[1])


def test_float_samples_keep_every_product():
    """A float sample sums every product, so an inf entry of a row against a
    zero of b gives nan, as the dense left-to-right sum does."""
    A = Matrix.floating([[1e300, 0.0], [0.0, 0.5]])
    sys = LtiSystem(A, (0.0, 1.0), (1e300, 1.0))
    g = impulse_response(sys, 3)
    assert g[0] == 1.0 and all(math.isnan(x) for x in g[1:])
    assert sys.backend is Backend.FLOAT
