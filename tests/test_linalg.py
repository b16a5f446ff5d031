import math
import random
from fractions import Fraction
from itertools import combinations, zip_longest

import numpy as np
import pytest

from varsign.linalg import (
    Backend,
    ExponentRangeError,
    IndexOutOfRangeError,
    IndexTuple,
    Matrix,
    Minors,
    NonSquareError,
    RankOutOfRangeError,
    SingularMatrixError,
    SizeMismatchError,
    compound,
    det,
    index_sets,
    inverse,
    lex_tuples,
    minor,
    parse_scalar,
    rank,
    sign_of,
)
from varsign.lti import LtiSystem, observability_matrix
from varsign.obsv import certify_svb

from conftest import cauchy_exact, cofactor_det, minor_by_cofactor, random_exact, streamed_minor

PENA = Matrix.exact([[1, 1], [1, 2], [1, 3], [1, 4]])


def test_parse_scalar_passes_exact_fraction_through():
    x = Fraction(-5, 6)
    assert parse_scalar(x, Backend.EXACT) is x
    assert parse_scalar("0.25", Backend.EXACT) == Fraction(1, 4)
    assert parse_scalar(3, Backend.EXACT) == 3 and type(parse_scalar(3, Backend.EXACT)) is Fraction
    assert parse_scalar(x, Backend.FLOAT) == -5 / 6


def test_exact_strings_hold_the_exponent_bound_of_the_cli():
    """A library string is read as the CLI reads it (``parse_ratio``): an
    exponent past ten times the int-string digit limit (43000 by default)
    raises before 10 is raised to it, in a matrix entry, an input and an
    output vector alike."""
    big = "1e50000"
    A = Matrix.exact([["1/2", "0"], ["0", "1/4"]])
    with pytest.raises(ExponentRangeError):
        Matrix.exact([[big]])
    with pytest.raises(ExponentRangeError):
        LtiSystem(A, (big, "1"), ("1", "1"))
    with pytest.raises(ExponentRangeError):
        certify_svb(A, ("1", big), 1)
    row = Matrix.exact([["1e3", " -2.5E-1 ", "1_0/4"]]).data[0]
    assert row == (1000, Fraction(-1, 4), Fraction(5, 2))


def test_exact_sign_of_reads_the_numerator():
    def compare_reference(x):
        """The exact classification as it was, by comparing the value with 0."""
        return 1 if x > 0 else -1 if x < 0 else 0

    big = 7 ** 6000  # more than 5000 decimal digits
    assert big.bit_length() > 5000 * math.log2(10)
    values = [0, 1, -1, 12, -12, big, -big, Fraction(0), Fraction(-0), Fraction(3, 7),
              Fraction(-3, 7), Fraction(big, 3), Fraction(-1, big), Fraction(-big, big + 1),
              Fraction(5, -9), Fraction(-5, -9), Fraction(big, -2)]
    for x in values:
        assert sign_of(x, Backend.EXACT) == compare_reference(x), x
        assert type(sign_of(x, Backend.EXACT)) is int


def test_det_2x2():
    assert det(Matrix.exact([[1, 1], [1, 2]])) == 1


def test_det_identity():
    assert det(Matrix.identity(3)) == 1


def test_det_example2_obs_matrix_matches_cofactor_oracle():
    A = Matrix.exact([["0.7", "0.6", "-2"], ["0.15", "0.15", "-0.25"], ["0", "0.03", "0.1"]])
    c = (Fraction("1.1"), Fraction("0.1"), Fraction("-5.5"))
    O3 = observability_matrix(A, c, 3)
    assert det(O3) == cofactor_det([list(r) for r in O3.data])


def test_det_non_square_raises():
    with pytest.raises(NonSquareError):
        det(PENA)


def test_minor_pena_examples():
    assert minor(PENA, (1, 2), (1, 2)) == 1
    assert minor(PENA, (3, 4), (1, 2)) == 1
    assert minor(Matrix.identity(4), (1, 3), (1, 3)) == 1


def test_minor_errors():
    with pytest.raises(SizeMismatchError):
        minor(PENA, (1, 2), (1,))
    with pytest.raises(IndexOutOfRangeError):
        minor(PENA, (1, 5), (1, 2))


def test_compound_layout_matches_lex_order():
    X = random_exact(__import__("random").Random(5), 3, 3)
    C = compound(X, 2)
    # row {1,2}, column {1,3} sits at position (1, 2) in lex order
    assert C[0, 1] == minor(X, (1, 2), (1, 3))
    assert C.shape == (3, 3)


def test_compound_identity():
    for n, r in [(3, 2), (4, 1), (4, 4), (5, 3)]:
        assert compound(Matrix.identity(n), r) == Matrix.identity(math.comb(n, r))


def test_compound_rank_range():
    with pytest.raises(RankOutOfRangeError):
        compound(PENA, 3)


def test_cauchy_binet_by_direct_minors(rng):
    F = random_exact(rng, 4, 3)
    G = random_exact(rng, 3, 4)
    prod = F @ G
    left = compound(prod, 2)
    # oracle side: both compounds entry by entry through cofactor expansion
    rows, mid, cols = lex_tuples(4, 2), lex_tuples(3, 2), lex_tuples(4, 2)
    for i, I in enumerate(rows):
        for j, J in enumerate(cols):
            rhs = sum(
                minor_by_cofactor(F, I.elems, K.elems) * minor_by_cofactor(G, K.elems, J.elems)
                for K in mid
            )
            assert left[i, j] == rhs


def test_cauchy_binet_exhaustive_small_shapes(rng):
    for n in range(1, 5):
        for p in range(1, 5):
            for m in range(1, 5):
                F = random_exact(rng, n, p, -2, 2, 2)
                G = random_exact(rng, p, m, -2, 2, 2)
                for r in range(1, min(n, p, m) + 1):
                    assert compound(F @ G, r) == compound(F, r) @ compound(G, r)


def test_lex_tuples_examples():
    assert [t.elems for t in lex_tuples(3, 2)] == [(1, 2), (1, 3), (2, 3)]
    assert [t.elems for t in lex_tuples(4, 1)] == [(1,), (2,), (3,), (4,)]
    assert [t.elems for t in lex_tuples(4, 4)] == [(1, 2, 3, 4)]
    with pytest.raises(RankOutOfRangeError):
        lex_tuples(3, 0)


def test_minor_reads_may_interleave_in_any_order():
    """Two streams read in turn, with ``value`` reads after each pair of
    reads, all on one ``Minors``: each ``value`` read, of a streamed minor or
    not, is the minor as ``minor`` gives it, and each streamed read is what
    ``streamed_minor`` gives (exact: an int), exact and float."""
    X = Matrix.exact([[1, 2, 3], [4, 5, 7], [2, 9, 1], [3, 1, 8]])
    minors = Minors(X)
    first = minors.stream([(1, 2)], index_sets(3, 2))
    assert next(first) == (((1, 2), (1, 2)), -3)
    assert list(minors.stream([(1, 2)], [(1, 3)])) == [(((1, 2), (1, 3)), -5)]
    assert list(first) == [(((1, 2), (1, 3)), -5), (((1, 2), (2, 3)), -1)]
    rng = random.Random(2808)
    corpus = [X, random_exact(rng, 5, 4), random_exact(rng, 4, 6, 0, 3, 2)]
    for Y in corpus + [Z.to_float() for Z in corpus]:
        minors = Minors(Y)
        for r in range(1, min(Y.shape) + 1):
            rows, cols = index_sets(Y.rows, r), index_sets(Y.cols, r)
            # the second stream reads every other column set, so it runs ahead
            # of the first within each row
            both = zip_longest(minors.stream(rows, cols), minors.stream(rows, cols[1::2]))
            streamed, valued = [], []
            for n, pair in enumerate(both):
                streamed += [read for read in pair if read is not None]
                I, some = rows[n % len(rows)], cols[n % 2::2]
                valued += [((I, J), minors.value((I, J))) for J in some]
            assert len(streamed) + len(valued) > len(rows) * len(cols)
            for (I, J), v in streamed:
                assert v == streamed_minor(Y, I, J), (Y, I, J)
                assert type(v) is (int if Y.backend is Backend.EXACT else float)
                valued.append(((I, J), minors.value((I, J))))
            for (I, J), v in valued:
                assert v == minor(Y, I, J), (Y, I, J)
                assert type(v) is (Fraction if Y.backend is Backend.EXACT else float)


def test_index_tuple_validation():
    with pytest.raises(IndexOutOfRangeError):
        IndexTuple(4, (2, 2))
    with pytest.raises(IndexOutOfRangeError):
        IndexTuple(4, (1, 5))


def test_inverse_examples():
    assert inverse(Matrix.identity(3)) == Matrix.identity(3)
    assert inverse(Matrix.exact([[2, -1], [-1, 1]])) == Matrix.exact([[1, 1], [1, 2]])
    with pytest.raises(SingularMatrixError):
        inverse(Matrix.exact([[1, 2], [2, 4]]))


def test_compound_of_inverse(rng):
    while True:
        X = random_exact(rng, 4, 4)
        if det(X) != 0:
            break
    assert compound(inverse(X), 2) == inverse(compound(X, 2))


def test_spectrum_of_compound_is_products_of_eigenvalues(rng):
    npr = np.random.default_rng(11)
    lams = np.array([2.0, 1.0, -0.5, 0.25])
    V = npr.normal(size=(4, 4))
    while abs(np.linalg.det(V)) < 0.1:
        V = npr.normal(size=(4, 4))
    A = Matrix.floating(V @ np.diag(lams) @ np.linalg.inv(V))
    for r in (2, 3):
        got = sorted(np.linalg.eigvals(np.array(compound(A, r).data)).real)
        want = sorted(
            float(np.prod(lams[list(I)])) for I in __import__("itertools").combinations(range(4), r))
        assert np.allclose(got, want, atol=1e-8)


def test_rank_collapse_of_top_compound(rng):
    for k in (1, 2, 3):
        F = random_exact(rng, 4, k, -2, 2, 1)
        G = random_exact(rng, k, 5, -2, 2, 1)
        X = F @ G
        if rank(X) != k:  # degenerate draw; sampling keeps this rare
            continue
        assert rank(compound(X, k)) == 1


def test_desnanot_jacobi_identity(rng):
    def full(idx_rows, idx_cols, X):
        return minor(X, idx_rows, idx_cols)

    found = 0
    while found < 5:
        X = random_exact(rng, 4, 4)
        if minor(X, (2, 3), (2, 3)) == 0:
            continue
        found += 1
        n = 4
        lhs = det(X) * full(range(2, n), range(2, n), X)
        rhs = (full(range(1, n), range(1, n), X) * full(range(2, n + 1), range(2, n + 1), X)
               - full(range(1, n), range(2, n + 1), X) * full(range(2, n + 1), range(1, n), X))
        assert lhs == rhs


def _gauss_jordan_inverse(X):
    """The Gauss-Jordan inverse with partial pivoting that the adjugate replaced."""
    n = X.rows
    one, zero = (Fraction(1), Fraction(0)) if X.backend is Backend.EXACT else (1.0, 0.0)
    aug = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(X.data)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(aug[i][k]))
        aug[k], aug[p] = aug[p], aug[k]
        aug[k] = [x / aug[k][k] for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def test_inverse_matches_gauss_jordan_reference():
    rng = random.Random(7005)
    exact = [X for X in _square_corpus() if det(X) != 0]
    floats = [X.to_float() for X in exact if abs(det(X)) > Fraction(1, 100)]
    floats += [Matrix.floating([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)])
               for n in (1, 2, 3, 4, 5, 6) for _ in range(5)]
    assert len(exact) > 20
    for X in exact:
        got = inverse(X)
        assert [list(row) for row in got.data] == _gauss_jordan_inverse(X), X
    for X in floats:
        got, want = inverse(X), _gauss_jordan_inverse(X)
        scale = max(abs(x) for row in want for x in row)
        assert all(abs(g - w) <= 1e-12 * scale for g, w in zip(sum(got.data, ()), sum(want, []))), X
        assert all(type(x) is float for row in got.data for x in row)


def test_float_backend_det_and_inverse():
    X = Matrix.floating([[2.0, 1.0], [1.0, 1.0]])
    assert abs(det(X) - 1.0) < 1e-12
    XI = X @ inverse(X)
    assert all(abs(XI[i, j] - (1.0 if i == j else 0.0)) < 1e-12 for i in range(2) for j in range(2))


def test_matrix_validation():
    with pytest.raises(SizeMismatchError):
        Matrix([[1, 2], [3]])
    with pytest.raises(SizeMismatchError):
        Matrix.exact([[1]]) @ Matrix.exact([[1, 2], [3, 4]])


# --- exact kernel on lifted integer rows, differential against independent references ---

_MIXED = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 6), Fraction(-1, 3), Fraction(-2, 7),
          Fraction(-5, 6), Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)]


def _mixed(rng, n, m):
    return Matrix.exact([[rng.choice(_MIXED) for _ in range(m)] for _ in range(n)])


def _low_rank(rng, n, m, k):
    """n x m product of an n x k and a k x m mixed-denominator factor (rank <= k)."""
    return _mixed(rng, n, k) @ _mixed(rng, k, m)


def _square_corpus():
    rng = random.Random(7001)
    f = Fraction
    cases = [
        Matrix.exact([[f(-5, 6)]]),
        Matrix.exact([[0]]),
        # zero leading pivot: the first step swaps rows
        Matrix.exact([[0, f(1, 3), f(2, 7)], [f(5, 6), -1, 1], [f(2, 7), f(1, 3), 0]]),
        # zero pivot at a later step: a swap after the first elimination
        Matrix.exact([[1, 1, f(1, 3)], [1, 1, f(2, 7)], [f(5, 6), f(-1, 3), 1]]),
        # all-zero first column: det = 0 before any elimination
        Matrix.exact([[0, f(1, 3), 1], [0, f(2, 7), f(5, 6)], [0, -1, f(1, 3)]]),
        # column 2 = 2 * column 1: the second pivot column is all zero after one step
        Matrix.exact([[f(1, 3), f(2, 3), f(1, 7)], [f(2, 7), f(4, 7), f(5, 6)], [-1, -2, 3]]),
        # two equal rows
        Matrix.exact([[f(1, 3), f(2, 7), 1], [f(5, 6), -2, f(1, 3)], [f(1, 3), f(2, 7), 1]]),
    ]
    for n in range(1, 7):
        cases += [_mixed(rng, n, n) for _ in range(4)]
        cases.append(cauchy_exact(rng, n, n))
    for n, k in [(3, 1), (4, 2), (5, 3), (5, 2), (6, 4)]:
        cases.append(_low_rank(rng, n, n, k))
    return cases


def _rect_corpus():
    rng = random.Random(7002)
    cases = []
    for n, m in [(1, 3), (3, 1), (3, 3), (4, 2), (2, 5), (5, 3), (6, 4)]:
        cases += [_mixed(rng, n, m), random_exact(rng, n, m), cauchy_exact(rng, n, m)]
    cases += [_mixed(rng, 7, 5), cauchy_exact(rng, 7, 5), random_exact(rng, 8, 6),
              cauchy_exact(rng, 8, 6)]
    for n, m, k in [(5, 3, 2), (6, 4, 2), (7, 5, 3), (4, 6, 1)]:
        cases.append(_low_rank(rng, n, m, k))
    cases.append(Matrix.exact([[0] * 4 for _ in range(3)]))
    cases.append(Matrix.exact([[1, 2, 3], [0, 0, 0], [Fraction(1, 3), Fraction(2, 7), 0]]))
    return cases


def test_exact_det_matches_cofactor_oracle_on_mixed_denominators():
    corpus = _square_corpus()
    assert any(det(X) == 0 for X in corpus) and any(det(X) != 0 for X in corpus)
    for X in corpus:
        d = det(X)
        assert type(d) is Fraction
        assert d == cofactor_det([list(r) for r in X.data]), X


def test_exact_compound_matches_cofactor_minors():
    for X in _rect_corpus():
        for r in range(1, min(X.shape) + 1):
            C = compound(X, r)
            want = [[minor_by_cofactor(X, I, J) for J in combinations(range(1, X.cols + 1), r)]
                    for I in combinations(range(1, X.rows + 1), r)]
            assert C.backend is Backend.EXACT
            assert all(type(v) is Fraction for row in C.data for v in row)
            assert [list(row) for row in C.data] == want, (X, r)


def _skip_corpus():
    """Seeded integer low-rank products F @ G whose leading columns are zero or
    multiples of the first, ahead of independent ones, so that elimination
    skips a column between two pivots; a third of them square (singular)."""
    rng = random.Random(7004)
    cases = []
    for t in range(90):
        n = rng.randint(3, 7)
        m = n if t % 3 == 0 else rng.randint(3, 7)
        k = rng.randint(2, min(n, m) - 1)
        F = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        v = [rng.randint(-3, 3) for _ in range(k)]
        lead = [[0] * k if rng.random() < 0.5 else [rng.randint(-2, 2) * x for x in v]
                for _ in range(rng.randint(1, m - k))]
        cols = [v] + lead
        cols += [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m - len(cols))]
        cases.append(Matrix.exact(F) @ Matrix.exact(list(zip(*cols))))
    return cases


def _fraction_rank_reference(X):
    """Row echelon form over Fraction, column by column: the pivot columns."""
    m = [list(row) for row in X.data]
    r = 0
    pivots = []
    for j in range(X.cols):
        p = next((i for i in range(r, X.rows) if m[i][j] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, X.rows):
            f = m[i][j] / m[r][j]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        pivots.append(j)
    return pivots


def test_exact_rank_matches_fraction_elimination():
    ranks = []
    skipped = 0
    for X in _square_corpus() + _rect_corpus() + _skip_corpus():
        pivots = _fraction_rank_reference(X)
        ranks.append((rank(X), min(X.shape)))
        assert rank(X) == len(pivots), X
        assert rank(X.transpose()) == rank(X)
        # a column skipped between two pivots: Bareiss divides across the gap
        skipped += len(pivots) > 1 and pivots[-1] >= len(pivots)
        if X.is_square():
            assert det(X) == cofactor_det([list(r) for r in X.data]), X
    assert any(r < full for r, full in ranks) and any(r == full for r, full in ranks)
    assert skipped > 50


# the float kernel as it was before the exact path moved to integers, kept verbatim
def _float_det_reference(rows):
    m = [list(row) for row in rows]
    n = len(m)
    if n == 1:
        return m[0][0]
    detval = 1.0
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(m[i][k]))
        if m[p][k] == 0.0:
            return 0.0
        if p != k:
            m[k], m[p] = m[p], m[k]
            detval = -detval
        pivot = m[k][k]
        detval *= pivot
        for i in range(k + 1, n):
            f = m[i][k] / pivot
            for j in range(k + 1, n):
                m[i][j] -= f * m[k][j]
    return detval


def _float_rank_reference(rows, tol=1e-9):
    m = [list(row) for row in rows]
    nr, nc = len(m), len(m[0])
    r = 0
    for j in range(nc):
        p = None
        best = 0
        for i in range(r, nr):
            mag = abs(m[i][j])
            if mag > max(best, tol):
                p, best = i, mag
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot = m[r][j]
        for i in range(r + 1, nr):
            if m[i][j] != 0:
                f = m[i][j] / pivot
                for jj in range(j, nc):
                    m[i][jj] -= f * m[r][jj]
        r += 1
        if r == nr:
            break
    return r


def test_float_det_compound_and_rank_are_bit_identical_to_reference():
    rng = random.Random(7003)
    corpus = [X.to_float() for X in _rect_corpus()]
    corpus += [Matrix.floating([[rng.uniform(-2, 2) for _ in range(m)] for _ in range(n)])
               for n, m in [(3, 3), (5, 5), (6, 6), (7, 4), (8, 6)]]
    # signed zeros, ties and products that underflow to a signed zero
    special = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-200, -1e-200]
    for _ in range(120):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        corpus.append(Matrix.floating([[rng.choice(special) if rng.random() < 0.6
                                        else rng.uniform(-3, 3) for _ in range(m)]
                                       for _ in range(n)]))
    # float diagonals, signed zeros on and off the diagonal: eliminated as any other
    corpus += [Matrix.floating([[d if i == j else z for j in range(len(ds))]
                                for i, d in enumerate(ds)])
               for ds, z in [((-0.0,), 0.0), ((-0.0, -2.5, 3.0), 0.0),
                             ((-1.0, 0.5, -0.0, -3.0), -0.0), ((-2.0, -2.0, 1e-200, -0.5), 0.0)]]
    negative_zeros = 0
    for X in corpus:
        assert rank(X) == _float_rank_reference(X.data)
        if X.is_square():
            assert det(X).hex() == _float_det_reference(X.data).hex()
        for r in range(1, min(X.shape) + 1):
            want = [[_float_det_reference([[X[i - 1, j - 1] for j in J] for i in I]).hex()
                     for J in combinations(range(1, X.cols + 1), r)]
                    for I in combinations(range(1, X.rows + 1), r)]
            C = compound(X, r)
            assert C.backend is Backend.FLOAT
            assert [[x.hex() for x in row] for row in C.data] == want, (X, r)
            negative_zeros += sum(x.hex().startswith("-0x0.0") for row in C.data for x in row)
    assert negative_zeros > 0
