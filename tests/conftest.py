import random
from fractions import Fraction

import pytest

from varsign.linalg import Matrix, rank
from varsign.lti import observability_matrix


def cofactor_det(rows):
    """Independent determinant oracle: recursive Laplace expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(sub)
        total = total + term if j % 2 == 0 else total - term
    return total


def minor_by_cofactor(X, row_idx, col_idx):
    """Minor via the cofactor oracle; indices 1-based."""
    rows = [[X[i - 1, j - 1] for j in col_idx] for i in row_idx]
    return cofactor_det(rows)


def reverse_columns(X):
    return Matrix([row[::-1] for row in X.data], X.backend)


def random_exact(rng, n, m, lo=-3, hi=3, max_den=3):
    return Matrix.exact([
        [Fraction(rng.randint(lo, hi), rng.randint(1, max_den)) for _ in range(m)]
        for _ in range(n)
    ])


def cauchy_exact(rng, n, m):
    """Strictly totally positive exact matrix: 1/(x_i + y_j) with increasing
    positive nodes."""
    x = []
    acc = Fraction(0)
    for _ in range(n):
        acc += Fraction(rng.randint(1, 4), rng.randint(1, 3))
        x.append(acc)
    y = []
    acc = Fraction(1)
    for _ in range(m):
        acc += Fraction(rng.randint(1, 4), rng.randint(1, 3))
        y.append(acc)
    return Matrix.exact([[1 / (xi + yj) for yj in y] for xi in x])


def observable_pair(rng, n, lo=-3, hi=3, max_den=2):
    while True:
        A = random_exact(rng, n, n, lo, hi, max_den)
        c = tuple(Fraction(rng.randint(lo, hi)) for _ in range(n))
        if rank(observability_matrix(A, c, n)) == n:
            return A, c


@pytest.fixture
def rng():
    return random.Random(20240611)
