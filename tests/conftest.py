import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from varsign.linalg import Backend, Matrix, minor, rank
from varsign.lti import observability_matrix
from varsign.signcons import Conclusion, MatrixPropertyCheck


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


def row_scales(X):
    """The scale of each row of exact X as ``Minors`` lifts it: the lcm of the
    denominators of its entries."""
    return [math.lcm(*(x.denominator for x in row)) for row in X.data]


def streamed_minor(X, I, J):
    """What ``Minors(X).stream`` yields for the minor on rows I, columns J:
    exact, ``minor(X, I, J)`` times the product of the row scales of I, an
    int; float, the minor itself."""
    m = minor(X, I, J)
    if X.backend is Backend.FLOAT:
        return m
    v = m * math.prod(row_scales(X)[i - 1] for i in I)
    assert v.denominator == 1
    return v.numerator


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


def tn_band(rng, n, m):
    """Totally nonnegative n x m matrix with zero minors: lower times upper positive bidiagonal."""
    L = Matrix.exact([[rng.randint(1, 3) if i - j in (0, 1) else 0 for j in range(n)]
                      for i in range(n)])
    U = Matrix.exact([[rng.randint(1, 3) if j - i in (0, 1) else 0 for j in range(m)]
                      for i in range(n)])
    return L @ U


def observable_pair(rng, n, lo=-3, hi=3, max_den=2):
    while True:
        A = random_exact(rng, n, n, lo, hi, max_den)
        c = tuple(Fraction(rng.randint(lo, hi)) for _ in range(n))
        if rank(observability_matrix(A, c, n)) == n:
            return A, c


def vd_of_vb(k, vb_checks):
    """The VD_(k-1) check that the VB_(j-1) checks of j = 1..k (an iterable,
    read whole) fold to, past the total-positivity route: the first refuted,
    else the first inconclusive, under a rule that names its order; certified
    when every order is."""
    checks = list(vb_checks)
    failed = (next((c for c in checks if c.status is Conclusion.REFUTED), None)
              or next((c for c in checks if c.status is Conclusion.INCONCLUSIVE), None))
    if failed is None:
        return MatrixPropertyCheck(f"VD_{k - 1}", Conclusion.CERTIFIED,
                                   "VB_(j-1) at every order j <= k")
    return MatrixPropertyCheck(f"VD_{k - 1}", failed.status,
                               f"{failed.property_name}: {failed.rule}", failed.detail)


def trace_blocks(path) -> dict:
    """``traces.csv`` as {(target, r, beta): its (t, g) rows}, checking that
    each label's rows form one block with t = 1, 2, ... in order."""
    lines = Path(path).read_bytes().decode().split("\r\n")
    assert lines[0] == "target,r,beta,t,g" and lines[-1] == ""
    blocks, label = {}, None
    for line in lines[1:-1]:
        target, r, beta, t, g = line.split(",")
        if (target, int(r), beta) != label:
            label = (target, int(r), beta)
            assert label not in blocks, f"{label} split over two blocks"
            blocks[label] = []
        assert int(t) == len(blocks[label]) + 1
        blocks[label].append((t, g))
    return blocks


def block_bytes(rows) -> bytes:
    """One block of ``traces.csv`` in the byte form of a one-system ``t,g`` CSV."""
    return ("t,g\r\n" + "".join(f"{t},{g}\r\n" for t, g in rows)).encode()


def report_trace_labels(report: dict) -> list:
    """The (target, r, beta) label of every system in a ``report.json``, its
    Hankel factors' included, with beta rendered as ``traces.csv`` does."""
    cert = report["certificate"]
    parts = [cert[t] for t in ("observability", "controllability") if t in cert] or [cert]
    return [(part["target"], sv["r"],
             " ".join(map(str, sv["beta"])) if sv["beta"] is not None else "full")
            for part in parts for sv in part["systems"]]


@pytest.fixture
def rng():
    return random.Random(20240611)
