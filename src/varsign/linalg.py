"""Dense exact/floating linear algebra kernel.

Small matrices only (desk scale, a few hundred entries at most).  Two scalar
backends are supported:

* ``Backend.EXACT`` -- entries are ``fractions.Fraction``; every decimal
  string parses with zero rounding error and all arithmetic is exact.
* ``Backend.FLOAT`` -- entries are ``float``; sign decisions use a global
  comparison tolerance and values inside the tolerance band are never
  silently treated as zero.

Index tuples follow the 1-based mathematical convention; raw matrix element
access via ``Matrix[i, j]`` is 0-based like everything else in Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence, Union

Num = Union[Fraction, float]

#: default comparison tolerance for the float backend
DEFAULT_TOL = 1e-9


class Backend(Enum):
    EXACT = "exact"
    FLOAT = "float"


class LinalgError(ValueError):
    """Base class for kernel errors."""


class NonSquareError(LinalgError):
    pass


class SizeMismatchError(LinalgError):
    pass


class IndexOutOfRangeError(LinalgError):
    pass


class RankOutOfRangeError(LinalgError):
    pass


class SingularMatrixError(LinalgError):
    pass


def parse_scalar(value, backend: Backend) -> Num:
    """Coerce ``value`` (number or decimal string) into the backend's scalar type."""
    if backend is Backend.EXACT:
        if type(value) is Fraction:
            return value
        # a float converts to its exact binary value; decimal strings are the lossless path
        return Fraction(value)
    return float(value)


def int_text(n: int) -> str:
    """``str(n)`` for an int of any size.

    ``str`` refuses ints longer than ``sys.get_int_max_str_digits()``
    decimal digits (4300 by default, never below 640), which exact samples
    of a system with large entries exceed; longer ints are split in halves
    by a power of 10.
    """
    if n.bit_length() <= 2000:  # at most 603 digits
        return str(n)
    if n < 0:
        return "-" + int_text(-n)
    half = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 0.3
    hi, lo = divmod(n, 10 ** half)
    return int_text(hi) + int_text(lo).rjust(half, "0")


def scalar_text(x: Num) -> str:
    """``str(x)`` for a scalar, with ``int_text`` for the parts of a Fraction."""
    if isinstance(x, Fraction):
        num = int_text(x.numerator)
        return num if x.denominator == 1 else f"{num}/{int_text(x.denominator)}"
    return str(x)


def sign_of(x: Num, backend: Backend, tol: float = DEFAULT_TOL):
    """Sign classification: +1, -1, 0 (exact backend only) or None (inconclusive).

    Float values inside ``[-tol, tol]`` are inconclusive, including exact 0.0.
    Exact values (ints and Fractions) are classified by their numerator,
    whose sign is the value's: the denominator is positive.
    """
    if backend is Backend.EXACT:
        num = x.numerator
        return 1 if num > 0 else -1 if num < 0 else 0
    if x > tol:
        return 1
    if x < -tol:
        return -1
    return None


@dataclass(frozen=True)
class IndexTuple:
    """Strictly increasing tuple of 1-based indices drawn from ``1..n``."""

    n: int
    elems: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "elems", tuple(self.elems))
        prev = 0
        for e in self.elems:
            if not isinstance(e, int) or e <= prev:
                raise IndexOutOfRangeError(f"indices must be strictly increasing, got {self.elems}")
            prev = e
        if prev > self.n:
            raise IndexOutOfRangeError(f"index {prev} exceeds ambient size {self.n}")

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __str__(self):
        return "{" + ",".join(map(str, self.elems)) + "}"

    def complement(self) -> "IndexTuple":
        inside = set(self.elems)
        return IndexTuple(self.n, tuple(i for i in range(1, self.n + 1) if i not in inside))

    def is_consecutive(self) -> bool:
        e = self.elems
        return all(e[i + 1] == e[i] + 1 for i in range(len(e) - 1))

    def lex_rank(self) -> int:
        """1-based position of this tuple in the lexicographic order of I_{n,r}."""
        r = len(self.elems)
        rank = 0
        prev = 0
        for i, v in enumerate(self.elems):
            for c in range(prev + 1, v):
                rank += math.comb(self.n - c, r - i - 1)
            prev = v
        return rank + 1


def lex_tuples(n: int, r: int) -> list[IndexTuple]:
    """All C(n, r) strictly increasing r-tuples from ``1..n`` in lexicographic order."""
    if not 0 < r <= n:
        raise RankOutOfRangeError(f"need 0 < r <= n, got r={r}, n={n}")
    return [IndexTuple(n, combo) for combo in combinations(range(1, n + 1), r)]


def _as_indices(idx, n: int) -> tuple[int, ...]:
    elems = tuple(idx.elems) if isinstance(idx, IndexTuple) else tuple(idx)
    for e in elems:
        if not 1 <= e <= n:
            raise IndexOutOfRangeError(f"index {e} outside 1..{n}")
    return elems


class Matrix:
    """Immutable dense matrix over one scalar backend."""

    __slots__ = ("rows", "cols", "data", "backend")

    def __init__(self, rows_of_entries: Iterable[Iterable], backend: Backend | None = None):
        data = tuple(tuple(row) for row in rows_of_entries)
        if not data or not data[0]:
            raise SizeMismatchError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise SizeMismatchError("ragged rows")
        if backend is None:
            has_float = any(isinstance(x, float) for row in data for x in row)
            has_frac = any(isinstance(x, Fraction) for row in data for x in row)
            if has_float and has_frac:
                raise SizeMismatchError("mixed float/Fraction entries; pass an explicit backend")
            backend = Backend.FLOAT if has_float else Backend.EXACT
        data = tuple(tuple(parse_scalar(x, backend) for x in row) for row in data)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "backend", backend)

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def exact(cls, rows_of_entries) -> "Matrix":
        return cls(rows_of_entries, Backend.EXACT)

    @classmethod
    def floating(cls, rows_of_entries) -> "Matrix":
        return cls(rows_of_entries, Backend.FLOAT)

    @classmethod
    def identity(cls, n: int, backend: Backend = Backend.EXACT) -> "Matrix":
        one = Fraction(1) if backend is Backend.EXACT else 1.0
        zero = Fraction(0) if backend is Backend.EXACT else 0.0
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)], backend)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key) -> Num:
        i, j = key
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.backend is other.backend
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.backend, self.data))

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.data]!r}, {self.backend})"

    def row(self, i: int) -> tuple[Num, ...]:
        return self.data[i]

    def col(self, j: int) -> tuple[Num, ...]:
        return tuple(row[j] for row in self.data)

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.data), self.backend)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        """Submatrix by 1-based index tuples (IndexTuple or plain sequences)."""
        ri = _as_indices(row_idx, self.rows)
        ci = _as_indices(col_idx, self.cols)
        return Matrix([[self.data[i - 1][j - 1] for j in ci] for i in ri], self.backend)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise SizeMismatchError(f"cannot multiply {self.shape} by {other.shape}")
        if self.backend is not other.backend:
            raise SizeMismatchError("backend mismatch in matrix product")
        bt = list(zip(*other.data))
        return Matrix(
            [[_dot(row, col) for col in bt] for row in self.data],
            self.backend,
        )

    def matvec(self, v: Sequence[Num]) -> tuple[Num, ...]:
        if len(v) != self.cols:
            raise SizeMismatchError("vector length mismatch")
        return tuple(_dot(row, v) for row in self.data)

    def vecmat(self, v: Sequence[Num]) -> tuple[Num, ...]:
        if len(v) != self.rows:
            raise SizeMismatchError("vector length mismatch")
        return tuple(_dot(v, col) for col in zip(*self.data))

    def to_float(self) -> "Matrix":
        if self.backend is Backend.FLOAT:
            return self
        return Matrix([[float(x) for x in row] for row in self.data], Backend.FLOAT)


def _dot(a: Sequence[Num], b: Sequence[Num]) -> Num:
    total = None
    for x, y in zip(a, b):
        term = x * y
        total = term if total is None else total + term
    return total


def det(X: Matrix) -> Num:
    """Determinant; exact: integer Bareiss on rows lifted by the lcm d_i of their
    denominators, normalised once as ``Fraction(bareiss, prod(d_i))``."""
    if not X.is_square():
        raise NonSquareError(f"determinant of non-square {X.shape}")
    n = X.rows
    if n == 1:
        return X.data[0][0]
    if X.backend is Backend.EXACT:
        m, scales = _lift_rows(X.data)
        return Fraction(_bareiss(m), math.prod(scales))
    return _det_partial_pivot([list(row) for row in X.data])


def _lift_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Scale each Fraction row by the lcm d_i of its denominators: integer rows and the d_i."""
    ints, scales = [], []
    for row in rows:
        d = math.lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (d // x.denominator) for x in row])
        scales.append(d)
    return ints, scales


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination; ``m`` is overwritten."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = m[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            factor = row_i[k]
            for j in range(k + 1, n):
                # Bareiss update: division by the previous pivot is exact
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def _det_partial_pivot(m: list[list[float]]) -> float:
    """Determinant of a square float matrix by partial pivoting; ``m`` is overwritten.
    A 1 x 1 matrix is its entry, signed zero included."""
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


def minor(X: Matrix, rows, cols) -> Num:
    """Determinant of the submatrix selected by 1-based row/column tuples."""
    ri = _as_indices(rows, X.rows)
    ci = _as_indices(cols, X.cols)
    if len(ri) != len(ci):
        raise SizeMismatchError(f"minor needs equally many rows and columns, got {len(ri)}x{len(ci)}")
    return det(X.submatrix(ri, ci))


def compound(X: Matrix, r: int) -> Matrix:
    """r-th multiplicative compound: all r-minors in lexicographic order.

    Computed minor by minor; at desk scale C(n,r)^2 small determinants are
    cheap and there is no need for a fast compound algorithm.  Exact X is lifted
    to integer rows once; each minor is one integer Bareiss over its row scales.
    Float minors run partial pivoting on the rows as they are.
    """
    if not 1 <= r <= min(X.rows, X.cols):
        raise RankOutOfRangeError(f"compound order {r} invalid for shape {X.shape}")
    exact = X.backend is Backend.EXACT
    m, scales = _lift_rows(X.data) if exact else (X.data, None)
    det_of = _bareiss if exact else _det_partial_pivot
    col_sets = list(combinations(range(X.cols), r))
    out = []
    for I in combinations(range(X.rows), r):
        block = [m[i] for i in I]
        dets = [det_of([[row[j] for j in J] for row in block]) for J in col_sets]
        if exact:
            scale = math.prod(scales[i] for i in I)
            dets = [Fraction(d, scale) for d in dets]
        out.append(dets)
    return Matrix(out, X.backend)


def inverse(X: Matrix, tol: float = DEFAULT_TOL) -> Matrix:
    """Matrix inverse via Gauss-Jordan; raises SingularMatrixError."""
    if not X.is_square():
        raise NonSquareError(f"inverse of non-square {X.shape}")
    d = det(X)
    if X.backend is Backend.EXACT:
        if d == 0:
            raise SingularMatrixError("exact determinant is zero")
    elif abs(d) <= tol:
        raise SingularMatrixError(f"|det| = {abs(d)} within tolerance {tol}")
    n = X.rows
    one = Fraction(1) if X.backend is Backend.EXACT else 1.0
    zero = Fraction(0) if X.backend is Backend.EXACT else 0.0
    aug = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(X.data)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(aug[i][k]))
        if aug[p][k] == 0:
            raise SingularMatrixError("zero pivot during elimination")
        if p != k:
            aug[k], aug[p] = aug[p], aug[k]
        pivot = aug[k][k]
        aug[k] = [x / pivot for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return Matrix([row[n:] for row in aug], X.backend)


def rank(X: Matrix, tol: float = DEFAULT_TOL) -> int:
    """Rank by Gaussian elimination; float pivots must exceed ``tol``.  Exact rows
    are lifted to integers (rank unchanged) and eliminated by cross-multiplication."""
    exact = X.backend is Backend.EXACT
    m = _lift_rows(X.data)[0] if exact else [list(row) for row in X.data]
    nr, nc = X.rows, X.cols
    r = 0
    for j in range(nc):
        p = None
        best = 0
        for i in range(r, nr):
            mag = abs(m[i][j])
            if (exact and mag > 0) or (not exact and mag > max(best, tol)):
                p, best = i, mag
                if exact:
                    break
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot = m[r][j]
        for i in range(r + 1, nr):
            f = m[i][j]
            if f != 0 and exact:
                m[i] = [pivot * x - f * y for x, y in zip(m[i], m[r])]
            elif f != 0:
                f = f / pivot
                for jj in range(j, nc):
                    m[i][jj] -= f * m[r][jj]
        r += 1
        if r == nr:
            break
    return r
