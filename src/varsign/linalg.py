"""Dense exact/floating linear algebra kernel.

Small matrices only (desk scale, a few hundred entries at most).  Two scalar
backends are supported:

* ``Backend.EXACT`` -- entries are ``fractions.Fraction``; every decimal
  string parses with zero rounding error and all arithmetic is exact.
* ``Backend.FLOAT`` -- entries are ``float``; sign decisions use a global
  comparison tolerance and values inside the tolerance band are never
  silently treated as zero.

Each backend has one elimination, which yields both rank and determinant:
fraction-free Bareiss elimination on integer-lifted rows (``_bareiss``) and
partial pivoting on floats (``_partial_pivot``).  Determinants, minors,
compounds and ranks all run it; ``inverse`` is the adjugate, read from the
(n-1)-th compound, over the determinant.

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

    def is_consecutive(self) -> bool:
        e = self.elems
        return all(e[i + 1] == e[i] + 1 for i in range(len(e) - 1))


def index_sets(n: int, r: int) -> list[tuple[int, ...]]:
    """All r-subsets of ``1..n`` as plain tuples, in lexicographic order."""
    return list(combinations(range(1, n + 1), r))


def consecutive_sets(n: int, r: int) -> list[tuple[int, ...]]:
    """The n-r+1 consecutive r-subsets ``(i, ..., i+r-1)`` of ``1..n``, in order."""
    return [tuple(range(i, i + r)) for i in range(1, n - r + 2)]


def lex_tuples(n: int, r: int) -> list[IndexTuple]:
    """All C(n, r) strictly increasing r-tuples from ``1..n`` in lexicographic order."""
    if not 0 < r <= n:
        raise RankOutOfRangeError(f"need 0 < r <= n, got r={r}, n={n}")
    return [IndexTuple(n, combo) for combo in index_sets(n, r)]


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
    """Determinant: the full-size minor read from ``Minors`` (exact: integer
    Bareiss on the lifted rows over the product of their scales)."""
    if not X.is_square():
        raise NonSquareError(f"determinant of non-square {X.shape}")
    full = tuple(range(1, X.rows + 1))
    return next(Minors(X).row(full, [full]))


def lift(xs: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(D, D x) for exact x, D the lcm of the denominators of its entries:
    the integer form of every exact row, block and vector."""
    d = math.lcm(*[x.denominator for x in xs])
    return d, tuple([x.numerator * (d // x.denominator) for x in xs])


def _bareiss(m: list[list[int]]) -> tuple[int, int]:
    """Rank and determinant of an integer matrix by fraction-free (Bareiss)
    elimination; ``m`` is overwritten.  A column without a nonzero entry
    below the pivots is skipped: every entry stays a minor of ``m``, so each
    division by the previous pivot is exact (Bareiss 1968).  The determinant
    is the signed last pivot at full square rank, else 0.  A 1 x 1 or 2 x 2
    matrix, the most common minor blocks, is read off directly: its entry, or
    ad - bc, the integers the elimination gives."""
    nr, nc = len(m), len(m[0])
    if nr == nc == 1:
        x = m[0][0]
        return int(x != 0), x
    if nr == nc == 2:
        (a, b), (c, d) = m
        x = a * d - b * c
        return 2 if x else int(bool(a or b or c or d)), x
    sign, prev, r = 1, 1, 0
    for j in range(nc):
        if not m[r][j]:
            for i in range(r + 1, nr):
                if m[i][j]:
                    m[r], m[i] = m[i], m[r]
                    sign = -sign
                    break
            else:
                continue
        row_r = m[r]
        pivot = row_r[j]
        for i in range(r + 1, nr):
            row_i = m[i]
            factor = row_i[j]
            for jj in range(j + 1, nc):
                row_i[jj] = (row_i[jj] * pivot - factor * row_r[jj]) // prev
        prev = pivot
        r += 1
        if r == nr:
            break
    return r, sign * prev if r == nr == nc else 0


def _partial_pivot(m: list[list[float]], tol: float = 0.0) -> tuple[int, float]:
    """Rank and determinant of a float matrix by partial pivoting; ``m`` is
    overwritten.  A pivot is the first entry of largest modulus below the
    pivots in its column and must exceed ``tol``, else the column is skipped.
    The determinant is the running signed product of the pivots at full
    square rank, else 0.0; a 1 x 1 matrix is its entry, signed zero included."""
    nr, nc = len(m), len(m[0])
    if nr == nc == 1:
        x = m[0][0]
        return int(abs(x) > tol), x
    detval, r = 1.0, 0
    for j in range(nc):
        p, best = None, tol
        for i in range(r, nr):
            mag = abs(m[i][j])
            if mag > best:
                p, best = i, mag
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            detval = -detval
        row_r = m[r]
        pivot = row_r[j]
        detval *= pivot
        for i in range(r + 1, nr):
            row_i = m[i]
            f = row_i[j] / pivot
            for jj in range(j + 1, nc):
                row_i[jj] -= f * row_r[jj]
        r += 1
    return r, detval if r == nr == nc else 0.0


def minor(X: Matrix, rows, cols) -> Num:
    """Determinant of the submatrix selected by 1-based row/column tuples."""
    ri = _as_indices(rows, X.rows)
    ci = _as_indices(cols, X.cols)
    if len(ri) != len(ci):
        raise SizeMismatchError(f"minor needs equally many rows and columns, got {len(ri)}x{len(ci)}")
    return det(X.submatrix(ri, ci))


_ZERO = Fraction(0)


class Minors:
    """The minors of one matrix, each computed when first read.

    Index sets are 1-based tuples.  Exact rows are lifted to integers once,
    each by ``lift`` (``of_rows`` takes integer rows and their scales as they
    are); each exact minor is one integer Bareiss on its lifted rows, except
    that a minor with a row that has no nonzero entry in its columns is 0
    without one.  That test is armed only on row sets with a zero entry; the
    others run Bareiss alone.  The Bareiss integer is the minor times the
    positive product of its row scales, so it has the minor's sign: ``stream``
    yields it as it is, and ``value`` and ``row`` divide it by that product,
    so a ``Fraction`` is built only for a minor whose value is wanted.  Float
    minors run partial pivoting on the rows as they are, and are their own
    values.  Every minor is computed by the reader of its row set, built once
    per instance, so reads may come in any order, from any number of streams
    at once; a minor that ``stream`` has read is computed once per instance
    and kept.  ``rank`` runs the same elimination on all the rows.
    """

    __slots__ = ("shape", "backend", "_rows", "_scales", "_known", "_readers")

    def __init__(self, X: Matrix):
        if X.backend is Backend.EXACT:
            scales, rows = zip(*map(lift, X.data))
        else:
            rows, scales = X.data, None
        self._fill(rows, scales)

    @classmethod
    def of_rows(cls, rows, dens) -> "Minors":
        """The minors of the matrix whose i-th row is rows[i] / dens[i], read
        without building it: integer rows over positive integers, or float
        rows when ``dens`` is None (the form of ``lti.OutputRows``)."""
        minors = cls.__new__(cls)
        minors._fill(rows, dens)
        return minors

    def _fill(self, rows, scales) -> None:
        self.shape = (len(rows), len(rows[0]))
        self.backend = Backend.FLOAT if scales is None else Backend.EXACT
        # a leading placeholder row and column make 1-based indices direct
        self._rows = [None, *([None, *row] for row in rows)]
        self._scales = None if scales is None else [1, *scales]
        self._known: dict = {}
        self._readers: dict = {}

    def _reader(self, I):
        """The minor on rows I as a function of the column set J, in the form
        ``stream`` yields (the Bareiss integer when exact); the row block is
        built once per row set and instance."""
        read = self._readers.get(I)
        if read is not None:
            return read
        block = [self._rows[i] for i in I]
        if self._scales is None:
            read = lambda J: _partial_pivot([[row[j] for j in J] for row in block])[1]
        else:
            bareiss = lambda J: _bareiss([[row[j] for j in J] for row in block])[1]
            # the nonzero columns of each row of the block that has a zero: a
            # row with none in J makes the minor 0 (a float 1 x 1 minor keeps
            # its signed zero, so only exact minors skip the elimination)
            nonzero = [{j for j, x in enumerate(row) if x} for row in block if 0 in row]
            read = bareiss if not nonzero else (
                lambda J: 0 if any(nz.isdisjoint(J) for nz in nonzero) else bareiss(J))
        self._readers[I] = read
        return read

    def _scale(self, I) -> int:
        """The product of the scales of the rows I (exact only)."""
        return math.prod([self._scales[i] for i in I])

    def row(self, I, col_sets):
        """The value of the minor on rows I and each column set of
        ``col_sets`` in turn, each computed as it is read; nothing is kept."""
        read = self._reader(I)
        if self._scales is None:
            return map(read, col_sets)
        scale = self._scale(I)
        return (Fraction(v, scale) if v else _ZERO for v in map(read, col_sets))

    def value(self, key) -> Num:
        """The value of the minor ``key`` = (I, J) that ``stream`` yielded,
        from what ``stream`` kept, without a second elimination: exact, its
        integer over the product of the row scales of I."""
        v = self._known[key]
        if self._scales is None:
            return v
        return Fraction(v, self._scale(key[0])) if v else _ZERO

    def rank(self, tol: float = DEFAULT_TOL, cols=None) -> int:
        """Rank of the matrix, or of its columns ``cols``; float pivots must
        exceed ``tol``.  Exact rows are eliminated as lifted, which leaves the
        rank unchanged."""
        if cols is None:
            rows = [row[1:] for row in self._rows[1:]]
        else:
            rows = [[row[j] for j in cols] for row in self._rows[1:]]
        return _partial_pivot(rows, tol)[0] if self._scales is None else _bareiss(rows)[0]

    def stream(self, row_sets, col_sets):
        """Yield ``((I, J), minor)`` for I in ``row_sets`` and J in ``col_sets``,
        rows outermost; lexicographic sets give lexicographic (I, J) order.
        An exact minor is yielded as its Bareiss integer, which has its sign
        (``value`` gives the value).  Each minor is computed only when it is
        read, and only if no earlier stream of this instance computed it."""
        known = self._known
        for I in row_sets:
            read = self._reader(I)
            for J in col_sets:
                key = (I, J)
                value = known.get(key)
                if value is None:
                    value = known[key] = read(J)
                yield key, value


def compound(X: Matrix, r: int) -> Matrix:
    """r-th multiplicative compound: all r-minors in lexicographic order.

    Computed minor by minor by ``Minors.row``, through the row reader that
    the lazy sign checks read as well; at desk scale C(n,r)^2 small
    determinants are cheap and there is no need for a fast compound algorithm.
    An exact minor with a row that is zero on its columns is 0 without an
    elimination (``Minors``): C_r(A) of a diagonal A runs C(n, r)
    eliminations, one per diagonal entry.
    """
    if not 1 <= r <= min(X.rows, X.cols):
        raise RankOutOfRangeError(f"compound order {r} invalid for shape {X.shape}")
    minors = Minors(X)
    col_sets = index_sets(X.cols, r)
    return Matrix([list(minors.row(I, col_sets)) for I in index_sets(X.rows, r)], X.backend)


def inverse(X: Matrix, tol: float = DEFAULT_TOL) -> Matrix:
    """Matrix inverse as the adjugate over the determinant; raises
    SingularMatrixError when the determinant is zero (exact) or within
    ``tol`` (float).  Entry (i, j) is (-1)^(i+j) times the minor without row
    j and column i, read from the (n-1)-th compound, over det(X)."""
    if not X.is_square():
        raise NonSquareError(f"inverse of non-square {X.shape}")
    d = det(X)
    if X.backend is Backend.EXACT:
        if d == 0:
            raise SingularMatrixError("exact determinant is zero")
    elif abs(d) <= tol:
        raise SingularMatrixError(f"|det| = {abs(d)} within tolerance {tol}")
    n = X.rows
    if n == 1:
        return Matrix([[1 / d]], X.backend)
    # the (n-1)-subset without index i + 1 sits at lexicographic position n - 1 - i
    C = compound(X, n - 1).data
    return Matrix([[(-1) ** (i + j) * C[n - 1 - j][n - 1 - i] / d for j in range(n)]
                   for i in range(n)], X.backend)


def rank(X: Matrix, tol: float = DEFAULT_TOL) -> int:
    """Rank by the elimination of ``Minors.rank``; float pivots must exceed ``tol``."""
    return Minors(X).rank(tol)
