"""Dense exact/floating linear algebra kernel.

Small matrices only (desk scale, a few hundred entries at most).  Two scalar
backends are supported:

* ``Backend.EXACT`` -- entries are ``fractions.Fraction``; every decimal
  string parses with zero rounding error and all arithmetic is exact.  The
  kernels read each row as ``lift`` gives it (``Matrix.ints``/``dens``).  A
  decimal string parses once, straight to a pair of integers
  (``parse_ratio``, ``Fraction``'s grammar and errors, its exponent
  bounded), whether the CLI reads it or ``parse_scalar`` does, and a row of
  such pairs lifts to that form with no ``Fraction`` (``Matrix._of_ratios``);
  ``Matrix.data`` derives the ``Fraction`` entries when read.
* ``Backend.FLOAT`` -- entries are ``float``; sign decisions use a global
  comparison tolerance and values inside the tolerance band are never
  silently treated as zero.

Each backend has one elimination, which yields both rank and determinant:
fraction-free Bareiss elimination on the integer rows (``_bareiss``) and
partial pivoting on floats (``_partial_pivot``), run once per minor and
rank by ``Minors``; an exact diagonal matrix's compounds are read off its
diagonal, and Fekete's scan condenses the exact consecutive minors order by
order, with no elimination (``Minors.positive_order``).
``inverse`` is the adjugate, from the (n-1)-th compound, over det.

Index tuples follow the 1-based mathematical convention; raw matrix element
access via ``Matrix[i, j]`` is 0-based like everything else in Python.
"""

from __future__ import annotations

import math
import re
import sys
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


class ExponentRangeError(LinalgError):
    """A decimal exponent past the bound ``parse_ratio`` holds it to."""


def parse_scalar(value, backend: Backend) -> Num:
    """Coerce ``value`` (number or decimal string) into the backend's scalar type."""
    if backend is Backend.EXACT:
        if type(value) is Fraction:
            return value
        # a float converts to its exact binary value; a string is read as the CLI reads it
        return Fraction(*parse_ratio(value)) if isinstance(value, str) else Fraction(value)
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
    """Immutable dense matrix over one scalar backend.  An exact one also
    holds row i as ``ints[i]`` over ``dens[i]``, ``lift`` of its entries
    (None in float); built from integers (``_of_ints``), it derives its
    ``Fraction`` entries, ``data``, on first read."""

    __slots__ = ("rows", "cols", "_data", "backend", "dens", "ints")

    def __init__(self, rows_of_entries: Iterable[Iterable], backend: Backend | None = None):
        data = tuple(tuple(row) for row in rows_of_entries)
        _check_shape(data)
        if backend is None:
            has_float = any(isinstance(x, float) for row in data for x in row)
            has_frac = any(isinstance(x, Fraction) for row in data for x in row)
            if has_float and has_frac:
                raise SizeMismatchError("mixed float/Fraction entries; pass an explicit backend")
            backend = Backend.FLOAT if has_float else Backend.EXACT
        data = tuple(tuple(parse_scalar(x, backend) for x in row) for row in data)
        dens, ints = zip(*map(lift, data)) if backend is Backend.EXACT else (None, None)
        self._set(data, backend, dens, ints)

    @classmethod
    def _of_ints(cls, dens: Sequence[int], ints: Sequence[Sequence[int]]) -> "Matrix":
        """The exact matrix of rows ints[i] / dens[i], dens positive, with no
        ``Fraction``: row i over gcd(dens[i], *ints[i]) is ``lift``'s form."""
        gs = [math.gcd(d, *row) for d, row in zip(dens, ints)]
        m = cls.__new__(cls)
        m._set(None, Backend.EXACT, tuple(d // g for d, g in zip(dens, gs)),
               tuple(tuple(row) if g == 1 else tuple([x // g for x in row])
                     for g, row in zip(gs, ints)))
        return m

    @classmethod
    def _of_ratios(cls, rows: Sequence[Sequence[tuple[int, int]]]) -> "Matrix":
        """The exact matrix of rows of pairs (p, q), q > 0, each the value
        p / q (``parse_ratio``), with no ``Fraction``: row i is lifted over
        the lcm of its q, which ``_of_ints`` brings to ``lift``'s form."""
        _check_shape(rows)
        dens = [math.lcm(*[q for _, q in row]) for row in rows]
        return cls._of_ints(dens, [[p * (d // q) for p, q in row] for d, row in zip(dens, rows)])

    def _set(self, data, backend: Backend, dens, ints) -> None:
        rows = ints if data is None else data
        for name, value in (("rows", len(rows)), ("cols", len(rows[0])), ("_data", data),
                            ("backend", backend), ("dens", dens), ("ints", ints)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    @property
    def data(self) -> tuple[tuple[Num, ...], ...]:
        """The entries row by row, exact ones as reduced ``Fraction``s."""
        if self._data is None:
            object.__setattr__(self, "_data", tuple(
                tuple([Fraction(x, d) for x in row]) for d, row in zip(self.dens, self.ints)))
        return self._data

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
        """Nearest doubles: int / den rounds as ``float`` of a ``Fraction``
        does, and raises ``OverflowError`` past float range."""
        if self.backend is Backend.FLOAT:
            return self
        return Matrix([[x / d for x in row] for d, row in zip(self.dens, self.ints)],
                      Backend.FLOAT)


def _check_shape(rows: Sequence[Sequence]) -> None:
    if not rows or not rows[0]:
        raise SizeMismatchError("matrix must have at least one row and one column")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise SizeMismatchError("ragged rows")


def _dot(a: Sequence[Num], b: Sequence[Num]) -> Num:
    total = None
    for x, y in zip(a, b):
        term = x * y
        total = term if total is None else total + term
    return total


def det(X: Matrix) -> Num:
    """Determinant: the full-size minor read from ``Minors`` (exact: integer
    Bareiss on the integer rows over the product of their scales)."""
    if not X.is_square():
        raise NonSquareError(f"determinant of non-square {X.shape}")
    full = tuple(range(1, X.rows + 1))
    return Minors(X).value((full, full))


def lift(xs: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(D, D x) for exact x, D the lcm of the denominators of its entries:
    the integer form of every exact row, block and vector."""
    d = math.lcm(*[x.denominator for x in xs])
    return d, tuple([x.numerator * (d // x.denominator) for x in xs])


# ``Fraction``'s string grammar in the pattern Python 3.11's ``fractions``
# compiles, character for character, so that ``re`` returns it from its cache
# rather than compiling it again at import.  ``\d`` and ``\s`` are Unicode
# classes, which ``int`` reads alike; the fractional part may be letters d
# (``d*``), which ``int`` refuses.
_RATIONAL = re.compile(r"""
    \A\s*                                 # optional whitespace at the start,
    (?P<sign>[-+]?)                       # an optional sign, then
    (?=\d|\.\d)                           # lookahead for digit or .digit
    (?P<num>\d*|\d+(_\d+)*)               # numerator (possibly empty)
    (?:                                   # followed by
       (?:/(?P<denom>\d+(_\d+)*))?        # an optional denominator
    |                                     # or
       (?:\.(?P<decimal>d*|\d+(_\d+)*))?  # an optional fractional part
       (?:E(?P<exp>[-+]?\d+(_\d+)*))?     # and optional exponent
    )
    \s*\Z                                 # and optional whitespace to finish
""", re.VERBOSE | re.IGNORECASE)
# An exponent may reach this many times the int-string digit limit: values
# of 10^5000 and more, whose samples and minors ``int_text`` renders, stay
# readable, while 10^43000 (at the default limit of 4300) takes about a
# second to check and print, and 10^(10^9) would not finish in minutes.
_EXPONENT_FACTOR = 10


def parse_ratio(text: str) -> tuple[int, int]:
    """The value ``Fraction(text)`` reads from a string, as integers (p, q),
    q > 0, not reduced, with its errors: ValueError outside its grammar or
    for digits past the int-string limit, ZeroDivisionError for a zero
    denominator.  An exponent is bounded (``_bound_exponent``) before any
    other check and before 10 is raised to it."""
    m = _RATIONAL.match(text)
    if m is None:
        _bound_exponent(text)
        raise ValueError("invalid literal for a decimal")
    sign, num, den, decimal, exp = m.group("sign", "num", "denom", "decimal", "exp")
    if exp:
        _bound_exponent(text)
    num = int(num or "0")
    if den:
        den = int(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
    else:
        den = 1
        if decimal:
            decimal = decimal.replace("_", "")
            den = 10 ** len(decimal)
            num = num * den + int(decimal)
        if exp:
            exp = int(exp)
            if exp >= 0:
                num *= 10 ** exp
            else:
                den *= 10 ** -exp
    return -num if sign == "-" else num, den


def _bound_exponent(text: str) -> None:
    """ExponentRangeError when ``text`` ends in an exponent, e or E, a sign
    or none and ``_``-grouped digits, then spaces, past ``_EXPONENT_FACTOR``
    times the int-string digit limit in magnitude, unless the limit is off
    (0): ``Fraction`` would raise 10 to it.  A string outside the grammar is
    held to the bound too, and fails on it first."""
    bound = _EXPONENT_FACTOR * sys.get_int_max_str_digits()
    body = text.rstrip()
    at = max(body.rfind("e"), body.rfind("E"))
    tail = body[at + 1:]
    digits = (tail[1:] if tail[:1] in ("+", "-") else tail).replace("_", "")
    if at < 0 or not bound or not digits.isdecimal():
        return
    digits = digits.lstrip("0")
    if len(digits) > len(str(bound)) or int(digits or "0") > bound:
        raise ExponentRangeError(f"its decimal exponent exceeds {bound} in magnitude")


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


def _is_diagonal(X: Matrix) -> bool:
    """Whether X is exact and square with no nonzero entry off its diagonal."""
    return X.backend is Backend.EXACT and X.is_square() and not any(
        any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(X.ints))


def minor(X: Matrix, rows, cols) -> Num:
    """Determinant of the submatrix on 1-based row/column tuples, read from ``Minors``."""
    ri = _as_indices(rows, X.rows)
    ci = _as_indices(cols, X.cols)
    if not ri or len(ri) != len(ci):
        raise SizeMismatchError(f"minor needs k rows and k columns, k > 0, got {len(ri)}x{len(ci)}")
    return Minors(X).value((ri, ci))


_ZERO = Fraction(0)


class Minors:
    """The minors of one matrix, each computed when first read.

    Index sets are 1-based tuples.  Exact minors read the integer rows and
    scales of the one ``Matrix`` given (``ints``, ``dens``) as they are: each
    is an integer, the minor times the positive product of its row scales,
    so it has the minor's sign: ``stream`` yields it as it is, and ``value``
    divides it by that product, so a ``Fraction`` is built only for a minor
    whose value is wanted.  The exact consecutive minors come in layers, one
    per order, each condensed from the two below it (``positive_order``);
    any other minor is one integer Bareiss on its rows, computed by the
    reader of its row set, built once per instance.  Both give the
    determinant of the same integer block, so both give the same integer.
    Float minors are one partial pivoting each and are their own values, and
    a float instance has no layers.  Reads may come in any order, from any
    number of streams at once; a minor that ``stream`` or ``value`` has read
    is computed once per instance and kept, and one that a layer holds is
    read off it.  A layer computes all its minors, so a caller scans to an
    order before it reads a minor of that order, and no minor is computed
    twice.  ``rank`` runs the same elimination on all the rows.
    """

    __slots__ = ("shape", "backend", "_rows", "_scales", "_known", "_readers",
                 "_layers", "_positive")

    def __init__(self, X: Matrix):
        self.shape, self.backend = X.shape, X.backend
        exact = X.backend is Backend.EXACT
        # a leading placeholder row and column make 1-based indices direct
        self._rows = [None, *([None, *row] for row in (X.ints if exact else X.data))]
        self._scales = [1, *X.dens] if exact else None
        self._known: dict = {}
        self._readers: dict = {}
        # layer r: the consecutive r-minors (``positive_order``); the first
        # ``_positive`` layers after layer 0 are positive
        self._layers: list = []
        self._positive = 0

    def _reader(self, I):
        """The minor on rows I as a function of the column set J, in the form
        ``stream`` yields (the Bareiss integer when exact); the row block is
        built once per row set and instance."""
        read = self._readers.get(I)
        if read is None:
            block = [self._rows[i] for i in I]
            eliminate = _partial_pivot if self._scales is None else _bareiss
            read = self._readers[I] = lambda J: eliminate([[row[j] for j in J] for row in block])[1]
        return read

    def _minor(self, read, I, J):
        """The minor (I, J), in the form ``stream`` yields: off its layer when
        I and J are consecutive and the layer of their order is condensed,
        else ``read(J)``, ``read`` the reader of I."""
        r = len(I)
        if r < len(self._layers) and I[-1] - I[0] == r - 1 == J[-1] - J[0]:
            return self._layers[r][I[0] - 1][J[0] - 1]
        return read(J)

    def value(self, key) -> Num:
        """The value of the minor ``key`` = (I, J), computed and kept as
        ``stream`` computes and keeps it unless a read already has: exact,
        its integer over the product of the row scales of I."""
        v = self._known.get(key)
        if v is None:
            I, J = key
            v = self._known[key] = self._minor(self._reader(I), I, J)
        if self._scales is None:
            return v
        return Fraction(v, math.prod([self._scales[i] for i in key[0]])) if v else _ZERO

    def positive_order(self, k: int) -> int:
        """The largest p <= k such that every exact consecutive minor of
        orders 1..p is positive, and with it every minor of order <= p
        (Fekete); 0 in float, where a rounded minor proves nothing, with no
        layer built.  Layer r holds the consecutive r-minors, row
        i - 1 at column j - 1 the one on rows i.., columns j..: layer 1 is
        the integer entries, and past it, with M_0 = 1 (Desnanot-Jacobi;
        Dodgson 1866),

            M_r[i][j] = (M_(r-1)[i][j] M_(r-1)[i+1][j+1]
                         - M_(r-1)[i+1][j] M_(r-1)[i][j+1]) / M_(r-2)[i+1][j+1].

        Layer r is condensed only when every layer below it is positive, so
        each division is exact and by a positive minor.  The scan stops at
        the first layer that holds a minor <= 0, which stays condensed; a
        later call to a larger k resumes from the last layer."""
        if self._scales is None:
            return 0
        layers = self._layers
        if not layers:
            rows, cols = self.shape
            layers.append([[1] * (cols + 1)] * (rows + 1))
        while len(layers) - 1 == self._positive < k:
            layer = ([row[1:] for row in self._rows[1:]] if len(layers) == 1
                     else _condense(layers[-1], layers[-2]))
            layers.append(layer)
            if min(map(min, layer)) > 0:
                self._positive += 1
        return min(self._positive, k)

    def rank(self, tol: float = DEFAULT_TOL, cols=None) -> int:
        """Rank of the matrix, or of its columns ``cols``; float pivots must
        exceed ``tol``.  Exact rows are eliminated as integers, which leaves
        the rank unchanged."""
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
                    value = known[key] = self._minor(read, I, J)
                yield key, value


def _condense(above: list[list[int]], below: list[list[int]]) -> list[list[int]]:
    """The layer of consecutive r-minors from ``above``, the (r-1)-minors,
    and ``below``, the (r-2)-minors, by Desnanot-Jacobi
    (``Minors.positive_order``); every divisor, an interior entry of
    ``below``, must be nonzero."""
    return [[(a * d - b * c) // e for a, b, c, d, e in zip(top, top[1:], nxt, nxt[1:], mid[1:])]
            for top, nxt, mid in zip(above, above[1:], below[1:])]


def compound(X: Matrix, r: int) -> Matrix:
    """r-th multiplicative compound: all r-minors in lexicographic order.

    Computed minor by minor, nothing kept, by the row readers of ``Minors``
    that the lazy sign checks read as well; at desk scale C(n,r)^2 small
    determinants are cheap.  Exact row I is its Bareiss integers over the
    product of I's row scales (``Matrix._of_ints``): no ``Fraction`` is built.
    An exact diagonal X runs no elimination: row I of C_r(X) is
    prod(ints[i][i]) at column I over prod(dens[i]), i in I, the integers
    Bareiss gives.  A float diagonal is eliminated: a float product and a
    pivoted determinant may differ in the sign of a zero.
    """
    if not 1 <= r <= min(X.rows, X.cols):
        raise RankOutOfRangeError(f"compound order {r} invalid for shape {X.shape}")
    col_sets, row_sets = index_sets(X.cols, r), index_sets(X.rows, r)
    if _is_diagonal(X):
        rows = [[0] * len(row_sets) for _ in row_sets]
        for k, I in enumerate(row_sets):
            rows[k][k] = math.prod([X.ints[i - 1][i - 1] for i in I])
    else:
        minors = Minors(X)
        rows = [list(map(minors._reader(I), col_sets)) for I in row_sets]
        if X.backend is Backend.FLOAT:
            return Matrix(rows, Backend.FLOAT)
    return Matrix._of_ints([math.prod([X.dens[i - 1] for i in I]) for I in row_sets], rows)


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
