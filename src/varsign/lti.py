"""Discrete-time LTI systems: impulse responses, observability matrices,
ordered spectra, and external-positivity verdicts with a dominant-mode tail
certificate.  Both backends sample g(t) = c A^(t-1) b as one dot product of
b with the output row c A^(t-1) (``Pair``); with a shift s, the
response of (A, A^s b, c) is read from row t + s on, so A^s b is never
formed (``impulse_response``, ``analyse``).  An exact pair (A, c) becomes
integers in one place, ``Pair``: the integer rows of A (``Matrix.ints``
over ``Matrix.dens``) are brought once to the lcm D_A of their scales,
M = D_A A, and c is lifted to D_c c over the lcm of its denominators
(``linalg.lift``), as b is to D_b b once per system.  So exact samples stay
integer numerators over the known denominators
D_b D_c D_A^(t-1) (``ExactSamples``): signs and the recurrence fit read the
numerators, and a ``Fraction`` is built only to show a value.  Every exact
tail rung reads M, D_c c and D_b b only.  Exact sums run over the nonzero
products only: each output row is the one before times the nonzero entries
of each column of M, and each sample its row times the nonzero entries of
D_b b, so a diagonal or sparse A and a sparse input cost one product per
nonzero entry.  Float sums keep every product (``Pair``).

A verdict separates two kinds of evidence: the sampled impulse response over
a finite horizon, and an analytic tail bound.  The bound establishes the
sign of every sample beyond ``tail_start``, which makes a finite sample
check conclusive.  ``analyse`` gathers both once per system; samples that
carry both strict signs refute every requirement, so they end the sampling
at the later of their first positive and first negative sample and need no
tail.  ``judge`` reads a strict or a non-strict verdict off the analysis.
The systems on one pair (A, c) differ only in b and share one ``Pair``: the
output rows, grown as far as their samples reach, the sign pattern, the
diagonal and the real simple spectrum of an exact A, and the
eigen-decomposition (``dominant_modes``).

The tail comes from one ladder.  A proof (``_proved_tail``) rests on the
sign pattern of an exact A, else its exact diagonal modes, else its exact
real modes.  Otherwise the tail rests on the samples (``_sampled_tail``):
the floating-point eigen tail, else in exact mode the eigen tail of the
minimal-recurrence reduction that the samples fit.  A standalone
``analyse`` and an operator's context take the same ladder.

An exact system can be proved one-signed by the sign pattern of A alone
(``_sign_pattern``, ``_pattern_proof``).  Let a signature S = diag(+-1)
make P = S A S >= 0 entrywise.  Then g(t) = (c S) P^(t-1) (S b) is a sum of
walk terms (c S)_i P_(i i1) .. P_(i(t-2) j) (S b)_j, and a walk stays in one
connected block of the pattern.  If c S and S b each have one sign on every
block that a walk joins, with one product sign over those blocks, every
term has that sign: g(t) is 0 or of that sign for every t, and g(t) != 0
exactly when some walk of length t - 1 joins supp(c) to supp(b).  The walk
sets supp(c) P^m are eventually periodic, so one preperiod and one period
decide every zero (Berman & Plemmons, Nonnegative Matrices in the
Mathematical Sciences, 1994, ch. 2).  No sample and no eigen-solve enters
the proof: ``analyse`` gives such a system a tail from t = 1 and takes only
the samples its verdicts read.

An exact system whose A is diagonal, M = diag(m) whatever the signs of m
(``Pair.diagonal``), may take an exact modal tail instead (``_modal_tail``,
tried only when the sign pattern proves nothing): its modes mu_i are the
diagonal entries m_i / D_A and its residues rho_i = c_i b_i mu_i^shift,
those of equal modes merged and the zero ones dropped.  With one positive
dominant mode M and -M inactive, the dominant-root bound (Ouaknine &
Worrell, SODA 2014) becomes the integer inequality
sum_(i != 1) |rho_i| |mu_i|^(t-1) < |rho_1| M^(t-1), whose least solution is
the tail start; ``analyse`` then holds the samples up to that start, or the
lead samples, and no more.

An exact system on any other A whose M = D_A A has N real simple eigenvalues
may take an exact real-mode tail (``_real_mode_tail``), the same inequality
decided on enclosures.  Once per pair (``Pair.real_spectrum``),
``realroots.real_spectrum`` finds the characteristic polynomial p of M
division-free, shows that its N roots are real and simple, and isolates each
in a dyadic interval: Newton's float approximations propose the intervals,
and exact signs of p at their ends prove them (where they do not, the rung
proves nothing).  Per system, the first N sample numerators give the
numerator q of the response's generating function; the roots of gcd(p, q)
are the inactive modes, and interval Horner at the intervals' integer ends
encloses each residue q(mu_i) / p'(mu_i).  The intervals are bisected until
the enclosures prove the least start, all in integers.  Such an analysis
holds the samples up to its start, the lead samples or the first ten,
whichever is last.

numpy is imported inside the eigen routes, so a run that takes none of them
never loads it: an exact system that the ladder proves takes none, a
standalone ``external_positivity`` included, nor does one whose samples
carry both strict signs.  Every eigen tail, a 1 x 1 system's included, comes
from one numpy ``eig`` (``dominant_modes``).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, reduce
from operator import add, itemgetter, mul

from .linalg import (
    DEFAULT_TOL,
    Backend,
    LinalgError,
    Matrix,
    Num,
    NonSquareError,
    SizeMismatchError,
    _is_diagonal,
    lift,
    parse_scalar,
    sign_of,
)
from .realroots import RealSpectrum, abs_bounds, enclose, poly_gcd, real_spectrum


class EigenSolveFailedError(LinalgError):
    pass


@dataclass(frozen=True)
class LtiSystem:
    """State-space triple (A, b, c): x(t+1) = A x(t) + b u(t), y = c x."""

    A: Matrix
    b: tuple[Num, ...]
    c: tuple[Num, ...]

    def __post_init__(self):
        if not self.A.is_square():
            raise NonSquareError("state matrix must be square")
        n = self.A.rows
        b = tuple(parse_scalar(x, self.A.backend) for x in self.b)
        c = tuple(parse_scalar(x, self.A.backend) for x in self.c)
        if len(b) != n or len(c) != n:
            raise SizeMismatchError("b and c must have the state dimension")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def backend(self) -> Backend:
        return self.A.backend

    @cached_property
    def _lifted_b(self) -> tuple[int, tuple[int, ...], Callable[[Sequence[int]], int]]:
        """(D_b, D_b b, w -> w (D_b b)) of an exact system (``_sparse_dot``),
        lifted once however many blocks ``impulse_response`` samples it in."""
        db, b = lift(self.b)
        return db, b, _sparse_dot(b)


def _sparse_dot(x: Sequence[int]) -> Callable[[Sequence[int]], int]:
    """w -> the integer dot product w x, summed over the nonzero entries of x
    only: integer sums do not depend on the terms left out, which are 0."""
    idx = [i for i, v in enumerate(x) if v]
    vals = [x[i] for i in idx]
    if len(idx) > 1:
        get = itemgetter(*idx)
        return lambda w: sum(map(mul, get(w), vals))
    if idx:
        (i,), (v,) = idx, vals
        return lambda w: w[i] * v
    return lambda w: 0


def default_horizon(n: int) -> int:
    return max(50, 10 * n)


_SQUARE = "c must have the state dimension of a square A"


class Pair:
    """What the systems on one pair (A, c) share, whatever their input b.

    The output rows ``rows``, grown on demand: ``extend`` appends rows in
    place, and never rebuilds the earlier ones nor scales A again.  Each row
    is the one before times A.  Float rows are c A^(t-1), each entry summed
    left to right from 0 over every product, as a float sample is
    (``impulse_response``), and ``dens`` is None.  An exact pair becomes
    integers here and nowhere else: with D_A the lcm of the row scales of A
    (``Matrix.dens``), which is that of the denominators of its entries, the
    constructor builds the integer rows of M = D_A A once (``_M``), and with
    D_c that of c (``lift``), ``rows[t-1]`` is w_t = (D_c c) M^(t-1) and
    ``dens[t-1]`` is D_c D_A^(t-1), so that c A^(t-1) = w_t / dens[t-1].  An
    exact entry sums only the products with the nonzero entries of its
    column of M, which integer sums allow: a diagonal A costs one product
    per entry.

    The other parts are built from M the first time they are read: the
    signature of an exact A (``pattern``, ``_sign_pattern``), the diagonal
    of M when A is diagonal (``diagonal``) and the real simple spectrum of
    M with its root intervals (``real_spectrum``,
    ``realroots.real_spectrum``), each None in float or where A has none;
    and the eigen-decomposition under ``tol`` (``modes``,
    ``dominant_modes``).
    """

    def __init__(self, A: Matrix, c: Sequence[Num], tol: float = DEFAULT_TOL):
        c = tuple(parse_scalar(x, A.backend) for x in c)
        if len(c) != A.cols:
            raise SizeMismatchError(_SQUARE)
        self.A, self.c, self.tol = A, c, tol
        # _cols: the columns of A, or when exact the products with those of
        # M (``_sparse_dot``); None when A is not square
        if A.backend is Backend.FLOAT:
            cols, w, self.dens = list(zip(*A.data)), c, None
        else:
            self._step = dA = math.lcm(*A.dens)
            self._M = [[x * (dA // d) for x in row] for d, row in zip(A.dens, A.ints)]
            dc, w = lift(c)
            cols = [_sparse_dot(col) for col in zip(*self._M)]
            self.dens = [dc]
        self.rows, self._cols = [w], cols if A.is_square() else None

    def extend(self, N: int) -> Pair:
        """Grow to at least N rows; the one place c A^(t-1) is computed."""
        rows, cols, dens = self.rows, self._cols, self.dens
        if len(rows) < N and cols is None:
            raise SizeMismatchError(_SQUARE)
        while len(rows) < N:
            w = rows[-1]
            if dens is None:
                rows.append(tuple(reduce(add, map(mul, w, col), 0) for col in cols))
            else:
                rows.append(tuple([dot(w) for dot in cols]))
                dens.append(dens[-1] * self._step)
        return self

    @cached_property
    def pattern(self) -> _SignPattern | None:
        return _sign_pattern(self._M) if self.A.backend is Backend.EXACT else None

    @cached_property
    def diagonal(self) -> tuple[int, ...] | None:
        return tuple(row[i] for i, row in enumerate(self._M)) if _is_diagonal(self.A) else None

    @cached_property
    def real_spectrum(self) -> RealSpectrum | None:
        return real_spectrum(self._M) if self.A.backend is Backend.EXACT else None

    @cached_property
    def modes(self) -> DominantModes:
        return dominant_modes(self.A, self.c, self.tol)


def output_rows(A: Matrix, c: Sequence[Num], N: int) -> Pair:
    """The pair (A, c) with its rows w_1..w_N, extendable past N (``Pair``)."""
    if N < 1:
        raise ValueError("horizon must be >= 1")
    return Pair(A, c).extend(N)


class ExactSamples(Sequence):
    """Samples g(t) = nums[t-1] / (D_b dens[t-1]), nums[t-1] = w_(t+s) (D_b b)
    and dens[t-1] = D_c D_A^(t-1+s) for samples read s rows late
    (``Pair``, ``impulse_response``; ``dens`` may run past nums),
    so each numerator has its sample's sign.  Items, slices and iteration
    give the reduced Fractions, and the sequence equals the tuple of them."""

    __slots__ = ("nums", "db", "dens")

    def __init__(self, nums: tuple[int, ...], db: int, dens: tuple[int, ...]):
        self.nums, self.db, self.dens = nums, db, dens

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self.nums))))
        return Fraction(self.nums[i], self.db * self.dens[i % len(self.nums)])

    def __iter__(self):
        return map(Fraction, self.nums, (self.db * den for den in self.dens))

    def __eq__(self, other):
        return tuple(self) == (tuple(other) if isinstance(other, ExactSamples) else other)


def impulse_response(sys: LtiSystem, N: int, pair: Pair | None = None,
                     start: int = 0, shift: int = 0) -> ExactSamples | tuple[float, ...]:
    """Samples g(start+1)..g(N) of g(t) = c A^(t-1+shift) b, the impulse
    response of (A, A^shift b, c): sample t is one dot product of b with
    output row t + shift of (A, c) (``Pair``; ``pair`` passes one built
    earlier for the same A, c, whose rows are extended to N + shift in
    place).  So A^shift b is never formed.

    A float sample is summed left to right from integer 0 over every product
    (``sum`` compensates float sums from Python 3.12 on), so -0.0 comes out
    as 0.0, and an inf entry of the row times a zero of b gives nan.
    An exact sample is kept as its integer numerator (``ExactSamples``): with
    D_b the lcm of the denominators of b, g(t) = w_(t+shift) (D_b b) /
    (D_b D_c D_A^(t-1+shift)), the numerator summed over the nonzero entries
    of D_b b only; D_b b and its support are computed once per system.
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    end = N + shift
    pair = (pair or Pair(sys.A, sys.c)).extend(end)
    window = pair.rows[start + shift:end]
    if sys.backend is Backend.FLOAT:
        return tuple(reduce(add, map(mul, w, sys.b), 0) for w in window)
    db, _, dot = sys._lifted_b
    return ExactSamples(tuple(map(dot, window)), db, pair.dens[start + shift:end])


def observability_matrix(A: Matrix, c: Sequence[Num], t: int) -> Matrix:
    """t x n matrix whose i-th row is c A^(i-1): the ``output_rows`` of (A, c),
    exact ones kept as integer rows over their denominators."""
    out = output_rows(A, c, t)
    if out.dens is None:
        return Matrix(out.rows, A.backend)
    return Matrix._of_ints(out.dens, out.rows)


def _order_spectrum(values, tie_tol: float) -> list[int]:
    """Indices of ``values`` by descending modulus, then descending real part,
    then descending imaginary part.  Moduli within a tolerance band of a
    band's largest compare equal, so that e.g. |1| and |e^{i theta}| do; with
    ``tie_tol`` 0 only equal moduli tie."""
    order = sorted(range(len(values)), key=lambda i: -abs(values[i]))
    out = []
    i = 0
    while i < len(order):
        j = i + 1
        ref = abs(values[order[i]])
        while j < len(order) and ref - abs(values[order[j]]) <= tie_tol * max(1.0, ref):
            j += 1
        out.extend(sorted(order[i:j], key=lambda m: (-values[m].real, -values[m].imag)))
        i = j
    return out


def real_positive(lam: complex, tol: float) -> bool:
    """Whether lam is decisively real and positive under ``tol``."""
    return abs(lam.imag) <= tol * max(1.0, abs(lam)) and lam.real > tol


def eigen_sorted(A: Matrix, tie_tol: float = 1e-8) -> tuple[complex, ...]:
    """Full spectrum in ``_order_spectrum``'s order (float computation)."""
    import numpy as np

    if not A.is_square():
        raise NonSquareError("eigenvalues need a square matrix")
    try:
        vals = np.linalg.eigvals(np.array(A.to_float().data, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise EigenSolveFailedError(str(exc)) from exc
    vals = [complex(v) for v in vals]
    return tuple(vals[i] for i in _order_spectrum(vals, tie_tol))


class ExtPosStatus(Enum):
    STRICT_POSITIVE = "strictly positive"
    STRICT_NEGATIVE = "strictly negative"
    NONNEGATIVE = "nonnegative"
    NONPOSITIVE = "nonpositive"
    VIOLATED = "violated"
    HORIZON_ONLY = "verified up to horizon only"


_STATUS_SIGN = {
    ExtPosStatus.STRICT_POSITIVE: 1,
    ExtPosStatus.NONNEGATIVE: 1,
    ExtPosStatus.STRICT_NEGATIVE: -1,
    ExtPosStatus.NONPOSITIVE: -1,
}


@dataclass(frozen=True)
class TailCertificate:
    """Every g(t), t >= start, has the sign ``sign``.  An eigen tail
    (``dominant_tail``, the minimal-recurrence route's included) carries the
    moduli of its bound: |rho| * (dominant/subdominant)^(t-1) > residual_sum
    for all t >= start, the left side increasing in t, so checking the
    inequality at ``start`` settles the tail.  A sign-pattern tail
    (``_pattern_proof``: every g(t) is 0 or has its sign, from 1 on) and an
    exact modal tail (``_modal_tail``: its own integer inequality) rest on
    no modulus and carry none.
    """

    start: int
    sign: int
    dominant: float | None = None
    subdominant: float | None = None
    residue: float | None = None
    residual_sum: float | None = None

    def margin(self, t: int) -> float | None:
        """The eigen bound's slack at t over (dominant/subdominant)^(t-1),
        |rho| - residual_sum (subdominant/dominant)^(t-1): of the slack's sign,
        finite and rising in t.  None for a tail without moduli."""
        if self.dominant is None:
            return None
        return abs(self.residue) - self.residual_sum * (self.subdominant / self.dominant) ** (t - 1)


@dataclass(frozen=True)
class DominantModes:
    """One float eigen-decomposition of a state matrix A, with the output
    row c, shared by every input b of the pair (A, c).

    ``note`` is set when no input can have an eigen tail and says why;
    otherwise ``V`` holds the eigenvectors, ``y`` = c V, ``lam`` the
    eigenvalues, ``lead`` the index of the dominant eigenvalue ``lam1`` and
    ``sub`` the largest modulus below it, at every order, 1 x 1 included.
    """

    note: str
    V: np.ndarray | None = None
    y: np.ndarray | None = None
    lam: np.ndarray | None = None
    lead: int = 0
    lam1: complex = 0j
    sub: float = 0.0


def dominant_modes(A: Matrix, c: Sequence[Num], tol: float = DEFAULT_TOL) -> DominantModes:
    """The decomposition ``dominant_tail`` needs, up to the input vector:
    numpy's ``eig`` of A, gated by a decisively real positive dominant
    eigenvalue and a modulus gap below it, or the note of the first gate
    that fails."""
    try:
        Af = A.to_float().data
        cf = [float(x) for x in c]
    except OverflowError:
        return DominantModes("state matrix or output row exceeds float range; no eigen tail")
    import numpy as np

    try:
        lam, V = np.linalg.eig(np.array(Af, dtype=float))
    except np.linalg.LinAlgError as exc:
        return DominantModes(f"eigen-decomposition failed: {exc}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan reach the gates' notes
        y = np.array(cf, dtype=complex) @ V
    order = _order_spectrum(lam, 0.0)
    lam1 = lam[order[0]]
    if not real_positive(lam1, tol):
        return DominantModes("dominant eigenvalue is not decisively real positive")
    sub = max((abs(lam[i]) for i in order[1:]), default=0.0)
    if abs(lam1) - sub <= tol * max(1.0, abs(lam1)):
        return DominantModes("no modulus gap below the dominant eigenvalue (repeated or defective)")
    return DominantModes("", V, y, lam, order[0], lam1, sub)


def dominant_tail(sys: LtiSystem, tol: float = DEFAULT_TOL,
                  modes: DominantModes | None = None,
                  shift: int = 0) -> tuple[TailCertificate | None, str]:
    """Tail certificate from a simple, real, positive dominant eigenvalue.

    Returns (certificate, note); the note explains a missing certificate.
    Requires a strict modulus gap (which excludes defective dominant
    eigenvalues) and a decisively nonzero dominant residue c v w b.
    ``modes`` passes ``dominant_modes(sys.A, sys.c, tol)`` built earlier,
    so that only the residues are solved for here.  With ``shift`` the
    certificate is that of (A, A^shift b, c), whose samples
    ``impulse_response(sys, N, shift=shift)`` reads: the residues of b are
    scaled by lam^shift, which gives the residues of A^shift b.
    """
    if modes is None:
        modes = dominant_modes(sys.A, sys.c, tol)
    if modes.note:
        return None, modes.note
    try:
        bf = [float(x) for x in sys.b]
    except OverflowError:
        return None, "input vector exceeds float range; no eigen tail"
    import numpy as np

    try:
        x = np.linalg.solve(modes.V, np.array(bf, dtype=complex))
    except np.linalg.LinAlgError:
        return None, "eigenvector matrix is singular to working precision"
    if shift:
        # lam^shift past the float range gives inf and nan residues, which
        # ``_tail_certificate`` turns into its note
        with np.errstate(over="ignore", invalid="ignore"):
            x = x * modes.lam ** shift
    residues = modes.y * x
    return _tail_certificate(residues[modes.lead], float(np.abs(residues).sum()), modes, tol)


def _tail_certificate(rho1, scale: float, modes: DominantModes,
                      tol: float) -> tuple[TailCertificate | None, str]:
    """The certificate of dominant residue ``rho1`` against the residues'
    total modulus ``scale``, or the note of the gate it fails."""
    if not math.isfinite(scale):  # lam^shift overflowed, or c b did
        return None, "residues exceed float range; no eigen tail"
    if rho1 == 0:  # an inactive mode: c or b has no component along it
        return None, "dominant mode has zero residue"
    if abs(rho1) <= tol * max(1.0, scale):
        return None, "dominant mode has negligible residue (unobservable or uncontrollable)"
    rest = scale - abs(rho1)
    sign = 1 if rho1.real > 0 else -1
    lam1, sub = modes.lam1, modes.sub
    # safety factor absorbs eigen-solver rounding in the bound itself
    guard = 1.0 + 1e-9
    ratio = abs(lam1) / sub if sub else math.inf
    if abs(rho1) > rest * guard:
        start = 1
    else:
        start = 1 + max(1, math.ceil(math.log(rest * guard / abs(rho1)) / math.log(ratio)))
    while abs(rho1) * ratio ** (start - 1) <= rest * guard:
        start += 1
        if start > 100_000:
            return None, "tail bound does not clear the residual sum in reasonable time"
    return TailCertificate(start, sign, float(abs(lam1)), float(sub), float(abs(rho1)), float(rest)), ""


def _solve_exact_consistent(u: Sequence[int]) -> list[int]:
    """Berlekamp–Massey, fraction-free: the shortest C = [C_0 != 0, .., C_L]
    with sum_j C_j u[t-j] = 0 for L <= t < len(u) (C_L may be 0).  An update
    scales C by the discrepancy b of the saved B instead of dividing by it,
    C stays primitive, and m + len(B) is the length after each update.
    (``perfbench/tracing.py`` counts the calls of this name.)"""
    C, B, m, b = [1], [1], 1, 1
    for i in range(len(u)):
        L = len(C) - 1
        d = sum(map(mul, C, reversed(u[i - L:i + 1])))
        if d == 0:
            m += 1
            continue
        T = [b * x for x in C] + [0] * (m + len(B) - len(C))
        for j, y in enumerate(B, m):
            T[j] -= d * y
        B, b, m = (C, d, 1) if 2 * L <= i else (B, b, m + 1)
        g = math.gcd(*T)
        C = [x // g for x in T]
    return C


def _recurrence(sys: LtiSystem, samples: ExactSamples) -> tuple[list[int], int]:
    """(C, L): the Berlekamp–Massey recurrence of ``minimal_recurrence_system``
    and its order L (L = 1 when the samples read are 0)."""
    C = _solve_exact_consistent(samples.nums[:2 * sys.n]) + [0]  # [1, 0]: g = 0
    return C, max(len(C) - 2, 1)


def minimal_recurrence_system(sys: LtiSystem, samples: ExactSamples) -> LtiSystem | None:
    """Exact reduced realization of the impulse response ``samples`` of sys.

    One Berlekamp–Massey pass over the first min(H, 2n) numerators (which
    obey the recurrence of D_A A) finds the minimal L of g(t+L) = sum_i a_i
    g(t+i) (L = 1, a = 0 when g = 0); the order-L companion realization,
    b = g(1..L), is returned when H >= n + L.  g and each q(S)g obey the
    order-n recurrence of A, so L <= n and a recurrence holding on n
    consecutive t holds for all t; recurrences of orders L' and L agreeing on
    L + L' <= n + L' samples agree for all t, so the pass finds the minimal
    L.  The fit of d = 1..n on the first n rows, inconsistent for d < L,
    reached L exactly when H >= n + L, where the Hankel block [g(i+j)] is
    nonsingular (g = 0 aside): same rule, same unique a.  Companion modes
    are the active ones, which unblocks the dominance analysis when an
    inactive mode dominates.  Exact backend only.
    """
    if sys.backend is not Backend.EXACT:
        return None
    C, L = _recurrence(sys, samples)
    if len(samples) < sys.n + L:
        return None
    scale = samples.dens[1] // samples.dens[0]
    comp = [[Fraction(j == i + 1) for j in range(L)] for i in range(L - 1)]
    comp.append([Fraction(-C[L - i], C[0] * scale ** (L - i)) for i in range(L)])
    return LtiSystem(Matrix(comp, Backend.EXACT), samples[:L],
                     tuple(Fraction(i == 0) for i in range(L)))


@dataclass(frozen=True)
class _SignPattern:
    """A signature S = diag(``signs``) of an exact A with S A S >= 0, the
    connected block of each index in the off-diagonal pattern of A (named
    by its first index), and the successors of each index i in the digraph
    of S A S, as a bit mask of the j with A_ij != 0."""

    signs: tuple[int, ...]
    blocks: tuple[int, ...]
    succ: tuple[int, ...]


def _sign_pattern(M: list[list[int]]) -> _SignPattern | None:
    """The signature of an exact square A, read off M = D_A A (``Pair``),
    whose signs are those of A, or None when a diagonal entry is negative or
    the off-diagonal pattern cannot be 2-coloured: S A S >= 0 asks
    s_i s_j = sign A_ij of each nonzero A_ij off the diagonal, and A_ii >= 0.
    Each block is coloured from its first index, which gets +1, so S is
    unique up to the sign of each block."""
    n = len(M)
    sgn = [[(x > 0) - (x < 0) for x in row] for row in M]
    if any(sgn[i][i] < 0 for i in range(n)):
        return None
    edges = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and sgn[i][j]:
                edges[i].append((j, sgn[i][j]))
                edges[j].append((i, sgn[i][j]))
    signs, blocks = [0] * n, [0] * n
    for root in range(n):
        if signs[root]:
            continue
        signs[root], blocks[root], stack = 1, root, [root]
        while stack:
            i = stack.pop()
            for j, e in edges[i]:
                if not signs[j]:
                    signs[j], blocks[j] = signs[i] * e, root
                    stack.append(j)
                elif signs[j] != signs[i] * e:
                    return None
    succ = tuple(sum(1 << j for j in range(n) if sgn[i][j]) for i in range(n))
    return _SignPattern(tuple(signs), tuple(blocks), succ)


@dataclass(frozen=True)
class _PatternProof:
    """Every g(t) is 0 or has ``sign``; g(t) != 0 exactly when
    ``nonzero[t-1]`` for t <= len(nonzero), and from t = pre + 1 on that
    pattern repeats with period len(nonzero) - pre."""

    sign: int
    pre: int
    nonzero: tuple[bool, ...]


def _block_signs(x: Sequence[int], pattern: _SignPattern) -> dict[int, int] | None:
    """Block -> the one sign of the nonzero entries of S x on it, x integer,
    or None when a block carries both signs."""
    out = {}
    for xi, si, block in zip(x, pattern.signs, pattern.blocks):
        if xi:
            e = si if xi > 0 else -si
            if out.setdefault(block, e) != e:
                return None
    return out


def _walk(reach: int, succ: tuple[int, ...]) -> int:
    """The ends of the one-step walks from the set ``reach`` (bit masks)."""
    out = 0
    while reach:
        low = reach & -reach
        out |= succ[low.bit_length() - 1]
        reach ^= low
    return out


def _pattern_proof(pair: Pair, sys: LtiSystem, shift: int,
                   horizon: int) -> _PatternProof | None:
    """The sign-pattern proof of the exact system (A, A^shift b, c) on the
    ``pair`` (A, c), A with the signature ``pair.pattern``, or None.

    With P = S A S >= 0, g(t) = (c S) P^m (S b), m = t - 1 + shift, is a sum
    of walk terms (c S)_i P_(i i1) .. P_(i(m-1) j) (S b)_j, and a walk stays
    in one block.  When c S and S b each have one sign on every block that a
    walk from supp(c) to supp(b) joins, with one product sign over those
    blocks, every nonzero term has that sign and none cancels another: g(t)
    is 0 or of that sign, and g(t) != 0 exactly when some walk of length m
    joins supp(c) to supp(b).  The walk sets supp(c) P^m are followed from
    m = shift on until one repeats, which gives the zero pattern for every
    t.  None when c S or S b has both signs on one block, the product signs
    differ, no walk ever joins the supports (g = 0), or the walk sets do not
    repeat within ``horizon`` steps.  D_c c is the pair's first row and D_b b
    the system's lift, of the signs of c and b.
    """
    pattern, c, b = pair.pattern, pair.rows[0], sys._lifted_b[1]
    c_signs, b_signs = _block_signs(c, pattern), _block_signs(b, pattern)
    if c_signs is None or b_signs is None:
        return None
    reach = sum(1 << i for i, x in enumerate(c) if x)
    target = sum(1 << j for j, x in enumerate(b) if x)
    for _ in range(shift):
        reach = _walk(reach, pattern.succ)
    seen, nonzero, joined = {}, [], 0
    while reach not in seen:
        if len(nonzero) == horizon:
            return None
        seen[reach] = len(nonzero)
        nonzero.append(bool(reach & target))
        joined |= reach & target
        reach = _walk(reach, pattern.succ)
    blocks = {pattern.blocks[j] for j in range(len(b)) if joined >> j & 1}
    products = {c_signs[block] * b_signs[block] for block in blocks}
    if len(products) != 1:
        return None
    return _PatternProof(products.pop(), seen[reach], tuple(nonzero))


def _modal_tail(pair: Pair, sys: LtiSystem, shift: int,
                horizon: int) -> TailCertificate | None:
    """The exact modal tail of (A, A^shift b, c) on the ``pair`` (A, c), A
    diagonal with D_A A = diag(m) (``pair.diagonal``), or None.

    g(t) = sum_i rho_i mu_i^(t-1), rho_i = c_i b_i mu_i^shift, mu_i = m_i / D_A.
    Up to one positive factor, rho_i is the integer (D_c c)_i (D_b b)_i m_i^shift;
    the residues of equal modes are merged and the zero ones dropped.  When
    one positive mode M has the largest modulus among the rest and -M is
    inactive, the tail starts at the least t <= horizon with
    sum_(i != 1) |rho_i| |m_i|^(t-1) < |rho_1| M^(t-1), in integers
    (``_least_start``, the real-mode tail's search too): from then on g(t)
    has the sign of rho_1, as the left side's ratio to the right only falls
    as t grows.  None without an active mode, with a dominant negative or
    +-M mode, or without a start within ``horizon``.  D_c c is the pair's
    first row and D_b b the system's lift."""
    m, c, b = pair.diagonal, pair.rows[0], sys._lifted_b[1]
    residues = {}
    for mi, ci, bi in zip(m, c, b):
        if ci and bi:
            residues[mi] = residues.get(mi, 0) + ci * bi * mi ** shift
    active = {mi: rho for mi, rho in residues.items() if rho}
    top = max(map(abs, active), default=0)
    if not top or top not in active or -top in active:
        return None
    rho1 = active.pop(top)
    start = _least_start([(abs(rho), abs(mi)) for mi, rho in active.items()],
                         [(abs(rho1), top)], horizon)
    return start and TailCertificate(start, 1 if rho1 > 0 else -1)


# The most levels a real-mode tail takes, one more bisection of every root
# interval each, and the levels past the first that proves a start at which
# it stops; the leading samples its analysis holds at least; and the most
# modes N it is tried on: the characteristic polynomial costs N^4/4 integer
# products, which past N = 20 (every order of n <= 6) outgrows sampling the
# order to the horizon (n = 7, r = 3: 0.17 s against about 0.02 s).
_LEVELS, _PAST_FIRST, _SHOWN, _MAX_MODES = 64, 20, 10, 20


def _real_mode_tail(pair: Pair, sys: LtiSystem, shift: int, horizon: int,
                    h: Sequence[int]) -> TailCertificate | None:
    """The exact real-mode tail of (A, A^shift b, c) on the exact ``pair``
    (A, c), or None.  M = D_A A must have a real simple spectrum
    (``pair.real_spectrum``).

    The first N numerators h_t (``ExactSamples``) are the impulse response of
    the integer system (M, M^shift D_b b, D_c c): each is its sample times
    the positive D_b D_c D_A^(t-1+shift).  So h_t = sum_j rho_j mu_j^(t-1)
    with rho_j = q(mu_j) / p'(mu_j), where q, the first N coefficients of p
    times h_1 + h_2 z + .., reads h_1..h_N only, and the roots of gcd(p, q)
    are the inactive modes (found only when one may dominate: any other
    keeps an enclosure of its residue 0 that only shrinks).  Interval Horner
    at the dyadic ends of a level's intervals encloses every rho_j, and
    ``_modal_tail``'s inequality
    sum_(j != 1) |rho_j| |mu_j|^(t-1) < |rho_1| mu_1^(t-1) is decided on the
    bounds, the common scales of both sides cancelling, once every other
    active |mu_j| is shown below the positive mu_1: from then on the left
    side's ratio to the right only falls.  The least t <= horizon that the
    bounds prove is the start once they show the inequality false at t - 1,
    or ``_PAST_FIRST`` levels after the first that proved one.  None when
    h_1..h_N carry both strict signs (the samples then end the analysis) or
    are all 0, when the spectrum is not real and simple, without a positive
    dominant active mode, with -mu_1 active, or without a start within
    ``horizon``.
    """
    N = sys.n
    if not any(h) or (max(h) > 0 and min(h) < 0) or (spec := pair.real_spectrum) is None:
        return None
    p = spec.p
    q = [sum(map(mul, p[:m + 1], h[m::-1])) for m in range(N)]
    K, roots = spec.level(0)
    qs = dict(enumerate(enclose(q, lo, hi, K) for lo, hi in roots))
    active, reduced, first = list(range(N)), False, None
    for L in range(_LEVELS):
        if L:
            K, roots = spec.level(L)
            qs = {j: enclose(q, *roots[j], K) for j in active}
        mods, dps = spec.bounds(L)
        one, rest = active[0], active[1:]
        lo1, hi1 = roots[one]
        if hi1 <= 0 or any(mods[j][0] >= hi1 for j in rest) or qs[one][0] <= 0 <= qs[one][1]:
            if not reduced:
                # inactive modes, the roots of gcd(p, q), may stand in the way;
                # any other stays with a residue bound that only shrinks
                zeros, reduced = spec.zeros_of(poly_gcd(p, q)), True
                active = [j for j in active if j not in zeros]
                one, rest = active[0], active[1:]
                lo1, hi1 = roots[one]
            if hi1 <= 0 or any(mods[j][0] >= hi1 for j in rest):
                return None  # a zero, negative or -mu_1 mode dominates, or ties mu_1
        if (lo1 <= 0 or any(mods[j][1] >= lo1 for j in rest) or qs[one][0] <= 0 <= qs[one][1]
                or any(not dps[j][0] for j in active)):
            continue
        # |rho_j| lies in [Q_lo / P_hi, Q_hi / P_lo]; each bound is rounded
        # outward to a multiple of 2^-e, keeping 40 bits or more, so that both
        # sides are sums of terms (integer coefficient, |mu| bound)
        Q = {j: abs_bounds(*qs[j]) for j in active}
        e = max([40 + dps[j][1].bit_length() - Q[j][1].bit_length() for j in active] + [0])
        R = {j: _outward(*Q[j], *dps[j], e) for j in active}
        rest_hi = [(R[j][1], mods[j][1]) for j in rest]
        rest_lo = [(R[j][0], mods[j][0]) for j in rest]
        one_lo, one_hi = [(R[one][0], lo1)], [(R[one][1], hi1)]
        start = _least_start(rest_hi, one_lo, horizon)
        # the inequality shown false at t is false at every earlier t
        if start is None:
            if _side(rest_lo, horizon) >= _side(one_hi, horizon):
                return None
            continue
        first = L if first is None else first
        if (start == 1 or _side(rest_lo, start - 1) >= _side(one_hi, start - 1)
                or L >= first + _PAST_FIRST):
            # p' has the sign (-1)^(j-1) at mu_j, the j-th largest root
            return TailCertificate(start, 1 if (qs[one][0] > 0) == (one % 2 == 0) else -1)
    return None


def _outward(q_lo: int, q_hi: int, p_lo: int, p_hi: int, e: int) -> tuple[int, int]:
    """Integers l <= 2^e q_lo / p_hi and h >= 2^e q_hi / p_lo (p_lo > 0):
    the bounds of a quotient q / p, scaled by 2^e and rounded outward."""
    return (q_lo << e) // p_hi, -((-q_hi << e) // p_lo)


def _side(terms: list[tuple[int, int]], t: int) -> int:
    """sum u m^(t-1) over the (u, m) of ``terms``."""
    return sum(u * m ** (t - 1) for u, m in terms)


def _least_start(rest: list[tuple[int, int]], one: list[tuple[int, int]],
                 horizon: int) -> int | None:
    """The least t <= horizon at which the dominant-root inequality
    ``_side(rest, t) < _side(one, t)`` holds, or None."""
    return next((t for t in range(1, horizon + 1) if _side(rest, t) < _side(one, t)), None)


@dataclass
class ExtPosVerdict:
    status: ExtPosStatus
    horizon: int
    samples: Sequence[Num]
    tail: TailCertificate | None = None
    first_violation: tuple[int, Num] | None = None
    notes: tuple[str, ...] = ()
    sample_sign: int | None = None  # strict sign carried by decisive samples

    @property
    def tail_start(self) -> int | None:
        return self.tail.start if self.tail else None

    @property
    def sign(self) -> int | None:
        return _STATUS_SIGN.get(self.status)


@dataclass(frozen=True)
class ExtPosAnalysis:
    """The costly, requirement-independent half of external positivity.

    Holds the samples g(1)..g(horizon), their sign classes (``sign_of``), the
    tail certificate (the route ``analyse`` takes; dropped when its sign
    disagrees with the decisive samples) and the notes explaining it.
    Samples of both strict signs already refute every requirement, so such
    an analysis stops at t_bad = max(first positive, first negative): it
    holds g(1)..g(t_bad) and their signs, no tail and no notes.  A system
    whose tail is proved holds g(1)..g(T), the samples its verdicts read
    (``analyse``).  ``judge`` turns one analysis into a strict or a
    non-strict verdict.
    """

    n: int
    backend: Backend
    horizon: int
    samples: Sequence[Num]
    signs: tuple[int | None, ...]
    tail: TailCertificate | None
    notes: tuple[str, ...]


# The first sampling block ends at t = _BLOCK and each later one at _BLOCK
# times the last end, or at the horizon.  Most systems that stop do so within
# the first block, and each block costs a fixed set-up, which a system sampled
# to the horizon pays once per block.
_BLOCK = 8


def analyse(sys: LtiSystem, horizon: int | None = None, tol: float = DEFAULT_TOL,
            pair: Pair | None = None, shift: int = 0, lead: int = 0) -> ExtPosAnalysis:
    """Sample the impulse response and, unless the samples carry both strict
    signs, certify its tail by the one ladder (module docstring).  ``pair``
    passes what the systems on (A, c) share, and is built when None.  With
    ``shift`` the system analysed is (A, A^shift b, c): its samples are read
    from output row t + shift on (``impulse_response``), every route's tail
    is that system's, and A^shift b is never formed.

    A proved tail (``_proved_tail``) needs no further sample, so the samples
    stop at T = min(horizon, max(the samples the proof names, ``lead``)): one
    period of a sign pattern's zero pattern, which shows the first nonzero
    sample and the first zero, if any, a modal tail's start, from which
    every sample is nonzero with its sign, or a real-mode tail's start or
    its first ten samples, whichever is later.  ``lead`` is the number of
    leading samples a requirement on the system reads, so no verdict read
    off the analysis changes with the samples it leaves out.

    Samples come in blocks ending at t = 8, 64, 512, ... or at the last
    sample, one ``impulse_response`` call each, past the first n samples
    when the real-mode rung has read them (``take``): each sample is
    computed once.  Once both strict signs have shown up the analysis stops
    at t_bad; every other unproved analysis (zero, identically zero or
    one-signed samples) runs to the horizon, since its verdict depends on
    the requirement or on the tail (``_sampled_tail``).  The output rows are
    extended only as far as the samples taken.
    """
    horizon = horizon if horizon is not None else default_horizon(sys.n)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    backend = sys.backend
    exact = backend is Backend.EXACT
    pair = pair or Pair(sys.A, sys.c, tol)
    values, signs = [], []

    def take(end: int) -> list[Num]:
        """g(1)..g(end), exact ones as numerators, sampling only past the last taken."""
        if end > len(values):
            block = impulse_response(sys, end, pair, len(values), shift)
            block = block.nums if exact else block
            values.extend(block)
            signs.extend([sign_of(x, backend, tol) for x in block])
        return values[:end]

    proved = _proved_tail(sys, pair, shift, horizon, take)
    last = min(horizon, max(proved[2], lead)) if proved else horizon
    end, both = 0, False
    while end < last and not both:
        end = min(last, _BLOCK * end or _BLOCK)
        take(end)
        both = 1 in signs and -1 in signs
    if both:
        last = max(signs.index(1), signs.index(-1)) + 1  # t_bad
    values, signs = tuple(values[:last]), tuple(signs[:last])
    g = ExactSamples(values, sys._lifted_b[0], pair.dens[shift:]) if exact else values
    if both:
        # samples of both strict signs settle every verdict; no tail is needed
        return ExtPosAnalysis(sys.n, backend, horizon, g, signs, None, ())
    tail, notes = proved[:2] if proved else _sampled_tail(sys, g, horizon, pair, shift)
    return ExtPosAnalysis(sys.n, backend, horizon, g, signs, tail, tuple(notes))


def _proved_tail(sys: LtiSystem, pair: Pair, shift: int, horizon: int,
                 head: Callable[[int], Sequence[int]],
                 ) -> tuple[TailCertificate, list[str], int] | None:
    """The tail of (A, A^shift b, c) that the sign pattern of A proves, else
    its exact diagonal modes, else its exact real modes, with its note and
    the samples the proof names (``analyse``); None when none proves one.
    ``head(N)`` gives the first N sample numerators, which the real-mode
    rung reads.
    A real-mode tail names its start or the first ``_SHOWN`` samples,
    whichever is later: its proof rests on root enclosures that no sample
    shows, so its trace keeps the leading stretch of the response that
    acceptance criterion 2 reads off example1.  The real-mode rung is not
    tried on a diagonal A, whose modal tail decides the same inequality, nor
    when A has more rows than the horizon has samples or ``_MAX_MODES``."""
    if pair.pattern is not None and (proof := _pattern_proof(pair, sys, shift, horizon)):
        zeros = ("no sample is 0" if all(proof.nonzero) else
                 f"its zeros repeat with period {len(proof.nonzero) - proof.pre} "
                 f"from t={proof.pre + 1}")
        note = f"tail by sign pattern: every sample is 0 or of sign {proof.sign:+d}; {zeros}"
        return TailCertificate(1, proof.sign), [note], len(proof.nonzero)
    if pair.diagonal is not None:
        if tail := _modal_tail(pair, sys, shift, horizon):
            note = (f"tail by exact diagonal modes: every sample from t={tail.start} on "
                    f"has sign {tail.sign:+d}")
            return tail, [note], tail.start
    elif sys.backend is Backend.EXACT and sys.n <= min(horizon, _MAX_MODES) and (
            tail := _real_mode_tail(pair, sys, shift, horizon, head(sys.n))):
        note = (f"tail by exact real modes: every sample from t={tail.start} on "
                f"has sign {tail.sign:+d}")
        return tail, [note], max(tail.start, _SHOWN)
    return None


def _sampled_tail(sys: LtiSystem, g: Sequence[Num], horizon: int, pair: Pair,
                  shift: int) -> tuple[TailCertificate | None, list[str]]:
    """The eigen tail of the system, else in exact mode the eigen tail of its
    minimal-recurrence reduction fitted to the samples ``g``, with the notes
    that say which route gave it or why none did.  The decisive samples
    drop the tail, with a note, when they carry one sign, other than the
    tail's, or when one at or after the tail's start has the other sign."""
    notes, exact = [], sys.backend is Backend.EXACT
    tail, tail_note = dominant_tail(sys, pair.tol, pair.modes, shift)
    if tail is None and exact:
        reduced = minimal_recurrence_system(sys, g)
        if reduced is not None:
            tail, note2 = dominant_tail(reduced, pair.tol)
            if tail is not None:
                tail_note = ""
                notes.append(
                    f"tail bound via exact minimal-recurrence reduction to order {reduced.n}")
            elif note2:
                tail_note = f"{tail_note}; after reduction to order {reduced.n}: {note2}"
        else:
            _, L = _recurrence(sys, g)
            tail_note = (f"{tail_note}; no recurrence fit: the horizon {horizon} is shorter "
                         f"than the n + L = {sys.n + L} samples it needs")
    if tail_note:
        notes.append(tail_note)
    if tail:
        signs = [sign_of(x, sys.backend, pair.tol) for x in (g.nums if exact else g)]
        if {s for s in signs if s} == {-tail.sign} or -tail.sign in signs[tail.start - 1:]:
            notes.append("tail certificate sign disagrees with decisive samples; tail discarded")
            tail = None
    return tail, notes


def judge(analysis: ExtPosAnalysis, strict: bool = True) -> ExtPosVerdict:
    """Classify the sign of the impulse response over all t >= 1.

    Samples cover t in 1..horizon; a tail certificate (when one exists)
    covers t >= tail_start analytically.  Exact samples are decided exactly;
    float samples inside the tolerance band are decisive for nothing, and are
    acceptable only where the tail bound already applies.  The verdict keeps
    the tail and the sample sign exactly when the decisive samples carry one
    strict sign.
    """
    horizon, g, signs, tail = analysis.horizon, analysis.samples, analysis.signs, analysis.tail
    exact = analysis.backend is Backend.EXACT
    notes = list(analysis.notes)
    first_pos = next((t for t, s in enumerate(signs, 1) if s == 1), None)
    first_neg = next((t for t, s in enumerate(signs, 1) if s == -1), None)
    sign = None if first_pos and first_neg else 1 if first_pos else -1 if first_neg else None
    suspects = tuple(t for t, s in enumerate(signs, 1) if s is None)
    zero_times = [t for t, s in enumerate(signs, 1) if s == 0]
    early = [t for t in suspects if tail is None or t < tail.start]
    violation = None

    if first_pos and first_neg:
        t_bad = max(first_pos, first_neg)
        status, violation = ExtPosStatus.VIOLATED, (t_bad, g[t_bad - 1])
        notes.append("samples of both strict signs")
    elif sign is None and exact and horizon >= analysis.n:
        # n consecutive zeros of the order-n recurrence force g identically zero
        status = ExtPosStatus.VIOLATED if strict else ExtPosStatus.NONNEGATIVE
        violation = (1, g[0]) if strict else None
        notes.append("impulse response is identically zero")
    elif sign is None:
        status = ExtPosStatus.HORIZON_ONLY
        notes.append("no decisive sample over the horizon")
    elif strict and zero_times:
        status, violation = ExtPosStatus.VIOLATED, (zero_times[0], g[zero_times[0] - 1])
        notes.append("zero sample under a strict requirement")
    elif strict and early:
        status = ExtPosStatus.HORIZON_ONLY
        notes.append(f"indeterminate sample at t={early[0]} not covered by a tail bound")
    else:
        # strict requirements get here only without zero or early samples
        if early:
            notes.append(f"samples inside tolerance at t={early[0]}; treated as zeros")
        if zero_times or early:
            status = ExtPosStatus.NONNEGATIVE if sign == 1 else ExtPosStatus.NONPOSITIVE
        else:
            status = ExtPosStatus.STRICT_POSITIVE if sign == 1 else ExtPosStatus.STRICT_NEGATIVE
        if tail is None or tail.start > horizon:
            if exact and not any(signs[-analysis.n:]):
                # n consecutive zeros of the order-n recurrence keep the tail zero
                notes.append("trailing zeros persist beyond the horizon "
                             "(impulse response obeys a linear recurrence of the system order)")
            else:
                if tail:
                    notes.append(f"tail bound starts at t={tail.start} beyond the horizon")
                status = ExtPosStatus.HORIZON_ONLY
    return ExtPosVerdict(status, horizon, g, tail if sign else None, violation, tuple(notes), sign)


def external_positivity(sys: LtiSystem, strict: bool = True, horizon: int | None = None,
                        tol: float = DEFAULT_TOL) -> ExtPosVerdict:
    """Strict or non-strict external-positivity verdict of one system."""
    return judge(analyse(sys, horizon, tol), strict)
