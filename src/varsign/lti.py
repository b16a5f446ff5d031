"""Discrete-time LTI systems: impulse responses, observability matrices,
ordered spectra, and external-positivity verdicts with a dominant-mode tail
certificate.  Exact samples stay integer numerators over the known
denominators D_b D_c D_A^(t-1) (``ExactSamples``): signs and the recurrence
fit read the numerators, and a ``Fraction`` is built only to show a value.

A verdict separates two kinds of evidence: the sampled impulse response over
a finite horizon, and an analytic tail bound derived from a floating-point
eigen-decomposition.  The bound establishes the sign of every sample beyond
``tail_start``, which makes a finite sample check conclusive.  ``analyse``
gathers both once per system, the tail only when the samples do not already
carry both strict signs (which refutes every requirement); ``judge`` reads a
strict or a non-strict verdict off the analysis.  Systems on one pair (A, c)
that differ only in b can share the exact output rows (``output_rows``) and
the eigen-decomposition (``dominant_modes``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Backend,
    LinalgError,
    Matrix,
    Num,
    NonSquareError,
    SizeMismatchError,
    parse_scalar,
    sign_of,
)


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


def default_horizon(n: int) -> int:
    return max(50, 10 * n)


@dataclass(frozen=True)
class OutputRows:
    """Integer output rows of one exact pair (A, c), shared by every input b.

    With D_A and D_c the lcm of the denominators of A and c, ``rows[t-1]``
    is the integer vector w_t = (D_c c)(D_A A)^(t-1) and ``dens[t-1]`` is
    D_c D_A^(t-1), so that c A^(t-1) = w_t / dens[t-1].
    """

    rows: tuple[tuple[int, ...], ...]
    dens: tuple[int, ...]


def output_rows(A: Matrix, c: Sequence[Fraction], N: int) -> OutputRows:
    """The rows w_1..w_N of an exact pair (A, c)."""
    if N < 1:
        raise ValueError("horizon must be >= 1")
    dA = math.lcm(*(x.denominator for row in A.data for x in row))
    dc = math.lcm(*(x.denominator for x in c))
    cols = list(zip(*([x.numerator * (dA // x.denominator) for x in row] for row in A.data)))
    w = tuple(x.numerator * (dc // x.denominator) for x in c)
    rows, dens = [w], [dc]
    for _ in range(N - 1):
        w = tuple(sum(map(mul, w, col)) for col in cols)
        rows.append(w)
        dens.append(dens[-1] * dA)
    return OutputRows(tuple(rows), tuple(dens))


class ExactSamples(Sequence):
    """Samples g(t) = nums[t-1] / (D_b dens[t-1]), nums[t-1] = w_t (D_b b) and
    dens[t-1] = D_c D_A^(t-1) (``OutputRows``; it may run past N), so each
    numerator has its sample's sign.  Items, slices and iteration give the
    reduced Fractions, and the sequence equals the tuple of them."""

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


def impulse_response(sys: LtiSystem, N: int,
                     rows: OutputRows | None = None) -> ExactSamples | tuple[float, ...]:
    """Samples g(1)..g(N) of g(t) = c A^(t-1) b.

    The exact backend reads them off the integer output rows of (A, c)
    (``output_rows``; ``rows`` passes ones built earlier for the same A, c
    and at least N samples): with D_b the lcm of the denominators of b,
    g(t) = w_t (D_b b) / (D_b D_c D_A^(t-1)), kept as the integer numerators
    (``ExactSamples``), one dot product per sample.  The float backend
    propagates the state.
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    if sys.backend is Backend.EXACT:
        if rows is None:
            rows = output_rows(sys.A, sys.c, N)
        elif len(rows.dens) < N:
            raise ValueError("output rows are shorter than the horizon")
        db = math.lcm(*(x.denominator for x in sys.b))
        b = [x.numerator * (db // x.denominator) for x in sys.b]
        return ExactSamples(tuple(sum(map(mul, w, b)) for w in rows.rows[:N]), db, rows.dens)
    x = sys.b
    out = []
    for _ in range(N):
        # left to right from integer 0, as sum() adds floats before Python
        # 3.12 (which compensates); -0.0 still comes out as 0.0
        y = 0
        for ci, xi in zip(sys.c, x):
            y = y + ci * xi
        out.append(y)
        x = sys.A.matvec(x)
    return tuple(out)


def observability_matrix(A: Matrix, c: Sequence[Num], t: int) -> Matrix:
    """t x n matrix whose i-th row is c A^(i-1)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    row = tuple(parse_scalar(x, A.backend) for x in c)
    if len(row) != A.cols:
        raise SizeMismatchError("c must have the state dimension")
    rows = [row]
    for _ in range(t - 1):
        row = A.vecmat(row)
        rows.append(row)
    return Matrix(rows, A.backend)


@dataclass(frozen=True)
class OrderedSpectrum:
    """Eigenvalues by descending modulus, then descending real part, then
    descending imaginary part; modulus ties are resolved within a tolerance
    band so that e.g. |1| and |e^{i theta}| compare equal."""

    eigenvalues: tuple[complex, ...]

    def __iter__(self):
        return iter(self.eigenvalues)

    def __len__(self):
        return len(self.eigenvalues)


def _order_spectrum(values, tie_tol: float) -> tuple[complex, ...]:
    vals = sorted(values, key=lambda l: -abs(l))
    out = []
    i = 0
    while i < len(vals):
        j = i + 1
        ref = abs(vals[i])
        while j < len(vals) and ref - abs(vals[j]) <= tie_tol * max(1.0, ref):
            j += 1
        out.extend(sorted(vals[i:j], key=lambda l: (-l.real, -l.imag)))
        i = j
    return tuple(out)


def eigen_sorted(A: Matrix, tie_tol: float = 1e-8) -> OrderedSpectrum:
    """Full spectrum in the ordering above (float computation)."""
    if not A.is_square():
        raise NonSquareError("eigenvalues need a square matrix")
    try:
        vals = np.linalg.eigvals(np.array(A.to_float().data, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise EigenSolveFailedError(str(exc)) from exc
    return OrderedSpectrum(_order_spectrum([complex(v) for v in vals], tie_tol))


class ExtPosStatus(Enum):
    STRICT_POSITIVE = "strictly positive"
    STRICT_NEGATIVE = "strictly negative"
    NONNEGATIVE = "nonnegative"
    NONPOSITIVE = "nonpositive"
    VIOLATED = "violated"
    HORIZON_ONLY = "verified up to horizon only"


@dataclass(frozen=True)
class TailCertificate:
    """For all t >= start: |rho| * (dominant/subdominant)^(t-1) > residual_sum,
    so the dominant mode fixes sign(g(t)) = sign.  The left side is monotone
    increasing in t, so checking the inequality at ``start`` settles the tail.
    """

    start: int
    sign: int
    dominant: float
    subdominant: float
    residue: float
    residual_sum: float

    def margin(self, t: int) -> float:
        ratio = self.dominant / self.subdominant if self.subdominant > 0 else math.inf
        return abs(self.residue) * ratio ** (t - 1) - self.residual_sum


@dataclass(frozen=True)
class DominantModes:
    """One float eigen-decomposition of a state matrix A, with the output
    row c, shared by every input b of the pair (A, c).

    ``note`` is set when no input can have an eigen tail and says why;
    otherwise ``V`` holds the eigenvectors, ``y`` = c V, ``lead`` the index
    of the dominant eigenvalue ``lam1`` and ``sub`` the largest modulus
    below it.
    """

    note: str
    V: np.ndarray | None = None
    y: np.ndarray | None = None
    lead: int = 0
    lam1: complex = 0j
    sub: float = 0.0


def dominant_modes(A: Matrix, c: Sequence[Num], tol: float = DEFAULT_TOL) -> DominantModes:
    """The decomposition ``dominant_tail`` needs, up to the input vector."""
    n = A.rows
    try:
        Af = np.array(A.to_float().data, dtype=float)
        cf = np.array([float(x) for x in c], dtype=float)
    except OverflowError:
        return DominantModes("state matrix or output row exceeds float range; no eigen tail")
    try:
        lam, V = np.linalg.eig(Af)
    except np.linalg.LinAlgError as exc:
        return DominantModes(f"eigen-decomposition failed: {exc}")
    order = sorted(range(n), key=lambda i: (-abs(lam[i]), -lam[i].real, -lam[i].imag))
    lam1 = lam[order[0]]
    if abs(lam1.imag) > tol * max(1.0, abs(lam1)) or lam1.real <= tol:
        return DominantModes("dominant eigenvalue is not decisively real positive")
    sub = max((abs(lam[i]) for i in order[1:]), default=0.0)
    if abs(lam1) - sub <= tol * max(1.0, abs(lam1)):
        return DominantModes("no modulus gap below the dominant eigenvalue (repeated or defective)")
    return DominantModes("", V, cf.astype(complex) @ V, order[0], lam1, sub)


def dominant_tail(sys: LtiSystem, tol: float = DEFAULT_TOL,
                  modes: DominantModes | None = None) -> tuple[TailCertificate | None, str]:
    """Tail certificate from a simple, real, positive dominant eigenvalue.

    Returns (certificate, note); the note explains a missing certificate.
    Requires a strict modulus gap (which excludes defective dominant
    eigenvalues) and a decisively nonzero dominant residue c v w b.
    ``modes`` passes ``dominant_modes(sys.A, sys.c, tol)`` built earlier,
    so that only the residues are solved for here.
    """
    if modes is None:
        modes = dominant_modes(sys.A, sys.c, tol)
    if modes.note:
        return None, modes.note
    try:
        bf = np.array([float(x) for x in sys.b], dtype=float)
    except OverflowError:
        return None, "input vector exceeds float range; no eigen tail"
    try:
        x = np.linalg.solve(modes.V, bf.astype(complex))
    except np.linalg.LinAlgError:
        return None, "eigenvector matrix is singular to working precision"
    residues = modes.y * x
    scale = float(np.abs(residues).sum())
    rho1 = residues[modes.lead]
    if abs(rho1) <= tol * max(1.0, scale):
        return None, "dominant mode has negligible residue (unobservable or uncontrollable)"
    rest = scale - abs(rho1)
    sign = 1 if rho1.real > 0 else -1
    lam1, sub = modes.lam1, modes.sub
    # safety factor absorbs eigen-solver rounding in the bound itself
    guard = 1.0 + 1e-9
    if sub == 0.0:
        start = 1 if abs(rho1) > rest * guard else 2
        return TailCertificate(start, sign, float(abs(lam1)), 0.0, abs(rho1), rest), ""
    ratio = abs(lam1) / sub
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
    H, n = len(samples), sys.n
    C = _solve_exact_consistent(samples.nums[:min(H, 2 * n)]) + [0]  # [1, 0]: g = 0
    L = max(len(C) - 2, 1)
    if H < n + L:
        return None
    scale = samples.dens[1] // samples.dens[0]
    comp = [[Fraction(j == i + 1) for j in range(L)] for i in range(L - 1)]
    comp.append([Fraction(-C[L - i], C[0] * scale ** (L - i)) for i in range(L)])
    return LtiSystem(Matrix(comp, Backend.EXACT), samples[:L],
                     tuple(Fraction(i == 0) for i in range(L)))


@dataclass
class ExtPosVerdict:
    status: ExtPosStatus
    horizon: int
    samples: Sequence[Num]
    tail: TailCertificate | None = None
    first_violation: tuple[int, Num] | None = None
    suspect_times: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()
    sample_sign: int | None = None  # strict sign carried by decisive samples

    @property
    def tail_start(self) -> int | None:
        return self.tail.start if self.tail else None

    @property
    def sign(self) -> int | None:
        return {
            ExtPosStatus.STRICT_POSITIVE: 1,
            ExtPosStatus.NONNEGATIVE: 1,
            ExtPosStatus.STRICT_NEGATIVE: -1,
            ExtPosStatus.NONPOSITIVE: -1,
        }.get(self.status)


@dataclass(frozen=True)
class ExtPosAnalysis:
    """The costly, requirement-independent half of external positivity.

    Holds the samples g(1)..g(horizon), their sign classes (``sign_of``), the
    tail certificate (eigen or minimal-recurrence route; dropped when its
    sign disagrees with the decisive samples) and the notes explaining it.
    Samples of both strict signs already refute, so such an analysis has no
    tail and no notes.  ``judge`` turns one analysis into a strict or a
    non-strict verdict.
    """

    n: int
    backend: Backend
    horizon: int
    samples: Sequence[Num]
    signs: tuple[int | None, ...]
    tail: TailCertificate | None
    notes: tuple[str, ...]


def analyse(sys: LtiSystem, horizon: int | None = None, tol: float = DEFAULT_TOL,
            rows: OutputRows | None = None,
            modes: DominantModes | None = None) -> ExtPosAnalysis:
    """Sample the impulse response and, unless the samples carry both strict
    signs, certify its tail; ``rows`` and ``modes`` pass what the systems on
    one pair (A, c) share."""
    horizon = horizon if horizon is not None else default_horizon(sys.n)
    g = impulse_response(sys, horizon, rows)
    backend = sys.backend
    signs = tuple(sign_of(x, backend, tol) for x in (g.nums if backend is Backend.EXACT else g))
    decisive = {s for s in signs if s}
    if len(decisive) == 2:
        # samples of both strict signs settle every verdict; no tail is needed
        return ExtPosAnalysis(sys.n, backend, horizon, g, signs, None, ())
    notes = []
    tail, tail_note = dominant_tail(sys, tol, modes)
    if tail is None and backend is Backend.EXACT:
        reduced = minimal_recurrence_system(sys, g)
        if reduced is not None:
            tail, note2 = dominant_tail(reduced, tol)
            if tail is not None:
                tail_note = ""
                notes.append(
                    f"tail bound via exact minimal-recurrence reduction to order {reduced.n}")
            elif note2:
                tail_note = f"{tail_note}; after reduction to order {reduced.n}: {note2}"
    if tail_note:
        notes.append(tail_note)
    if tail and len(decisive) == 1 and tail.sign not in decisive:
        notes.append("tail certificate sign disagrees with decisive samples; tail discarded")
        tail = None
    return ExtPosAnalysis(sys.n, backend, horizon, g, signs, tail, tuple(notes))


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
    return ExtPosVerdict(status, horizon, g, tail if sign else None, violation, suspects,
                         tuple(notes), sign)


def external_positivity(sys: LtiSystem, strict: bool = True, horizon: int | None = None,
                        tol: float = DEFAULT_TOL) -> ExtPosVerdict:
    """Strict or non-strict external-positivity verdict of one system."""
    return judge(analyse(sys, horizon, tol), strict)
