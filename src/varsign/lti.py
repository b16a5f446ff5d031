"""Discrete-time LTI systems: impulse responses, observability matrices,
ordered spectra, and external-positivity verdicts with a dominant-mode tail
certificate.

A verdict separates two kinds of evidence: the sampled impulse response over
a finite horizon, and an analytic tail bound derived from a floating-point
eigen-decomposition.  The bound establishes the sign of every sample beyond
``tail_start``, which makes a finite sample check conclusive.  ``analyse``
gathers both once per system; ``judge`` reads a strict or a non-strict
verdict off the analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

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


def impulse_response(sys: LtiSystem, N: int) -> tuple[Num, ...]:
    """Samples g(1)..g(N) of g(t) = c A^(t-1) b by iterated state propagation.

    The exact backend propagates integers: with D_A, D_b, D_c the lcm of the
    denominators of A, b and c, x(t) = (D_A A)^(t-1) (D_b b) is integral and
    g(t) = (D_c c) x(t) / (D_b D_c D_A^(t-1)).  The samples are the same
    Fractions, reduced once each instead of at every multiply-add.
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    if sys.backend is Backend.EXACT:
        dA, db, dc = (math.lcm(*(x.denominator for x in v))
                      for v in ([x for row in sys.A.data for x in row], sys.b, sys.c))
        A = [[x.numerator * (dA // x.denominator) for x in row] for row in sys.A.data]
        x = [v.numerator * (db // v.denominator) for v in sys.b]
        c = [v.numerator * (dc // v.denominator) for v in sys.c]
        den, out = db * dc, []
        for _ in range(N):
            out.append(Fraction(sum(ci * xi for ci, xi in zip(c, x)), den))
            x = [sum(a * xi for a, xi in zip(row, x)) for row in A]
            den *= dA
        return tuple(out)
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


def dominant_tail(sys: LtiSystem, tol: float = DEFAULT_TOL) -> tuple[TailCertificate | None, str]:
    """Tail certificate from a simple, real, positive dominant eigenvalue.

    Returns (certificate, note); the note explains a missing certificate.
    Requires a strict modulus gap (which excludes defective dominant
    eigenvalues) and a decisively nonzero dominant residue c v w b.
    """
    n = sys.n
    Af = np.array(sys.A.to_float().data, dtype=float)
    bf = np.array([float(x) for x in sys.b], dtype=float)
    cf = np.array([float(x) for x in sys.c], dtype=float)
    try:
        lam, V = np.linalg.eig(Af)
    except np.linalg.LinAlgError as exc:
        return None, f"eigen-decomposition failed: {exc}"
    order = sorted(range(n), key=lambda i: (-abs(lam[i]), -lam[i].real, -lam[i].imag))
    lam1 = lam[order[0]]
    if abs(lam1.imag) > tol * max(1.0, abs(lam1)) or lam1.real <= tol:
        return None, "dominant eigenvalue is not decisively real positive"
    sub = max((abs(lam[i]) for i in order[1:]), default=0.0)
    if abs(lam1) - sub <= tol * max(1.0, abs(lam1)):
        return None, "no modulus gap below the dominant eigenvalue (repeated or defective)"
    try:
        x = np.linalg.solve(V, bf.astype(complex))
    except np.linalg.LinAlgError:
        return None, "eigenvector matrix is singular to working precision"
    y = cf.astype(complex) @ V
    residues = y * x
    scale = float(np.abs(residues).sum())
    rho1 = residues[order[0]]
    if abs(rho1) <= tol * max(1.0, scale):
        return None, "dominant mode has negligible residue (unobservable or uncontrollable)"
    rest = scale - abs(rho1)
    sign = 1 if rho1.real > 0 else -1
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


def _solve_exact_consistent(rows_in, rhs, width):
    """Particular exact solution of M a = y, or None when inconsistent."""
    rows = [list(r) + [v] for r, v in zip(rows_in, rhs)]
    pivots = []
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None
    a = [Fraction(0)] * width
    for idx, col in enumerate(pivots):
        a[col] = rows[idx][-1]
    return a


def minimal_recurrence_system(sys: LtiSystem, samples: Sequence[Num]) -> LtiSystem | None:
    """Exact reduced realization of the sampled impulse response.

    Fits the minimal d with g(t+d) = sum_i a_i g(t+i) on the first
    max(n, d) rows of the sample window and returns the order-d companion
    realization.  The fit is conclusive, not heuristic: q(S)g vanishes on
    max(n, d) >= n consecutive t and obeys the order-n recurrence of the full
    system, so q(S)g vanishes everywhere and the companion system reproduces
    g exactly; later rows are combinations of these and add no constraint.
    At the minimal d the leading d x d Hankel block [g(i+j)] is nonsingular
    (g = 0 aside), so a is unique.  The companion modes are precisely the
    active ones, which unblocks the dominance analysis when an inactive mode
    of the full state matrix dominates its spectrum.  Exact backend only.
    """
    if sys.backend is not Backend.EXACT:
        return None
    H = len(samples)
    n = sys.n
    for d in range(1, n + 1):
        if H - d < max(n, d):
            return None
        rows = [samples[t:t + d] for t in range(max(n, d))]
        rhs = [samples[t + d] for t in range(max(n, d))]
        a = _solve_exact_consistent(rows, rhs, d)
        if a is None:
            continue
        comp = [[Fraction(1) if j == i + 1 else Fraction(0) for j in range(d)]
                for i in range(d - 1)]
        comp.append(list(a))
        c = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(d))
        return LtiSystem(Matrix(comp, Backend.EXACT), tuple(samples[:d]), c)
    return None


@dataclass
class ExtPosVerdict:
    status: ExtPosStatus
    horizon: int
    samples: tuple[Num, ...]
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
    ``judge`` turns one analysis into a strict or a non-strict verdict.
    """

    n: int
    backend: Backend
    horizon: int
    samples: tuple[Num, ...]
    signs: tuple[int | None, ...]
    tail: TailCertificate | None
    notes: tuple[str, ...]


def analyse(sys: LtiSystem, horizon: int | None = None,
            tol: float = DEFAULT_TOL) -> ExtPosAnalysis:
    """Sample the impulse response and certify its tail."""
    horizon = horizon if horizon is not None else default_horizon(sys.n)
    g = impulse_response(sys, horizon)
    backend = sys.backend
    notes = []
    tail, tail_note = dominant_tail(sys, tol)
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
    signs = tuple(sign_of(x, backend, tol) for x in g)
    decisive = {s for s in signs if s}
    if tail and len(decisive) == 1 and tail.sign not in decisive:
        notes.append("tail certificate sign disagrees with decisive samples; tail discarded")
        tail = None
    return ExtPosAnalysis(sys.n, backend, horizon, g, signs, tail, tuple(notes))


def judge(analysis: ExtPosAnalysis, strict: bool = True) -> ExtPosVerdict:
    """Classify the sign of the impulse response over all t >= 1.

    Samples cover t in 1..horizon; a tail certificate (when one exists)
    covers t >= tail_start analytically.  Exact samples are decided exactly;
    float samples inside the tolerance band are decisive for nothing, and are
    acceptable only where the tail bound already applies.
    """
    horizon, g, signs, tail = analysis.horizon, analysis.samples, analysis.signs, analysis.tail
    backend = analysis.backend
    notes = list(analysis.notes)
    first_pos = next((t for t, s in enumerate(signs, 1) if s == 1), None)
    first_neg = next((t for t, s in enumerate(signs, 1) if s == -1), None)
    suspects = tuple(t for t, s in enumerate(signs, 1) if s is None)

    if first_pos and first_neg:
        t_bad = max(first_pos, first_neg)
        return ExtPosVerdict(ExtPosStatus.VIOLATED, horizon, g, None,
                             (t_bad, g[t_bad - 1]), suspects,
                             tuple(notes + ["samples of both strict signs"]))

    s_star = 1 if first_pos else (-1 if first_neg else None)
    if s_star is None:
        # no decisive sample at all
        if backend is Backend.EXACT and horizon >= analysis.n:
            # n consecutive zeros of the order-n recurrence force g identically zero
            if strict:
                return ExtPosVerdict(ExtPosStatus.VIOLATED, horizon, g, None, (1, g[0]),
                                     (), tuple(notes + ["impulse response is identically zero"]))
            return ExtPosVerdict(ExtPosStatus.NONNEGATIVE, horizon, g, None, None, (),
                                 tuple(notes + ["impulse response is identically zero"]))
        return ExtPosVerdict(ExtPosStatus.HORIZON_ONLY, horizon, g, None, None, suspects,
                             tuple(notes + ["no decisive sample over the horizon"]))

    zero_times = tuple(t for t, s in enumerate(signs, 1) if s == 0)
    cover = tail.start if tail else None

    if strict:
        if backend is Backend.EXACT and zero_times:
            t0 = zero_times[0]
            return ExtPosVerdict(ExtPosStatus.VIOLATED, horizon, g, tail, (t0, g[t0 - 1]),
                                 suspects, tuple(notes + ["zero sample under a strict requirement"]),
                                 sample_sign=s_star)
        early = [t for t in suspects if cover is None or t < cover]
        if early:
            return ExtPosVerdict(
                ExtPosStatus.HORIZON_ONLY, horizon, g, tail, None, suspects,
                tuple(notes + [f"indeterminate sample at t={early[0]} not covered by a tail bound"]),
                sample_sign=s_star)
        if tail and tail.start <= horizon:
            status = ExtPosStatus.STRICT_POSITIVE if s_star == 1 else ExtPosStatus.STRICT_NEGATIVE
            return ExtPosVerdict(status, horizon, g, tail, None, suspects, tuple(notes),
                                 sample_sign=s_star)
        if tail:
            notes.append(f"tail bound starts at t={tail.start} beyond the horizon")
        return ExtPosVerdict(ExtPosStatus.HORIZON_ONLY, horizon, g, tail, None, suspects,
                             tuple(notes), sample_sign=s_star)

    # non-strict requirement
    early = [t for t in suspects if cover is None or t < cover]
    if early:
        notes.append(f"samples inside tolerance at t={early[0]}; treated as zeros")
    if tail and tail.start <= horizon:
        if not zero_times and not early:
            status = ExtPosStatus.STRICT_POSITIVE if s_star == 1 else ExtPosStatus.STRICT_NEGATIVE
        else:
            status = ExtPosStatus.NONNEGATIVE if s_star == 1 else ExtPosStatus.NONPOSITIVE
        return ExtPosVerdict(status, horizon, g, tail, None, suspects, tuple(notes),
                             sample_sign=s_star)
    if backend is Backend.EXACT:
        trailing = 0
        for s in reversed(signs):
            if s != 0:
                break
            trailing += 1
        if trailing >= analysis.n:
            # n consecutive zeros of the order-n recurrence keep the tail zero
            notes.append("trailing zeros persist beyond the horizon "
                         "(impulse response obeys a linear recurrence of the system order)")
            status = ExtPosStatus.NONNEGATIVE if s_star == 1 else ExtPosStatus.NONPOSITIVE
            return ExtPosVerdict(status, horizon, g, tail, None, suspects, tuple(notes),
                                 sample_sign=s_star)
    if tail:
        notes.append(f"tail bound starts at t={tail.start} beyond the horizon")
    return ExtPosVerdict(ExtPosStatus.HORIZON_ONLY, horizon, g, tail, None, suspects, tuple(notes),
                         sample_sign=s_star)


def external_positivity(sys: LtiSystem, strict: bool = True, horizon: int | None = None,
                        tol: float = DEFAULT_TOL) -> ExtPosVerdict:
    """Strict or non-strict external-positivity verdict of one system."""
    return judge(analyse(sys, horizon, tol), strict)
