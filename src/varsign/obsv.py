"""Certificates for variation-bounding observability operators.

The observability operator of (A, c) maps an initial state to the output
sequence (c A^t x0).  Its strict/non-strict variation-bounding,
variation-diminishing and k-positivity properties reduce to external
positivity of a family of compound LTI systems: the impulse response of the
(k, r, beta) system enumerates, over t, the minors

    det(O[alpha, beta]),  alpha = {1..k-r} U (k-r+t : k+t-1),

of the stacked observability matrix O.  Certifying the family therefore
certifies the operator.  Rows (k-r+t : k+t-1) of O are its rows (t : t+r-1)
times A^(k-r), so Laplace expansion along them and Cauchy-Binet make the
minors the impulse response of (C_r(A), b, c_r), c_r = C_r(O_r)[1, :], with

    b = C_r(A)^(k-r) w,  w[T] = eps_T det O[1..k-r, beta minus T]

on the r-subsets T of beta and 0 elsewhere; eps_T = -1 when moving T's
positions behind the rest of beta takes an odd number of swaps.  The
full-order family (k = n, beta = 1..n) divides b by det O_n.  This b is the
paper's contraction sum over T of C_r(A^(k-r) O_n^{-1})[:, T] C_k(O_n)[S, beta],
S = {1..k-r} U T: Laplace-expand each C_k(O_n)[S, beta] along its rows T.  A
T that meets the anchor 1..k-r would add a minor with a repeated row, 0, so
the sum over the T that miss it is the full Cauchy-Binet sum, C_r(A^(k-r)) w.
At k = n, Jacobi's complementary-minor identity makes w / det O_n the last
column of C_r(O_n^{-1}).

One engine serves every property: the pair's ``_OperatorContext`` analyses
each compound system once (``lti.analyse``), and ``_certify`` judges the
analyses under a property's requirement list (``_rules``), also across the
orders of ``certify_vd`` and ``impulse_variation_bound``.  Controllability
certificates run the same engine on the transposed pair, and a Hankel
operator inherits a sufficient certificate from its two factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Backend,
    IndexTuple,
    LinalgError,
    Matrix,
    Num,
    RankOutOfRangeError,
    compound,
    det,
    parse_scalar,
    rank,
    scalar_text,
)
from .lti import (
    DominantModes,
    ExtPosAnalysis,
    ExtPosStatus,
    ExtPosVerdict,
    LtiSystem,
    OrderedSpectrum,
    OutputRows,
    analyse,
    default_horizon,
    dominant_modes,
    dominant_tail,
    eigen_sorted,
    impulse_response,
    judge,
    observability_matrix,
    output_rows,
)
from .variation import v_minus


class NotObservableError(LinalgError):
    pass


class BadIndicesError(LinalgError):
    pass


@dataclass(frozen=True)
class CompoundSystem:
    """LTI system whose impulse response traces a structured minor family."""

    system: LtiSystem
    r: int
    k: int
    beta: IndexTuple | None  # None for the full-order family


class _OperatorContext:
    """Shared pieces for one observable pair (A, c) at one horizon: O_n and
    its determinant, each compound order's pair (C_r(A), c_r) built once, the
    integer output rows and the eigen-decomposition of each such pair, which
    all systems of that order share, and one analysis per (k, r, beta)
    compound system."""

    def __init__(self, A: Matrix, c: Sequence[Num], tol: float = DEFAULT_TOL,
                 horizon: int | None = None):
        if not A.is_square():
            raise LinalgError("state matrix must be square")
        self.A = A
        self.c = tuple(c)
        self.n = A.rows
        self.tol = tol
        self.horizon = horizon if horizon is not None else default_horizon(self.n)
        self.obs_n = observability_matrix(A, c, self.n)
        obs_rank = rank(self.obs_n, tol)
        if obs_rank < self.n:
            raise NotObservableError(f"observability matrix has rank {obs_rank} < {self.n}")
        self.det_n = det(self.obs_n)
        if A.backend is Backend.FLOAT and abs(self.det_n) <= tol:
            # full float rank, yet |det O_n| within tol: not decisively observable
            raise NotObservableError(f"observability matrix is singular: "
                                     f"|det| = {abs(self.det_n)} within tolerance {tol}")
        self._memo = {}

    def _cached(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def a_compound(self, r: int) -> Matrix:
        return self._cached(("C_r(A)", r), lambda: compound(self.A, r))

    def c_compound(self, r: int) -> tuple[Num, ...]:
        return self._cached(("C_r(O_r)", r), lambda: compound(
            observability_matrix(self.A, self.c, r), r).row(0))

    def system(self, k: int, r: int, beta: IndexTuple | None) -> LtiSystem:
        """The (k, r, beta) compound system; beta None is the full-order family."""
        b = _full_order_input(self, r) if beta is None else _minor_trace_input(self, k, r, beta)
        return LtiSystem(self.a_compound(r), b, self.c_compound(r))

    def output_rows(self, r: int) -> OutputRows | None:
        """Integer output rows of (C_r(A), c_r), exact backend only."""
        if self.A.backend is not Backend.EXACT:
            return None
        return self._cached(("rows", r), lambda: output_rows(
            self.a_compound(r), self.c_compound(r), self.horizon))

    def modes(self, r: int) -> DominantModes:
        return self._cached(("modes", r), lambda: dominant_modes(
            self.a_compound(r), self.c_compound(r), self.tol))

    def analysis(self, k: int, r: int, beta: IndexTuple | None) -> ExtPosAnalysis:
        return self._cached(("analysis", k, r, beta), lambda: analyse(
            self.system(k, r, beta), self.horizon, self.tol,
            self.output_rows(r), self.modes(r)))


def _full_order_input(ctx: _OperatorContext, r: int) -> tuple[Num, ...]:
    """Input of the full-order system: the (n, r, 1..n) input over det O_n."""
    whole = IndexTuple(ctx.n, tuple(range(1, ctx.n + 1)))
    return tuple(x / ctx.det_n for x in _minor_trace_input(ctx, ctx.n, r, whole))


def full_compound_systems(A: Matrix, c: Sequence[Num],
                          tol: float = DEFAULT_TOL) -> list[CompoundSystem]:
    """The n systems certifying the full-order (k = n) case.

    Their impulse responses are the full-width anchored minors of the stacked
    observability matrix scaled by 1/det(O_n), so the required sign is
    positive for every r.
    """
    ctx = _OperatorContext(A, c, tol)
    return [CompoundSystem(ctx.system(ctx.n, r, None), r, ctx.n, None)
            for r in range(1, ctx.n + 1)]


def _minor_trace_input(ctx: _OperatorContext, k: int, r: int, beta: IndexTuple) -> tuple[Num, ...]:
    """Input b = C_r(A)^(k-r) w of the (k, r, beta) system (module docstring)."""
    n, a = ctx.n, k - r
    w = [parse_scalar(0, ctx.A.backend)] * math.comb(n, r)
    for pos in combinations(range(k), r):
        T = IndexTuple(n, tuple(beta.elems[p] for p in pos))
        rest = IndexTuple(n, tuple(x for p, x in enumerate(beta.elems) if p not in pos))
        anchor = ctx.c_compound(a)[rest.lex_rank() - 1] if a else parse_scalar(1, ctx.A.backend)
        # eps_T: position p_i of T moves past the a + i - p_i entries of rest behind it
        w[T.lex_rank() - 1] = (-1) ** (r * a + r * (r - 1) // 2 - sum(pos)) * anchor
    for _ in range(a):
        w = ctx.a_compound(r).matvec(w)
    return tuple(w)


def compound_system(A: Matrix, c: Sequence[Num], k: int, r: int, beta,
                    tol: float = DEFAULT_TOL) -> CompoundSystem:
    """Build the (k, r, beta) compound system for an observable pair (A, c)."""
    ctx = _OperatorContext(A, c, tol)
    n = ctx.n
    if not (1 <= r <= k <= n):
        raise RankOutOfRangeError(f"need 1 <= r <= k <= n, got r={r}, k={k}, n={n}")
    if not isinstance(beta, IndexTuple):
        beta = IndexTuple(n, tuple(beta))
    if beta.n != n or len(beta) != k:
        raise BadIndicesError(f"beta must be a k-subset of 1..{n}, got {beta}")
    return CompoundSystem(ctx.system(k, r, beta), r, k, beta)


@dataclass(frozen=True)
class BetaEntry:
    beta: IndexTuple
    relaxed: bool  # non-strict sign allowed on the r = k system for this beta


def beta_family(n: int, k: int, strict: bool = True) -> list[BetaEntry]:
    """Column index family: sets {1..k-r} U (t : t+r-1), deduplicated, in
    lexicographic order.

    In non-strict mode, the fully consecutive sets starting beyond k are the
    ones whose r = k systems may be non-strictly signed.
    """
    if not 1 <= k <= n:
        raise RankOutOfRangeError(f"need 1 <= k <= n, got k={k}, n={n}")
    from .signcons import _anchored_tuples, _is_consecutive_tail

    out = []
    for beta in _anchored_tuples(n, k):
        relaxed = (not strict) and _is_consecutive_tail(beta, k)
        out.append(BetaEntry(beta, relaxed))
    return out


class Conclusion(Enum):
    CERTIFIED = "certified"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive"


@dataclass
class SystemVerdict:
    r: int
    k: int
    beta: IndexTuple | None
    relaxed: bool
    verdict: ExtPosVerdict

    def label(self) -> str:
        beta = str(self.beta) if self.beta is not None else "-"
        return f"(r={self.r}, beta={beta})"


@dataclass
class Certificate:
    """Outcome of an operator certification run."""

    property_name: str
    target: str
    conclusion: Conclusion
    common_sign: int | None
    per_system: list[SystemVerdict]
    horizon: int
    notes: list[str] = field(default_factory=list)

    def passed(self) -> bool:
        return self.conclusion is Conclusion.CERTIFIED


_STRICT_SIGN = {ExtPosStatus.STRICT_POSITIVE: 1, ExtPosStatus.STRICT_NEGATIVE: -1}


def property_name(prop: str, k: int, strict: bool = True) -> str:
    """Report name of property svb, vb, kpos or vd at order k."""
    if prop == "kpos":
        return f"{'strictly ' if strict else ''}{k}-positive"
    return f"{prop.upper()}_{k - 1}"


def _rules(prop: str, n: int, k: int, strict: bool = True):
    """(name, requirements, forced sign, may refute) of svb, vb or kpos at order k.

    A requirement (k, r, beta, strict, lead) asks the (k, r, beta) system to
    be strictly (or non-strictly) externally positive with the family sign,
    its first ``lead`` samples strictly so; the list runs in report order.
    """
    if prop == "kpos":
        requirements = [(j, j, entry.beta, strict or j < k, 0)
                        for j in range(1, k + 1) for entry in beta_family(n, j)]
        return property_name(prop, k, strict), requirements, 1, True
    name, relax = property_name(prop, k), prop == "vb"
    if k == n:
        requirements = [(n, r, None, not (relax and r == n), n - 1 if relax and r == n else 0)
                        for r in range(1, n + 1)]
        return name, requirements, 1, not relax
    requirements = []
    for r in range(1, k + 1):
        for entry in beta_family(n, k, strict=not relax):
            relaxed = r == k and entry.relaxed
            requirements.append((k, r, entry.beta, not relaxed, k if relaxed else 0))
    return name, requirements, None, not relax


def _witness(rows, forced_sign: int | None) -> str | None:
    """Note on the first system whose trace refutes: a decisive sample against
    the forced sign or the sign seen first, else a violated trace."""
    ref = forced_sign
    for sv, signs, _ in rows:
        v = sv.verdict
        ref = ref or v.sample_sign
        if ref and -ref in signs:
            t = signs.index(-ref) + 1
            return (f"system {sv.label()}: {v.status.value}, "
                    f"g({t}) = {scalar_text(v.samples[t - 1])} "
                    f"against the {'forced ' if forced_sign else ''}family sign {ref:+d}")
        if v.status is ExtPosStatus.VIOLATED:
            return f"system {sv.label()}: violated at t={v.first_violation[0]} ({v.notes[-1]})"
    return None


def _shortfall(sv: SystemVerdict, signs, lead: int, eps: int | None) -> str | None:
    """Why one system misses its requirement under family sign eps, or None."""
    v = sv.verdict
    if eps is None or v.sign != eps or (not sv.relaxed and v.status not in _STRICT_SIGN):
        return f"system {sv.label()}: {v.status.value}" + (f" ({v.notes[-1]})" if v.notes else "")
    if len(signs) < lead or any(s != eps for s in signs[:lead]):
        return f"system {sv.label()}: first {lead} samples not strictly signed"
    return None


def _certify(ctx: _OperatorContext, prop: str, k: int, target: str,
             strict: bool = True) -> Certificate:
    """Judge every system the property requires and fold the verdicts.

    The family sign is the forced sign or, without one, the sign of the first
    strictly required system with a strict verdict.  A refuting property
    refutes on the first witness; otherwise the operator is certified when
    every system meets its requirement and inconclusive when one does not.
    """
    name, requirements, forced_sign, may_refute = _rules(prop, ctx.n, k, strict)
    rows = []
    for j, r, beta, want_strict, lead in requirements:
        analysis = ctx.analysis(j, r, beta)
        sv = SystemVerdict(r, j, beta, not want_strict, judge(analysis, want_strict))
        rows.append((sv, analysis.signs, lead))
    per = [sv for sv, _, _ in rows]
    witness = _witness(rows, forced_sign) if may_refute else None
    if witness:
        return Certificate(name, target, Conclusion.REFUTED, None, per, ctx.horizon, [witness])
    eps = forced_sign
    if eps is None:
        eps = next((_STRICT_SIGN[sv.verdict.status] for sv in per
                    if not sv.relaxed and sv.verdict.status in _STRICT_SIGN), None)
    problem = next(filter(None, (_shortfall(sv, signs, lead, eps) for sv, signs, lead in rows)),
                   None)
    if problem:
        return Certificate(name, target, Conclusion.INCONCLUSIVE, eps, per, ctx.horizon, [problem])
    return Certificate(name, target, Conclusion.CERTIFIED, eps, per, ctx.horizon)


def _context(A: Matrix, c: Sequence[Num], k: int, horizon: int | None,
             tol: float) -> _OperatorContext:
    n = A.rows
    if not 1 <= k <= n:
        raise RankOutOfRangeError(f"need 1 <= k <= n, got k={k}, n={n}")
    return _OperatorContext(A, c, tol, horizon)


def certify_svb(A: Matrix, c: Sequence[Num], k: int, horizon: int | None = None,
                tol: float = DEFAULT_TOL, target: str = "observability") -> Certificate:
    """Certify that the observability operator of (A, c) is strictly
    (k-1)-variation bounding.

    Every family system must be strictly externally positive or negative with
    one common sign; for k = n the sign is forced positive.  A decisive
    wrong-signed or zero minor refutes.
    """
    return _certify(_context(A, c, k, horizon, tol), "svb", k, target)


def certify_vb(A: Matrix, c: Sequence[Num], k: int, horizon: int | None = None,
               tol: float = DEFAULT_TOL, target: str = "observability") -> Certificate:
    """Sufficient certificate that the observability operator is
    (k-1)-variation bounding (non-strict).

    Relaxed family members (fully consecutive column sets beyond k, traced by
    the r = k systems) may be non-strictly signed provided their first k
    samples carry the family sign strictly.  This route never refutes.
    """
    return _certify(_context(A, c, k, horizon, tol), "vb", k, target)


def certify_k_positive(A: Matrix, c: Sequence[Num], k: int, strict: bool = True,
                       horizon: int | None = None, tol: float = DEFAULT_TOL,
                       target: str = "observability") -> Certificate:
    """Certify (strict) k-positivity of the observability operator.

    For each order j <= k the r = j systems trace the consecutive j-row
    minors over the reduced column family; strict positivity is required
    below the top order, and at the top order positivity may be non-strict
    unless ``strict``.  A decisively negative minor refutes; so does a zero
    minor in strict mode.
    """
    cert = _certify(_context(A, c, k, horizon, tol), "kpos", k, target, strict)
    if cert.passed():
        cert.notes.append(f"operator is order-preserving variation diminishing of order {k - 1}")
    return cert


def _order_certificates(ctx: _OperatorContext, k: int, target: str) -> list[Certificate]:
    """For each order j <= k, the SVB_{j-1} certificate when it holds, else
    the VB_{j-1} one; every order reuses the context's analyses."""
    certs = []
    for j in range(1, k + 1):
        cert = _certify(ctx, "svb", j, target)
        certs.append(cert if cert.passed() else _certify(ctx, "vb", j, target))
    return certs


def certify_vd(A: Matrix, c: Sequence[Num], k: int, horizon: int | None = None,
               tol: float = DEFAULT_TOL, target: str = "observability") -> Certificate:
    """Certify that the operator is (k-1)-variation diminishing by certifying
    variation bounding at every order j <= k (strictly where possible)."""
    ctx = _context(A, c, k, horizon, tol)
    certs = _order_certificates(ctx, k, target)
    notes = [f"order {j}: {cert.property_name} certified" if cert.passed()
             else f"order {j}: not certified ({cert.notes[-1] if cert.notes else ''})"
             for j, cert in enumerate(certs, 1)]
    conclusion = (Conclusion.CERTIFIED if all(cert.passed() for cert in certs)
                  else Conclusion.INCONCLUSIVE)
    per = [sv for cert in certs for sv in cert.per_system]
    return Certificate(property_name("vd", k), target, conclusion, None, per, ctx.horizon, notes)


@dataclass
class EigenScreen:
    """Necessary-condition screen on the spectrum of A.

    A strictly sign-consistent observability operator of a diagonalizable A
    forces the k dominant eigenvalues to be real and positive.  The screen
    also fails when the modulus shell of the k-th eigenvalue contains
    eigenvalues that are not real positive, since the dominant-mode
    positivity of the compound systems is then impossible; with ties or a
    non-diagonalizable A the failure is advisory rather than a refutation.
    """

    passed: bool
    refutes: bool
    diagonalizable: bool
    spectrum: OrderedSpectrum
    reason: str = ""


def eigen_necessary_check(A: Matrix, k: int, tol: float = DEFAULT_TOL,
                          tie_tol: float = 1e-8) -> EigenScreen:
    n = A.rows
    if not 1 <= k <= n:
        raise RankOutOfRangeError(f"need 1 <= k <= n, got k={k}, n={n}")
    spec = eigen_sorted(A, tie_tol)
    lams = spec.eigenvalues
    Af = np.array(A.to_float().data, dtype=float)

    def real_positive(lam: complex) -> bool:
        return abs(lam.imag) <= tol * max(1.0, abs(lam)) and lam.real > tol

    top_ok = all(real_positive(lam) for lam in lams[:k])
    shell_floor = abs(lams[k - 1]) - tie_tol * max(1.0, abs(lams[k - 1]))
    shell = [lam for lam in lams if abs(lam) >= shell_floor]
    shell_ok = all(real_positive(lam) for lam in shell)

    diagonalizable = True
    seen = []
    for lam in lams:
        if any(abs(lam - s) <= tie_tol * max(1.0, abs(s)) for s in seen):
            continue
        seen.append(lam)
        alg = sum(1 for m in lams if abs(m - lam) <= tie_tol * max(1.0, abs(lam)))
        if alg > 1:
            geo = n - np.linalg.matrix_rank(Af - lam * np.eye(n), tol=1e-8)
            if geo < alg:
                diagonalizable = False

    passed = top_ok and shell_ok
    if passed:
        return EigenScreen(True, False, diagonalizable, spec)
    if not top_ok:
        reason = f"a dominant eigenvalue among the top {k} is not real positive"
        return EigenScreen(False, diagonalizable, diagonalizable, spec,
                           reason if diagonalizable else reason + " (advisory: not diagonalizable)")
    reason = ("advisory: the modulus shell of the k-th eigenvalue contains "
              "eigenvalues that are not real positive")
    return EigenScreen(False, False, diagonalizable, spec, reason)


@dataclass
class VariationBoundReport:
    input_variation: int
    certified_levels: dict[int, str]  # level -> "strict" | "nonstrict"
    bound: int | None
    measured: int
    measurement_complete: bool
    horizon: int
    notes: list[str] = field(default_factory=list)


def impulse_variation_bound(A: Matrix, b: Sequence[Num], c: Sequence[Num],
                            horizon: int | None = None,
                            tol: float = DEFAULT_TOL) -> VariationBoundReport:
    """Bound the sign changes of the impulse response g = c A^(t-1) b.

    A certified level L (the operator bounds variation at L) applies when
    the input direction b has at most L sign changes; the report also
    measures the variation of the sampled response, with a completeness flag
    from the dominant-mode tail (no further sign changes can occur once the
    tail bound holds).
    """
    ctx = _OperatorContext(A, c, tol, horizon)
    horizon = ctx.horizon
    vb_in = v_minus(b)
    levels = {j - 1: "strict" if cert.property_name == property_name("svb", j) else "nonstrict"
              for j, cert in enumerate(_order_certificates(ctx, ctx.n, "observability"), 1)
              if cert.passed()}
    applicable = [level for level in levels if level >= vb_in]
    bound = min(applicable) if applicable else None
    # C_1(A) = A and c_1 = c, so the order-1 rows and modes serve (A, b, c)
    sys = LtiSystem(A, tuple(b), tuple(c))
    g = impulse_response(sys, horizon, ctx.output_rows(1))
    # exact samples carry their signs in their numerators (``ExactSamples``)
    measured = v_minus(g, tol) if A.backend is Backend.FLOAT else v_minus(g.nums)
    tail, _ = dominant_tail(sys, tol, ctx.modes(1))
    complete = tail is not None and tail.start <= horizon
    notes = []
    if bound is None:
        notes.append("no certified level covers the input variation")
    return VariationBoundReport(vb_in, levels, bound, measured, complete, horizon, notes)


def certify_observability(A: Matrix, c: Sequence[Num], k: int, prop: str = "svb",
                          horizon: int | None = None, tol: float = DEFAULT_TOL,
                          strict: bool = True, target: str = "observability") -> Certificate:
    """Certify svb, vb, kpos or vd; ``strict=False`` exists for kpos only."""
    if prop == "kpos":
        return certify_k_positive(A, c, k, strict, horizon, tol, target)
    if not strict:
        raise ValueError(f"strict=False applies to kpos only, not to {prop}")
    certifier = {"svb": certify_svb, "vb": certify_vb, "vd": certify_vd}[prop]
    return certifier(A, c, k, horizon, tol, target)


def certify_controllability(A: Matrix, b: Sequence[Num], k: int, prop: str = "svb",
                            horizon: int | None = None, tol: float = DEFAULT_TOL,
                            strict: bool = True) -> Certificate:
    """Controllability certificates via the transposed pair (A^T, b^T)."""
    return certify_observability(A.transpose(), b, k, prop, horizon, tol, strict,
                                 target="controllability")


@dataclass
class HankelCertificate:
    """Sufficient Hankel-operator certificate from its two factors.

    The Hankel operator factors through the controllability and observability
    operators, so bounded variation of both factors bounds the composition.
    This is sufficiency only; nothing is refuted through this route.
    """

    property_name: str
    conclusion: Conclusion
    observability: Certificate
    controllability: Certificate
    notes: list[str] = field(default_factory=list)

    def passed(self) -> bool:
        return self.conclusion is Conclusion.CERTIFIED


def certify_hankel(A: Matrix, b: Sequence[Num], c: Sequence[Num], k: int,
                   prop: str = "svb", horizon: int | None = None,
                   tol: float = DEFAULT_TOL, strict: bool = True) -> HankelCertificate:
    obs_cert = certify_observability(A, c, k, prop, horizon, tol, strict)
    ctr_cert = certify_controllability(A, b, k, prop, horizon, tol, strict)
    both = obs_cert.passed() and ctr_cert.passed()
    conclusion = Conclusion.CERTIFIED if both else Conclusion.INCONCLUSIVE
    notes = [
        f"observability factor: {obs_cert.conclusion.value}",
        f"controllability factor: {ctr_cert.conclusion.value}",
    ]
    if both:
        notes.append("both factors certified; the Hankel operator inherits the bound")
    return HankelCertificate(obs_cert.property_name, conclusion, obs_cert, ctr_cert, notes)
