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

The certificates never form b: with s = k - r, g(t) = c_r C_r(A)^(t-1+s) w
is row t + s of the output rows c_r C_r(A)^(t-1) that the systems of order r
share, times w.  So each system is analysed as (C_r(A), w, c_r) read s rows
late (``lti.analyse``), a full-order one with w / det O_n and s = n - r;
only ``compound_system`` and ``full_compound_systems`` form b.

The systems of order r share one ``lti.Pair`` (C_r(A), c_r)
(``_OperatorContext.order``): it holds their output rows, grown as far as
their samples reach, and builds the sign pattern and the diagonal of an
exact C_r(A) and its eigen-decomposition once, when a system first reads
them.  Each system takes the one tail ladder of ``lti.analyse``, as a
standalone ``lti.external_positivity`` does: in exact mode the sign pattern
of C_r(A) may prove it one-signed, else the exact modes of a diagonal
C_r(A) (as every order of a diagonal A has) may give its tail, with no
eigen-solve either way; such a system holds only the samples that its
verdicts read, the lead samples that vb asks for (``_lead``) included.
Otherwise the tail is the eigen or the minimal-recurrence one.
``impulse_variation_bound`` reads the same ladder on the order-1 pair (A, c).

One engine serves every property: the pair's ``_OperatorContext`` analyses
each compound system once (``lti.analyse``), and ``_certify`` judges the
analyses under a property's requirement list (``_rules``), also across the
orders of ``certify_vd`` and ``impulse_variation_bound``, which keep svb
only where it passes.  A refuted certificate ends at its witness, the first
system in report order whose samples break the family sign.  Controllability
certificates run the same engine on the transposed pair, and a Hankel
operator inherits a sufficient certificate from its two factors.

In exact arithmetic vb and vd first judge a finite section, O_(n+1), whose
rows c A^(t-1), t = 1..n+1, are the rows of the context's one ``Minors``.
A violation by the section is one by the operator: for an input x0 with
S-(x0) <= k-1 and S-(O_(n+1) x0) >= k, the output O x0 has O_(n+1) x0 as
its prefix, and S- of a prefix never exceeds S- of the whole sequence.  (An
input of a section of an operator on sequences, such as a Hankel operator,
is the operator's input cut off, and zero-padding it back keeps its S-.)
So ``signcons``' VB fold refuting the section refutes the operator, before
any system is analysed.  A silent check leaves the engine to decide.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations, islice
from typing import Sequence

from .linalg import (
    DEFAULT_TOL,
    Backend,
    IndexTuple,
    LinalgError,
    Matrix,
    Minors,
    Num,
    RankOutOfRangeError,
    compound,
    index_sets,
    scalar_text,
)
from .lti import (
    ExtPosAnalysis,
    ExtPosStatus,
    ExtPosVerdict,
    LtiSystem,
    Pair,
    analyse,
    default_horizon,
    eigen_sorted,
    impulse_response,
    judge,
    real_positive,
    _proved_tail,
    _sampled_tail,
)
from .signcons import Conclusion, _anchored_tuples, _is_consecutive_tail, _vb_fold
from .variation import v_minus

_ZERO_ONE = {Backend.EXACT: (Fraction(0), Fraction(1)), Backend.FLOAT: (0.0, 1.0)}


class NotObservableError(LinalgError):
    pass


class BadIndicesError(LinalgError):
    pass


class _OperatorContext:
    """Shared pieces for one observable pair (A, c) at one horizon: one
    ``Minors`` of its order-1 output rows c A^(t-1), t = 1..n+1 when exact
    (integer rows over their ``dens``: the section O_(n+1)) and 1..n in float,
    which gives O_n's rank and determinant, each c_r (the r-minors on rows
    1..r) and the section's minors; the ``lti.Pair`` (C_r(A), c_r) of each
    order r (``order``), which all systems of that order share, its parts
    built as its analyses first read them; and one analysis per (k, r, beta)
    compound system."""

    def __init__(self, A: Matrix, c: Sequence[Num], tol: float = DEFAULT_TOL,
                 horizon: int | None = None):
        if not A.is_square():
            raise LinalgError("state matrix must be square")
        self.A, self.n, self.tol = A, A.rows, tol
        self.horizon = horizon if horizon is not None else default_horizon(self.n)
        exact = A.backend is Backend.EXACT
        # C_1(A) = A and c_1 = c; its output rows are the rows of O: n + 1 exact
        # ones, of O_n's rank (Cayley-Hamilton); a float rank could differ
        self._pairs, self._c, self._analyses = {1: Pair(A, c, tol)}, {}, {}
        first = self._pairs[1].extend(self.n + 1 if exact else self.n)
        section = Matrix._of_ints(first.dens, first.rows) if exact else Matrix.floating(first.rows)
        self._minors = minors = Minors(section)
        full = tuple(range(1, self.n + 1))
        self.det_n = minors.value((full, full))
        # exact O_n has full rank exactly when det O_n != 0; float reads the rank under tol
        if not (exact and self.det_n) and (obs_rank := minors.rank(tol)) < self.n:
            raise NotObservableError(f"observability matrix has rank {obs_rank} < {self.n}")
        if not exact and abs(self.det_n) <= tol:
            # full float rank, yet |det O_n| within tol: not decisively observable
            raise NotObservableError(f"observability matrix is singular: "
                                     f"|det| = {abs(self.det_n)} within tolerance {tol}")

    def c_compound(self, r: int) -> tuple[Num, ...]:
        if r not in self._c:
            first = tuple(range(1, r + 1))
            self._c[r] = tuple(self._minors.value((first, J)) for J in index_sets(self.n, r))
        return self._c[r]

    def order(self, r: int) -> Pair:
        """The pair (C_r(A), c_r) of the systems of order r."""
        if r not in self._pairs:
            self._pairs[r] = Pair(compound(self.A, r), self.c_compound(r), self.tol)
        return self._pairs[r]

    def shifted(self, k: int, r: int, beta: IndexTuple | None) -> tuple[LtiSystem, int]:
        """(C_r(A), w, c_r) and the shift s of the (k, r, beta) system, beta None
        for the full-order family: s = k - r, or n - r with w / det O_n."""
        w, s = ((_full_order_input(self, r), self.n - r) if beta is None
                else (_minor_trace_input(self, k, r, beta), k - r))
        pair = self.order(r)
        return LtiSystem(pair.A, w, pair.c), s

    def system(self, k: int, r: int, beta: IndexTuple | None) -> LtiSystem:
        """The (k, r, beta) system with its input b = C_r(A)^s w formed, which
        no certificate does."""
        sys, s = self.shifted(k, r, beta)
        for _ in range(s):
            sys = replace(sys, b=sys.A.matvec(sys.b))
        return sys

    def analysis(self, k: int, r: int, beta: IndexTuple | None) -> ExtPosAnalysis:
        """The analysis of the ``shifted`` system, read s rows late."""
        key = (k, r, beta)
        if key not in self._analyses:
            sys, s = self.shifted(k, r, beta)
            self._analyses[key] = analyse(sys, self.horizon, self.tol, self.order(r), s,
                                          _lead(self.n, k, r, beta))
        return self._analyses[key]


def _full_order_input(ctx: _OperatorContext, r: int) -> tuple[Num, ...]:
    """Input w of the full-order system, the (n, r, 1..n) one over det O_n."""
    whole = IndexTuple(ctx.n, tuple(range(1, ctx.n + 1)))
    return tuple(x / ctx.det_n for x in _minor_trace_input(ctx, ctx.n, r, whole))


def full_compound_systems(A: Matrix, c: Sequence[Num],
                          tol: float = DEFAULT_TOL) -> list[LtiSystem]:
    """The n systems certifying the full-order (k = n) case, r = 1..n in order.

    Their impulse responses are the full-width anchored minors of the stacked
    observability matrix scaled by 1/det(O_n), so the required sign is
    positive for every r.
    """
    ctx = _OperatorContext(A, c, tol)
    return [ctx.system(ctx.n, r, None) for r in range(1, ctx.n + 1)]


def _minor_trace_input(ctx: _OperatorContext, k: int, r: int, beta: IndexTuple) -> tuple[Num, ...]:
    """Input w of the (k, r, beta) system, read k - r rows late (module docstring)."""
    n, a, elems = ctx.n, k - r, beta.elems
    zero, one = _ZERO_ONE[ctx.A.backend]
    anchors = dict(zip(index_sets(n, a), ctx.c_compound(a) if a else [one]))
    terms = {}
    for pos in combinations(range(k), r):
        rest = tuple(x for p, x in enumerate(elems) if p not in pos)
        # eps_T: position p_i of T moves past the a + i - p_i entries of rest behind it
        eps = (-1) ** (r * a + r * (r - 1) // 2 - sum(pos))
        terms[tuple(elems[p] for p in pos)] = eps * anchors[rest]
    return tuple(terms.get(T, zero) for T in index_sets(n, r))


def compound_system(A: Matrix, c: Sequence[Num], k: int, r: int, beta,
                    tol: float = DEFAULT_TOL) -> LtiSystem:
    """Build the (k, r, beta) compound system for an observable pair (A, c)."""
    ctx = _OperatorContext(A, c, tol)
    n = ctx.n
    if not (1 <= r <= k <= n):
        raise RankOutOfRangeError(f"need 1 <= r <= k <= n, got r={r}, k={k}, n={n}")
    if not isinstance(beta, IndexTuple):
        beta = IndexTuple(n, tuple(beta))
    if beta.n != n or len(beta) != k:
        raise BadIndicesError(f"beta must be a k-subset of 1..{n}, got {beta}")
    return ctx.system(k, r, beta)


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
    return [BetaEntry(beta, not strict and _is_consecutive_tail(beta, k))
            for beta in _anchored_tuples(n, k)]


@dataclass
class SystemVerdict:
    r: int
    k: int
    beta: IndexTuple | None
    relaxed: bool
    verdict: ExtPosVerdict

    def label(self) -> str:
        return f"(r={self.r}, beta={self.beta if self.beta is not None else '-'})"


@dataclass
class Certificate:
    """Outcome of an operator certification run; a Hankel certificate's parts are
    its two factors' certificates."""

    property_name: str
    target: str
    conclusion: Conclusion
    common_sign: int | None
    per_system: list[SystemVerdict]
    horizon: int
    notes: list[str] = field(default_factory=list)
    parts: tuple[Certificate, ...] = ()

    def passed(self) -> bool:
        return self.conclusion is Conclusion.CERTIFIED


def property_name(prop: str, k: int, strict: bool = True) -> str:
    """Report name of property svb, vb, kpos or vd at order k."""
    if prop == "kpos":
        return f"{'strictly ' if strict else ''}{k}-positive"
    return f"{prop.upper()}_{k - 1}"


def _lead(n: int, k: int, r: int, beta: IndexTuple | None) -> int:
    """The leading samples of the (k, r, beta) system that vb asks to carry
    the family sign strictly: n - 1 of the full-order r = n system, k of an
    r = k system on a fully consecutive set beyond k, none of the rest.  No
    other requirement asks for any."""
    if r != k:
        return 0
    return n - 1 if beta is None else k if _is_consecutive_tail(beta, k) else 0


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
        requirements = [(n, r, None, not (relax and r == n), _lead(n, n, r, None) if relax else 0)
                        for r in range(1, n + 1)]
        return name, requirements, 1, not relax
    requirements = [(k, r, e.beta, not (r == k and e.relaxed),
                     _lead(n, k, r, e.beta) if relax else 0)
                    for r in range(1, k + 1) for e in beta_family(n, k, strict=not relax)]
    return name, requirements, None, not relax


def _witness(sv: SystemVerdict, signs, ref: int | None, forced: int | None) -> str | None:
    """Note when one system's trace refutes under the running family sign ref:
    a decisive sample against ref, else a violated trace."""
    v = sv.verdict
    if ref and -ref in signs:
        t = signs.index(-ref) + 1
        return (f"system {sv.label()}: {v.status.value}, "
                f"g({t}) = {scalar_text(v.samples[t - 1])} "
                f"against the {'forced ' if forced else ''}family sign {ref:+d}")
    if v.status is ExtPosStatus.VIOLATED:
        return f"system {sv.label()}: violated at t={v.first_violation[0]} ({v.notes[-1]})"
    return None


def _shortfall(sv: SystemVerdict, signs, lead: int, eps: int | None) -> str | None:
    """Why one system misses its requirement under family sign eps, or None."""
    v = sv.verdict
    if eps is None or v.sign != eps:
        return f"system {sv.label()}: {v.status.value}" + (f" ({v.notes[-1]})" if v.notes else "")
    if len(signs) < lead or any(s != eps for s in signs[:lead]):
        return f"system {sv.label()}: first {lead} samples not strictly signed"
    return None


def _certify(ctx: _OperatorContext, prop: str, k: int, strict: bool = True) -> Certificate:
    """Judge the required systems in report order and fold their verdicts.

    The family sign is the forced sign or, without one, the sign of the first
    strictly required system with a strict verdict.  A refuting property stops
    at the first witness, so a refuted certificate lists and analyses only the
    systems up to it.  Otherwise the operator is certified when every system
    meets its requirement and inconclusive when one does not.  Under a strict
    requirement ``judge`` gives a sign only to a strict verdict.
    """
    name, requirements, forced_sign, may_refute = _rules(prop, ctx.n, k, strict)
    rows, ref = [], forced_sign
    for j, r, beta, want_strict, lead in requirements:
        analysis = ctx.analysis(j, r, beta)
        sv = SystemVerdict(r, j, beta, not want_strict, judge(analysis, want_strict))
        rows.append((sv, analysis.signs, lead))
        ref = ref or sv.verdict.sample_sign
        if may_refute and (witness := _witness(sv, analysis.signs, ref, forced_sign)):
            return Certificate(name, "observability", Conclusion.REFUTED, None,
                               [sv for sv, _, _ in rows], ctx.horizon, [witness])
    per = [sv for sv, _, _ in rows]
    eps = forced_sign
    if eps is None:
        eps = next((sv.verdict.sign for sv in per if not sv.relaxed and sv.verdict.sign), None)
    shortfalls = filter(None, (_shortfall(sv, signs, lead, eps) for sv, signs, lead in rows))
    notes = list(islice(shortfalls, 1))  # the first shortfall, if any
    conclusion = Conclusion.INCONCLUSIVE if notes else Conclusion.CERTIFIED
    return Certificate(name, "observability", conclusion, eps, per, ctx.horizon, notes)


def _section_refutation(ctx: _OperatorContext, name: str, orders) -> Certificate | None:
    """The refuted certificate ``name`` when the section O_(n+1), the rows of
    the context's ``Minors``, is not VB_(j-1) at one of ``orders`` (``_vb_fold``);
    its note names the section, the rule and the witness minors.  None otherwise,
    and always in float arithmetic, whose minors are classed against an absolute tolerance."""
    # the context checked that O_n, and so O_(n+1) (Cayley-Hamilton), has rank n
    check = ctx.A.backend is Backend.EXACT and _vb_fold(ctx._minors, orders, ctx.n, ctx.tol)
    if not check or check.status is not Conclusion.REFUTED:
        return None
    return Certificate(name, "observability", Conclusion.REFUTED, None, [], ctx.horizon, [
        f"section O_{ctx.n + 1} is not {check.property_name} ({check.rule}): {check.detail}"])


def _context(A: Matrix, c: Sequence[Num], k: int, horizon: int | None,
             tol: float) -> _OperatorContext:
    if not 1 <= k <= A.rows:
        raise RankOutOfRangeError(f"need 1 <= k <= n, got k={k}, n={A.rows}")
    return _OperatorContext(A, c, tol, horizon)


def certify_svb(A: Matrix, c: Sequence[Num], k: int, horizon: int | None = None,
                tol: float = DEFAULT_TOL) -> Certificate:
    """Certify that the observability operator of (A, c) is strictly
    (k-1)-variation bounding.

    Every family system must be strictly externally positive or negative with
    one common sign; for k = n the sign is forced positive.  A decisive
    wrong-signed or zero minor refutes.
    """
    return _certify(_context(A, c, k, horizon, tol), "svb", k)


def certify_vb(A: Matrix, c: Sequence[Num], k: int, horizon: int | None = None,
               tol: float = DEFAULT_TOL) -> Certificate:
    """Sufficient certificate that the observability operator is
    (k-1)-variation bounding (non-strict).

    Relaxed family members (fully consecutive column sets beyond k, traced by
    the r = k systems) may be non-strictly signed provided their first k
    samples carry the family sign strictly.  The systems never refute.  In
    exact arithmetic the section O_(n+1) is checked first (module docstring):
    if it is not VB_(k-1), the operator is refuted, and the certificate lists
    no systems.
    """
    ctx = _context(A, c, k, horizon, tol)
    return _section_refutation(ctx, property_name("vb", k), [k]) or _certify(ctx, "vb", k)


def certify_k_positive(A: Matrix, c: Sequence[Num], k: int, strict: bool = True,
                       horizon: int | None = None, tol: float = DEFAULT_TOL) -> Certificate:
    """Certify (strict) k-positivity of the observability operator.

    For each order j <= k the r = j systems trace the consecutive j-row
    minors over the reduced column family; strict positivity is required
    below the top order, and at the top order positivity may be non-strict
    unless ``strict``.  A decisively negative minor refutes; so does a zero
    minor in strict mode.
    """
    cert = _certify(_context(A, c, k, horizon, tol), "kpos", k, strict)
    if cert.passed():
        cert.notes.append(f"operator is order-preserving variation diminishing of order {k - 1}")
    return cert


def _order_certificates(ctx: _OperatorContext, k: int) -> list[Certificate]:
    """For each order j <= k, the SVB_{j-1} certificate when it holds, else
    the VB_{j-1} one; every order reuses the context's analyses."""
    certs = []
    for j in range(1, k + 1):
        cert = _certify(ctx, "svb", j)
        certs.append(cert if cert.passed() else _certify(ctx, "vb", j))
    return certs


def certify_vd(A: Matrix, c: Sequence[Num], k: int, horizon: int | None = None,
               tol: float = DEFAULT_TOL) -> Certificate:
    """Certify that the operator is (k-1)-variation diminishing by certifying
    variation bounding at every order j <= k (strictly where possible).

    In exact arithmetic the section O_(n+1) is checked first at each order
    j <= k in turn: the first j at which it is not VB_(j-1) refutes the
    operator, and the certificate lists no systems.  Otherwise the orders'
    certificates fold to certified or inconclusive.
    """
    ctx = _context(A, c, k, horizon, tol)
    if refuted := _section_refutation(ctx, property_name("vd", k), range(1, k + 1)):
        return refuted
    certs = _order_certificates(ctx, k)
    notes = [f"order {j}: {cert.property_name} certified" if cert.passed()
             else f"order {j}: not certified ({cert.notes[-1] if cert.notes else ''})"
             for j, cert in enumerate(certs, 1)]
    conclusion = (Conclusion.CERTIFIED if all(cert.passed() for cert in certs)
                  else Conclusion.INCONCLUSIVE)
    per = [sv for cert in certs for sv in cert.per_system]
    return Certificate(property_name("vd", k), "observability", conclusion, None, per,
                       ctx.horizon, notes)


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
    spectrum: tuple[complex, ...]
    reason: str = ""


def eigen_necessary_check(A: Matrix, k: int, tol: float = DEFAULT_TOL,
                          tie_tol: float = 1e-8) -> EigenScreen:
    import numpy as np  # here, not at the top: only this screen uses it

    n = A.rows
    if not 1 <= k <= n:
        raise RankOutOfRangeError(f"need 1 <= k <= n, got k={k}, n={n}")
    lams = eigen_sorted(A, tie_tol)
    Af = np.array(A.to_float().data, dtype=float)
    top_ok = all(real_positive(lam, tol) for lam in lams[:k])
    shell_floor = abs(lams[k - 1]) - tie_tol * max(1.0, abs(lams[k - 1]))
    shell_ok = all(real_positive(lam, tol) for lam in lams if abs(lam) >= shell_floor)

    diagonalizable = True
    seen = []
    for lam in lams:
        if any(abs(lam - s) <= tie_tol * max(1.0, abs(s)) for s in seen):
            continue
        seen.append(lam)
        alg = sum(1 for m in lams if abs(m - lam) <= tie_tol * max(1.0, abs(lam)))
        if alg > 1 and n - np.linalg.matrix_rank(Af - lam * np.eye(n), tol=1e-8) < alg:
            diagonalizable = False

    if top_ok and shell_ok:
        return EigenScreen(True, False, diagonalizable, lams)
    if not top_ok:
        reason = f"a dominant eigenvalue among the top {k} is not real positive"
        return EigenScreen(False, diagonalizable, diagonalizable, lams,
                           reason if diagonalizable else reason + " (advisory: not diagonalizable)")
    reason = ("advisory: the modulus shell of the k-th eigenvalue contains "
              "eigenvalues that are not real positive")
    return EigenScreen(False, False, diagonalizable, lams, reason)


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
    from the tail that ``lti.analyse``'s ladder gives (no further sign
    changes can occur from the tail start on).
    """
    ctx = _OperatorContext(A, c, tol, horizon)
    horizon = ctx.horizon
    # parses and size-checks b before any order is certified
    sys = LtiSystem(A, tuple(b), tuple(c))
    vb_in = v_minus(sys.b)
    levels = {j - 1: "strict" if cert.property_name == property_name("svb", j) else "nonstrict"
              for j, cert in enumerate(_order_certificates(ctx, ctx.n), 1)
              if cert.passed()}
    bound = min((level for level in levels if level >= vb_in), default=None)
    # C_1(A) = A and c_1 = c, so the order-1 pair serves (A, b, c)
    pair = ctx.order(1)
    g = impulse_response(sys, horizon, pair)
    # exact samples carry their signs in their numerators (``ExactSamples``)
    measured = v_minus(g, tol) if A.backend is Backend.FLOAT else v_minus(g.nums)
    tail = (_proved_tail(sys, pair, 0, horizon) or _sampled_tail(sys, g, horizon, pair, 0))[0]
    complete = tail is not None and tail.start <= horizon
    notes = ["no certified level covers the input variation"] if bound is None else []
    return VariationBoundReport(vb_in, levels, bound, measured, complete, horizon, notes)


def certify_observability(A: Matrix, c: Sequence[Num], k: int, prop: str = "svb",
                          horizon: int | None = None, tol: float = DEFAULT_TOL,
                          strict: bool = True) -> Certificate:
    """Certify svb, vb, kpos or vd; ``strict=False`` exists for kpos only."""
    if prop == "kpos":
        return certify_k_positive(A, c, k, strict, horizon, tol)
    if not strict:
        raise ValueError(f"strict=False applies to kpos only, not to {prop}")
    certifier = {"svb": certify_svb, "vb": certify_vb, "vd": certify_vd}[prop]
    return certifier(A, c, k, horizon, tol)


def certify_controllability(A: Matrix, b: Sequence[Num], k: int, prop: str = "svb",
                            horizon: int | None = None, tol: float = DEFAULT_TOL,
                            strict: bool = True) -> Certificate:
    """Controllability certificates via the transposed pair (A^T, b^T), whose
    section O_(n+1) is C_(n+1)^T, the transposed controllability section
    [b, A b, ..., A^n b] of (A, b): a section refutation's note names it so."""
    cert = certify_observability(A.transpose(), b, k, prop, horizon, tol, strict)
    section, name = (f"section {x}_{A.rows + 1}" for x in ("O", "C"))
    notes = [note.replace(section, name + "^T", 1) for note in cert.notes]
    return replace(cert, target="controllability", notes=notes)


def certify_hankel(A: Matrix, b: Sequence[Num], c: Sequence[Num], k: int,
                   prop: str = "svb", horizon: int | None = None,
                   tol: float = DEFAULT_TOL, strict: bool = True) -> Certificate:
    """Sufficient Hankel-operator certificate from its two factors.

    The Hankel operator factors through the controllability and observability
    operators, so bounded variation of both factors bounds the composition.
    This is sufficiency only; nothing is refuted through this route.
    """
    parts = (certify_observability(A, c, k, prop, horizon, tol, strict),
             certify_controllability(A, b, k, prop, horizon, tol, strict))
    notes = [f"{part.target} factor: {part.conclusion.value}" for part in parts]
    both = all(part.passed() for part in parts)
    if both:
        notes.append("both factors certified; the Hankel operator inherits the bound")
    return Certificate(parts[0].property_name, "hankel",
                       Conclusion.CERTIFIED if both else Conclusion.INCONCLUSIVE,
                       None, [], parts[0].horizon, notes, parts)
