"""Recognition of sign-consistent / sign-regular / totally positive matrices.

Implements the sign checks over all minors of an order, the polynomial-size
reduced minor families (strict and non-strict variants), the consecutive
minor certificate, and decision procedures for variation-bounding (VB) and
variation-diminishing (VD) matrices; VD_(k-1) is VB_(j-1) at every j <= k,
decided by one fold of the VB check (``_vb_fold``), which ``obsv`` reads too.

The checks compute only the minors that decide a verdict.  Each check reads
its minors, and the VB and VD checks their rank, from one ``linalg.Minors``,
in any order, on the matrix's integer rows: no minor is computed twice.
Signs are read off the streamed minors, which in exact arithmetic are Bareiss
integers with the minors' signs; only a witness minor that a result returns or
reports is turned into its value (``Minors.value``).
A family is read in lexicographic (I, J) order and stops at its first pair of
opposite signs.  In exact arithmetic Fekete's criterion comes first: when
every consecutive minor of orders 1..p is positive, every minor of order
<= p is (Fallat & Johnson, *Totally Nonnegative Matrices*, 2011, ch. 3), and
those orders are judged strictly positive without reading any other minor.
Float mode skips that scan, since a rounded minor proves nothing.  The VB
check returns at the first route that decides, and a sign-consistency route
certifies a one-signed summary, refutes a mixed one by its witness, and is
otherwise inside tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .linalg import (
    DEFAULT_TOL,
    Backend,
    IndexTuple,
    LinalgError,
    Matrix,
    Minors,
    RankOutOfRangeError,
    consecutive_sets,
    index_sets,
    int_text,
    lex_tuples,
    sign_of,
)


class SignVerdict(Enum):
    STRICTLY_POSITIVE = "strictly positive"
    STRICTLY_NEGATIVE = "strictly negative"
    NONNEGATIVE = "nonnegative"
    NONPOSITIVE = "nonpositive"
    ZERO = "zero"
    MIXED = "mixed"
    INCONCLUSIVE = "inconclusive"


class Conclusion(Enum):
    CERTIFIED = "certified"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive"


_STRICT_OK = {SignVerdict.STRICTLY_POSITIVE, SignVerdict.STRICTLY_NEGATIVE}
_POSITIVE_OK = {SignVerdict.STRICTLY_POSITIVE, SignVerdict.NONNEGATIVE, SignVerdict.ZERO}
_NONSTRICT_OK = _STRICT_OK | {
    SignVerdict.NONNEGATIVE,
    SignVerdict.NONPOSITIVE,
    SignVerdict.ZERO,
}


@dataclass
class SignSummary:
    """Aggregate sign classification of a family of values."""

    verdict: SignVerdict
    epsilon: int | None
    witness: tuple = ()  # first (label, value) per conflicting class, for audit

    def passes(self, strict: bool) -> bool:
        return self.verdict in (_STRICT_OK if strict else _NONSTRICT_OK)


def classify_family(labeled_values, backend: Backend, tol: float = DEFAULT_TOL) -> SignSummary:
    """Classify a family of (label, value) pairs into one SignVerdict.

    Reading stops at the first value whose sign is opposite to an earlier
    one: MIXED is final, as it takes precedence over INCONCLUSIVE, and its
    witness (the first positive and the first negative value) is known by
    then.  A lazy family is evaluated only up to that point.
    """
    first = {}  # sign (1, -1, 0, or None inside tolerance) -> first (label, value)
    for label, value in labeled_values:
        s = sign_of(value, backend, tol)
        if s not in first:
            first[s] = (label, value)
            if 1 in first and -1 in first:
                return SignSummary(SignVerdict.MIXED, None, (first[1], first[-1]))
    if None in first:
        return SignSummary(SignVerdict.INCONCLUSIVE, None, (first[None],))
    if 1 in first:
        if 0 in first:
            return SignSummary(SignVerdict.NONNEGATIVE, 1, (first[0],))
        return SignSummary(SignVerdict.STRICTLY_POSITIVE, 1)
    if -1 in first:
        if 0 in first:
            return SignSummary(SignVerdict.NONPOSITIVE, -1, (first[0],))
        return SignSummary(SignVerdict.STRICTLY_NEGATIVE, -1)
    return SignSummary(SignVerdict.ZERO, None)


def _check_order(X: Matrix, k: int) -> None:
    top = min(X.rows, X.cols)
    if not 1 <= k <= top:
        raise RankOutOfRangeError(f"k={k} lies outside 1..{top} for shape {X.shape}")


def _check_tall(X: Matrix, k: int) -> None:
    """The shape guard of the VB and VD checks: rows >= cols, 1 <= k <= cols."""
    if X.rows < X.cols:
        raise RankOutOfRangeError(f"need rows >= cols, got shape {X.shape}")
    _check_order(X, k)


def _consecutive_minors(minors: Minors, r: int):
    """The consecutive r-minors, labelled by (I, J), rows outermost."""
    rows, cols = minors.shape
    return minors.stream(consecutive_sets(rows, r), consecutive_sets(cols, r))


def _fekete_order(minors: Minors, k: int) -> int:
    """The largest p <= k such that every consecutive minor of orders 1..p is
    positive, and with it every minor of order <= p (Fekete); the scan stops
    at the first consecutive minor <= 0.  Always 0 in float arithmetic."""
    if minors.backend is not Backend.EXACT:
        return 0
    for r in range(1, k + 1):
        # each exact minor streams as an integer with the minor's sign
        if any(v <= 0 for _, v in _consecutive_minors(minors, r)):
            return r - 1
    return k


def _valued(minors: Minors, witness: tuple) -> tuple:
    """The (label, minor) pairs of a streamed ``witness`` with each minor
    turned into its value."""
    return tuple((label, minors.value(label)) for label, _ in witness)


def _with_values(minors: Minors, s: SignSummary) -> SignSummary:
    """``s`` with its witness minors turned into their values."""
    return SignSummary(s.verdict, s.epsilon, _valued(minors, s.witness)) if s.witness else s


def _order_summary(minors: Minors, r: int, positive_through: int, tol: float) -> SignSummary:
    """Sign summary of the r-minors: strictly positive when r is at most
    ``positive_through`` (a Fekete order), else read in lexicographic (I, J)
    order up to the first pair of opposite signs.  Its witness holds the
    minors as streamed (``_with_values`` gives their values)."""
    if r <= positive_through:
        return SignSummary(SignVerdict.STRICTLY_POSITIVE, 1)
    rows, cols = minors.shape
    return classify_family(minors.stream(index_sets(rows, r), index_sets(cols, r)),
                           minors.backend, tol)


def sign_consistent(X: Matrix, k: int, tol: float = DEFAULT_TOL) -> SignSummary:
    """Sign summary of all k-minors of X, each labelled by its (I, J).

    Exact X first runs Fekete's scan of the consecutive minors of orders
    1..k; the other minors are read only when that scan finds one <= 0, and
    then only until two opposite signs are seen.
    """
    _check_order(X, k)
    minors = Minors(X)
    return _with_values(minors, _order_summary(minors, k, _fekete_order(minors, k), tol))


@dataclass
class OrderedVerdicts:
    """Per-order sign verdicts for orders 1..k plus an overall pass flag."""

    orders: dict[int, SignSummary]
    passed: bool


def sign_conclusion(passed: bool, summaries) -> Conclusion:
    """Certified if passed, else inconclusive if a summary is, else refuted."""
    if passed:
        return Conclusion.CERTIFIED
    if any(s.verdict is SignVerdict.INCONCLUSIVE for s in summaries):
        return Conclusion.INCONCLUSIVE
    return Conclusion.REFUTED


def _orders(X: Matrix, k: int, tol: float) -> dict[int, SignSummary]:
    """Sign summaries of the minors of orders 1..k; orders up to the Fekete
    order are strictly positive without further minors."""
    _check_order(X, k)
    minors = Minors(X)
    p = _fekete_order(minors, k)
    return {j: _with_values(minors, _order_summary(minors, j, p, tol)) for j in range(1, k + 1)}


def sign_regular(X: Matrix, k: int, strict: bool, tol: float = DEFAULT_TOL) -> OrderedVerdicts:
    """Sign consistency of every order j in 1..k (signs may differ per order)."""
    orders = _orders(X, k, tol)
    passed = all(s.passes(strict) for s in orders.values())
    return OrderedVerdicts(orders, passed)


def k_positive(X: Matrix, k: int, strict: bool, tol: float = DEFAULT_TOL) -> OrderedVerdicts:
    """All minors of order <= k nonnegative (positive when strict)."""
    orders = _orders(X, k, tol)
    ok = {SignVerdict.STRICTLY_POSITIVE} if strict else _POSITIVE_OK
    return OrderedVerdicts(orders, all(s.verdict in ok for s in orders.values()))


@dataclass
class CertificateResult:
    passed: bool
    conclusion: str
    witness: tuple = ()


def consecutive_certificate(X: Matrix, k: int, strict_top: bool = True,
                            tol: float = DEFAULT_TOL) -> CertificateResult:
    """Consecutive-minor certificate for (strict) total positivity up to order k.

    Orders 1..k-1 must have strictly positive consecutive minors; order k
    nonnegative, or positive when ``strict_top``.  Passing certifies that X
    is (strictly) k-positive.
    """
    _check_order(X, k)
    minors = Minors(X)
    for r in range(1, k + 1):
        summary = classify_family(_consecutive_minors(minors, r), X.backend, tol)
        want_strict = strict_top or r < k
        ok = {SignVerdict.STRICTLY_POSITIVE} if want_strict else _POSITIVE_OK
        if summary.verdict not in ok:
            return CertificateResult(
                False,
                f"consecutive {r}-minors are not {'positive' if want_strict else 'nonnegative'}",
                _valued(minors, summary.witness),
            )
    qualifier = "strictly " if strict_top else ""
    return CertificateResult(True, f"{qualifier}{k}-positive via consecutive minors")


class PreconditionError(LinalgError):
    pass


@dataclass(frozen=True)
class FamilyPair:
    alpha: IndexTuple
    beta: IndexTuple
    strict_required: bool = True


def _anchored_tuples(n: int, k: int) -> list[IndexTuple]:
    """Index sets {1..k-r} U (t : t+r-1) for r in 1..k, t in k-r+1..n-r+1, deduplicated.

    The consecutive block starts after the anchor block, so no tuple has a
    repeated index; the leading principal set (1:k) arises once for every r
    and is kept once.
    """
    seen = set()
    out = []
    for r in range(1, k + 1):
        anchor = tuple(range(1, k - r + 1))
        for t in range(k - r + 1, n - r + 2):
            elems = anchor + tuple(range(t, t + r))
            if elems not in seen:
                seen.add(elems)
                out.append(IndexTuple(n, elems))
    return out


def _is_consecutive_tail(idx: IndexTuple, k: int) -> bool:
    return idx.is_consecutive() and idx.elems[0] >= k + 1


def reduced_family(n: int, m: int, k: int, strict: bool = True) -> list[FamilyPair]:
    """Reduced (alpha, beta) minor family certifying k-sign consistency.

    Strict mode: the family is exact (same strict sign across it is
    equivalent to strict k-sign consistency).  Non-strict mode is a
    sufficient certificate and requires n >= 2m when k = m, or 2k <= m when
    k < m; exactly the pairs in which both index sets are fully consecutive
    blocks starting beyond k are allowed a non-strict sign (for k = m the
    single column set (1:m) plays that role on the beta side).
    """
    if not (n > m >= k >= 1):
        raise PreconditionError(f"need n > m >= k >= 1, got n={n}, m={m}, k={k}")
    if not strict:
        if k == m and n < 2 * m:
            raise PreconditionError(f"non-strict full-width family needs n >= 2m, got n={n}, m={m}")
        if k < m and 2 * k > m:
            raise PreconditionError(f"non-strict reduced family needs 2k <= m, got k={k}, m={m}")
    alphas = _anchored_tuples(n, k)
    betas = _anchored_tuples(m, k)
    pairs = []
    for alpha in alphas:
        for beta in betas:
            if strict:
                relaxed = False
            else:
                beta_tail = _is_consecutive_tail(beta, k) or k == m
                relaxed = _is_consecutive_tail(alpha, k) and beta_tail
            pairs.append(FamilyPair(alpha, beta, strict_required=not relaxed))
    return pairs


@dataclass
class ReducedCheckResult:
    verdict: SignVerdict
    epsilon: int | None
    certified: bool
    witness: tuple = ()


def reduced_check(X: Matrix, k: int, strict: bool = True,
                  tol: float = DEFAULT_TOL) -> ReducedCheckResult:
    """Evaluate only the reduced family minors of X.

    Strict mode is equivalent to strict k-sign consistency; non-strict mode
    is sufficient for k-sign consistency.  ``certified`` states whether the
    family requirements hold (strict pairs one strict sign, relaxed pairs
    compatible); ``verdict`` describes the observed value family.
    """
    family = reduced_family(X.rows, X.cols, k, strict)
    # the family is the product of the anchored row and column sets, rows outermost
    rows = [t.elems for t in _anchored_tuples(X.rows, k)]
    cols = [t.elems for t in _anchored_tuples(X.cols, k)]
    minors = Minors(X)
    strict_vals, free_vals = [], []
    for pair, labeled in zip(family, minors.stream(rows, cols)):
        (strict_vals if pair.strict_required else free_vals).append(labeled)
    base = classify_family(strict_vals, X.backend, tol)
    if base.verdict not in _STRICT_OK:
        # strict-required pairs must carry one strict sign in both modes
        return ReducedCheckResult(base.verdict, base.epsilon, False, _valued(minors, base.witness))
    eps = base.epsilon
    if not free_vals:
        return ReducedCheckResult(base.verdict, eps, True)
    relaxed = classify_family(free_vals, X.backend, tol)
    witness = _valued(minors, relaxed.witness)
    if relaxed.verdict is SignVerdict.INCONCLUSIVE:
        return ReducedCheckResult(SignVerdict.INCONCLUSIVE, None, False, witness)
    if relaxed.verdict is SignVerdict.MIXED or relaxed.epsilon == -eps:
        # a relaxed-pair minor of strictly opposite sign breaks the family
        return ReducedCheckResult(SignVerdict.MIXED, None, False, witness)
    if relaxed.verdict in _STRICT_OK:
        return ReducedCheckResult(base.verdict, eps, True)
    verdict = SignVerdict.NONNEGATIVE if eps == 1 else SignVerdict.NONPOSITIVE
    return ReducedCheckResult(verdict, eps, True, witness)


def _witness_text(x) -> str:
    """``str(x)`` of a witness tuple, with ``int_text`` for the parts of a Fraction
    (``repr`` refuses ints longer than ``sys.get_int_max_str_digits()`` digits)."""
    if isinstance(x, tuple):
        inner = ", ".join(map(_witness_text, x))
        return f"({inner},)" if len(x) == 1 else f"({inner})"
    if isinstance(x, Fraction):
        return f"Fraction({int_text(x.numerator)}, {int_text(x.denominator)})"
    return repr(x)


def _shown(minors: Minors, witness: tuple) -> str:
    """``_witness_text`` of a streamed witness of ``minors``, its minors
    turned into their values."""
    return _witness_text(_valued(minors, witness))


@dataclass
class MatrixPropertyCheck:
    property_name: str
    status: Conclusion
    rule: str
    detail: str = ""
    strict: bool = False  # True when the strict variant was established


def _all_k_columns_independent(minors: Minors, k: int, tol: float) -> bool:
    """Every k-column subset of X has rank k.

    Each column set reads its k-minors only up to the first nonzero one
    (outside ``tol`` in float).  In exact arithmetic that minor proves rank k,
    so the rank loop runs only in float, where it stays: under ``tol`` float
    rank is stricter than a minor outside the band.
    """
    rows, col_sets = (index_sets(m, k) for m in minors.shape)
    for J in col_sets:
        if not any(sign_of(v, minors.backend, tol) for _, v in minors.stream(rows, [J])):
            return False
    if minors.backend is Backend.EXACT:
        return True
    return all(minors.rank(tol, J) == k for J in col_sets)


def _route_verdict(name: str, rule: str, minors: Minors, s: SignSummary,
                   detail: str = "") -> MatrixPropertyCheck:
    """A sign-consistency route judged on the summary ``s`` of its ``minors``: one-signed
    certifies with ``detail``, mixed refutes with its witness, else inside tolerance."""
    if s.passes(strict=False):
        return MatrixPropertyCheck(name, Conclusion.CERTIFIED, rule, detail,
                                   strict=s.verdict in _STRICT_OK)
    if s.verdict is SignVerdict.MIXED:
        return MatrixPropertyCheck(name, Conclusion.REFUTED, rule,
                                   f"conflicting minors {_shown(minors, s.witness)}")
    return MatrixPropertyCheck(name, Conclusion.INCONCLUSIVE, rule,
                               "compound entries inside tolerance")


def vb_matrix_check(X: Matrix, k: int, tol: float = DEFAULT_TOL) -> MatrixPropertyCheck:
    """Decide whether X is (k-1)-variation bounding, when a characterization applies.

    Decision paths: full-width sign consistency when k equals the column
    count; a column-wise sign test on the k-th compound when rank(X) = k;
    sign consistency when k < rank(X) and every k columns are independent.
    Returns INCONCLUSIVE when no hypothesis holds.  In exact arithmetic a
    Fekete order of k (every k-minor positive) decides the last two paths
    without reading any further minor.  A square X is decided as [X; 0]
    (``_vb_check``), as ``vd_matrix_check`` decides it.
    """
    _check_tall(X, k)
    minors = Minors(X)
    return _vb_check(minors, k, minors.rank(tol), tol)


def _vb_check(minors: Minors, k: int, rk: int, tol: float = DEFAULT_TOL) -> MatrixPropertyCheck:
    """``vb_matrix_check`` on X, the matrix of ``minors``, of rank ``rk``, rows >= cols >= k;
    reads share its minors.  A square X has the VB verdicts of [X; 0] (a zero row adds no
    sign change), and in exact arithmetic each route gives it the conclusion it gives [X; 0]."""
    (n, m), backend = minors.shape, minors.backend
    name = f"VB_{k - 1}"
    if rk < k < m:  # at k = m the full-width route reports a short rank itself
        return MatrixPropertyCheck(
            name, Conclusion.INCONCLUSIVE, "rank below tested order", f"rank={rk} < k={k}")
    p = _fekete_order(minors, k)
    if k == m:
        s = _order_summary(minors, m, p, tol)
        if s.verdict in _STRICT_OK:
            return MatrixPropertyCheck(
                name, Conclusion.CERTIFIED, "strict full-width sign consistency",
                f"epsilon={s.epsilon:+d}; also strictly variation bounding", strict=True)
        if rk < m:
            return MatrixPropertyCheck(
                name, Conclusion.INCONCLUSIVE, "full-width test needs full column rank",
                f"rank={rk}, verdict={s.verdict.value}")
        return _route_verdict(name, "full-width sign consistency at full column rank", minors, s)
    if rk == k:
        rule = "rank-k compound column sign test"
        rows = index_sets(n, k)
        # a Fekete order of k leaves every compound column positive
        for J in lex_tuples(m, k) if p < k else []:
            col = classify_family(minors.stream(rows, [J.elems]), backend, tol)
            if col.verdict is SignVerdict.MIXED:
                return MatrixPropertyCheck(name, Conclusion.REFUTED, rule,
                                           f"column {J} mixed: {_shown(minors, col.witness)}")
            if col.verdict is SignVerdict.INCONCLUSIVE:
                return MatrixPropertyCheck(name, Conclusion.INCONCLUSIVE, rule,
                                           f"column {J} has values inside tolerance")
        return MatrixPropertyCheck(
            name, Conclusion.CERTIFIED, rule,
            "every compound column is one-signed; bound holds for every input")
    # every k-minor positive: each k-column set has a nonzero minor
    if p < k and not _all_k_columns_independent(minors, k, tol):
        return MatrixPropertyCheck(
            name, Conclusion.INCONCLUSIVE, "dependent k-column subset",
            "no characterization applies; defer to the sampling oracle")
    s = _order_summary(minors, k, p, tol)
    return _route_verdict(name, "sign consistency with independent columns", minors, s,
                          f"epsilon={s.epsilon:+d}" if s.epsilon else "")


def _vb_fold(minors: Minors, orders, rk: int, tol: float) -> MatrixPropertyCheck | None:
    """The first ``_vb_check`` of ``minors``, of rank ``rk``, over ``orders``
    that refutes, else the first inconclusive one; None when every order
    certifies.  Stops at the first refutation."""
    first = None
    for check in (_vb_check(minors, j, rk, tol) for j in orders):
        if check.status is Conclusion.REFUTED:
            return check
        if first is None and check.status is Conclusion.INCONCLUSIVE:
            first = check
    return first


def vd_matrix_check(X: Matrix, k: int, tol: float = DEFAULT_TOL) -> MatrixPropertyCheck:
    """Decide whether X is (k-1)-variation diminishing where a characterization applies:
    total positivity up to order k certifies; else X is VD_(k-1) exactly when it is
    VB_(j-1) at every j <= k (``_vb_fold``), and a failing order names itself in the rule."""
    _check_tall(X, k)
    name = f"VD_{k - 1}"
    minors = Minors(X)
    p = _fekete_order(minors, k)
    if all(_order_summary(minors, j, p, tol).verdict in _POSITIVE_OK for j in range(1, k + 1)):
        return MatrixPropertyCheck(name, Conclusion.CERTIFIED, "total positivity",
                                   f"order-preserving VD_{k - 1} established")
    if check := _vb_fold(minors, range(1, k + 1), minors.rank(tol), tol):
        return MatrixPropertyCheck(name, check.status, f"{check.property_name}: {check.rule}",
                                   check.detail)
    return MatrixPropertyCheck(name, Conclusion.CERTIFIED, "VB_(j-1) at every order j <= k")
