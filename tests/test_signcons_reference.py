"""The VB, VD and reduced-family checks against their branch-by-branch forms.

``vb_matrix_check``, ``vd_matrix_check`` and ``reduced_check`` judge their
sign summaries through one rule each.  The references below are the checks as
they stood before that rule, one branch per (route, verdict) pair, kept
verbatim; every field of every result must agree on seeded exact and float
matrices at every valid order.  The references read each minor's value
(``Minors.value``) as it is streamed, as the checks did before they read signs
off the streamed Bareiss integers, so their witnesses hold values.  VD is
total positivity, else the fold of the VB decision over the orders j <= k
(``conftest.vd_of_vb``), so its reference folds the VB reference's routes,
which take square matrices too.
"""

import random

from varsign.linalg import (
    DEFAULT_TOL, LinalgError, Matrix, Minors, RankOutOfRangeError, index_sets, lex_tuples,
)
from varsign.signcons import (
    _POSITIVE_OK,
    _STRICT_OK,
    Conclusion,
    MatrixPropertyCheck,
    ReducedCheckResult,
    SignSummary,
    SignVerdict,
    _all_k_columns_independent,
    _anchored_tuples,
    _fekete_order,
    _witness_text,
    classify_family,
    reduced_check,
    reduced_family,
    vb_matrix_check,
    vd_matrix_check,
)

from conftest import cauchy_exact, random_exact, reverse_columns, tn_band, vd_of_vb

_SIGNS_SEEN = {
    SignVerdict.MIXED: {1, -1},
    SignVerdict.STRICTLY_POSITIVE: {1},
    SignVerdict.NONNEGATIVE: {1},
    SignVerdict.STRICTLY_NEGATIVE: {-1},
    SignVerdict.NONPOSITIVE: {-1},
    SignVerdict.ZERO: set(),
}
_HAS_ZERO = {SignVerdict.NONNEGATIVE, SignVerdict.NONPOSITIVE, SignVerdict.ZERO}


def _valued_stream(minors, rows, cols):
    """``minors.stream(rows, cols)`` with each minor read as its value."""
    return ((key, minors.value(key)) for key, _ in minors.stream(rows, cols))


def _order_summary(minors, r, positive_through, tol):
    if r <= positive_through:
        return SignSummary(SignVerdict.STRICTLY_POSITIVE, 1)
    rows, cols = minors.shape
    return classify_family(_valued_stream(minors, index_sets(rows, r), index_sets(cols, r)),
                           minors.backend, tol)


def _reference_reduced(X, k, strict=True, tol=DEFAULT_TOL):
    family = reduced_family(X.rows, X.cols, k, strict)
    rows = [t.elems for t in _anchored_tuples(X.rows, k)]
    cols = [t.elems for t in _anchored_tuples(X.cols, k)]
    strict_vals, free_vals = [], []
    for pair, labeled in zip(family, _valued_stream(Minors(X), rows, cols)):
        (strict_vals if pair.strict_required else free_vals).append(labeled)
    base = classify_family(strict_vals, X.backend, tol)
    if base.verdict not in _STRICT_OK:
        return ReducedCheckResult(base.verdict, base.epsilon, False, base.witness)
    eps = base.epsilon
    if not free_vals:
        return ReducedCheckResult(base.verdict, eps, True)
    relaxed = classify_family(free_vals, X.backend, tol)
    if relaxed.verdict is SignVerdict.INCONCLUSIVE:
        return ReducedCheckResult(SignVerdict.INCONCLUSIVE, None, False, relaxed.witness)
    if _SIGNS_SEEN[relaxed.verdict] - {eps}:
        return ReducedCheckResult(SignVerdict.MIXED, None, False, relaxed.witness)
    if relaxed.verdict in _HAS_ZERO:
        verdict = SignVerdict.NONNEGATIVE if eps == 1 else SignVerdict.NONPOSITIVE
        return ReducedCheckResult(verdict, eps, True, relaxed.witness)
    return ReducedCheckResult(base.verdict, eps, True)


def _reference_vb(X, k, tol=DEFAULT_TOL):
    if X.rows < X.cols:
        raise RankOutOfRangeError(f"need rows >= cols, got shape {X.shape}")
    if not 1 <= k <= X.cols:
        raise RankOutOfRangeError(f"order {k} invalid for {X.shape}")
    return _reference_vb_routes(X, k, tol)


def _reference_vb_routes(X, k, tol=DEFAULT_TOL):
    """The VB decision past the shape guard, which ``vd_matrix_check`` also
    takes on square X."""
    n, m = X.rows, X.cols
    name = f"VB_{k - 1}"
    minors = Minors(X)
    rk = minors.rank(tol)
    p = _fekete_order(minors, k)
    if k == m:
        s = _order_summary(minors, m, p, tol)
        if s.verdict in _STRICT_OK:
            return MatrixPropertyCheck(
                name, Conclusion.CERTIFIED, "strict full-width sign consistency",
                f"epsilon={s.epsilon:+d}; also strictly variation bounding", strict=True)
        if rk == m:
            if s.verdict in (SignVerdict.NONNEGATIVE, SignVerdict.NONPOSITIVE, SignVerdict.ZERO):
                return MatrixPropertyCheck(
                    name, Conclusion.CERTIFIED, "full-width sign consistency at full column rank")
            if s.verdict is SignVerdict.MIXED:
                return MatrixPropertyCheck(
                    name, Conclusion.REFUTED, "full-width sign consistency at full column rank",
                    f"conflicting minors {_witness_text(s.witness)}")
            return MatrixPropertyCheck(
                name, Conclusion.INCONCLUSIVE, "full-width sign consistency at full column rank",
                "compound entries inside tolerance")
        return MatrixPropertyCheck(
            name, Conclusion.INCONCLUSIVE, "full-width test needs full column rank",
            f"rank={rk}, verdict={s.verdict.value}")
    if rk == k:
        rows = index_sets(n, k)
        col_sets = lex_tuples(m, k) if p < k else []
        for J in col_sets:
            col = classify_family(_valued_stream(minors, rows, [J.elems]), X.backend, tol)
            if col.verdict is SignVerdict.MIXED:
                return MatrixPropertyCheck(
                    name, Conclusion.REFUTED, "rank-k compound column sign test",
                    f"column {J} mixed: {_witness_text(col.witness)}")
            if col.verdict is SignVerdict.INCONCLUSIVE:
                return MatrixPropertyCheck(
                    name, Conclusion.INCONCLUSIVE, "rank-k compound column sign test",
                    f"column {J} has values inside tolerance")
        return MatrixPropertyCheck(
            name, Conclusion.CERTIFIED, "rank-k compound column sign test",
            "every compound column is one-signed; bound holds for every input")
    if k < rk:
        if p == k or _all_k_columns_independent(minors, k, tol):
            s = _order_summary(minors, k, p, tol)
            if s.passes(strict=False):
                return MatrixPropertyCheck(
                    name, Conclusion.CERTIFIED, "sign consistency with independent columns",
                    f"epsilon={s.epsilon:+d}" if s.epsilon else "", strict=s.verdict in _STRICT_OK)
            if s.verdict is SignVerdict.MIXED:
                return MatrixPropertyCheck(
                    name, Conclusion.REFUTED, "sign consistency with independent columns",
                    f"conflicting minors {_witness_text(s.witness)}")
            return MatrixPropertyCheck(
                name, Conclusion.INCONCLUSIVE, "sign consistency with independent columns",
                "compound entries inside tolerance")
        return MatrixPropertyCheck(
            name, Conclusion.INCONCLUSIVE, "dependent k-column subset",
            "no characterization applies; defer to the sampling oracle")
    return MatrixPropertyCheck(
        name, Conclusion.INCONCLUSIVE, "rank below tested order",
        f"rank={rk} < k={k}")


def _reference_vd(X, k, tol=DEFAULT_TOL):
    n, m = X.rows, X.cols
    if n < m:
        raise RankOutOfRangeError(f"need rows >= cols, got shape {X.shape}")
    if not 1 <= k <= m:
        raise RankOutOfRangeError(f"order {k} invalid for {X.shape}")
    name = f"VD_{k - 1}"
    minors = Minors(X)
    p = _fekete_order(minors, k)
    orders = {}
    for j in range(1, k + 1):
        orders[j] = _order_summary(minors, j, p, tol)
        if orders[j].verdict not in _POSITIVE_OK:
            break
    else:
        return MatrixPropertyCheck(
            name, Conclusion.CERTIFIED, "total positivity",
            f"order-preserving VD_{k - 1} established")
    return vd_of_vb(k, (_reference_vb_routes(X, j, tol) for j in range(1, k + 1)))


_NEAR_TOL = (5e-10, -5e-10, 1e-12, 2e-9, -2e-9)


def _near_tol(rng, X):
    """A float copy of X with a third of its entries moved to either side of
    the tolerance band, so that minors of every order land near it."""
    rows = [[float(x) for x in row] for row in X.data]
    for row in rows:
        for j in range(len(row)):
            if rng.random() < 1 / 3:
                row[j] = rng.choice(_NEAR_TOL)
    return Matrix.floating(rows)


def _corpus():
    """(kind, matrix) pairs of every kind, exact and float."""
    rng = random.Random(2028)
    corpus = []
    for n, m in [(2, 1), (3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (5, 2), (6, 2), (3, 3),
                 (4, 3), (5, 3), (6, 3), (7, 3), (4, 4), (5, 4), (6, 4), (8, 4)]:
        for _ in range(2):
            exact = [("random", random_exact(rng, n, m)),
                     ("random", random_exact(rng, n, m, 0, 3, 2)),
                     ("cauchy", cauchy_exact(rng, n, m)),
                     ("reversed", reverse_columns(cauchy_exact(rng, n, m))),
                     ("sign-regular", reverse_columns(tn_band(rng, n, m)))]
            if m > 2:
                two = random_exact(rng, n, 2)
                exact.append(("rank-deficient", Matrix.exact(
                    [list(r) + [r[0] - r[1]] * (m - 2) for r in two.data])))
            if m > 1:
                cols = [list(r) for r in random_exact(rng, n, m).data]
                z = rng.randrange(m)
                exact.append(("dependent", Matrix.exact([r[:z] + [0] + r[z + 1:] for r in cols])))
            corpus += exact + [(kind, X.to_float()) for kind, X in exact]
            corpus += [("near-tol", _near_tol(rng, X)) for _, X in exact[:3]]
    return corpus


def _outcome(check, *args):
    try:
        return check(*args)
    except LinalgError as exc:  # an order or shape outside the check's hypotheses
        return type(exc), str(exc)


def _relaxed_outcome(X, k, got):
    """How the relaxed pairs of a non-strict reduced family decided ``got``:
    "zero", "opposite" or "inconclusive"; None when they did not decide it."""
    relaxed = {(p.alpha.elems, p.beta.elems)
               for p in reduced_family(X.rows, X.cols, k, strict=False) if not p.strict_required}
    if any(label not in relaxed for label, _ in got.witness):
        return None  # the strict-required pairs decided
    if got.verdict is SignVerdict.MIXED:
        return "opposite"
    if got.verdict is SignVerdict.INCONCLUSIVE:
        return "inconclusive"
    return "zero" if got.certified and got.witness else None


def test_checks_match_their_branch_by_branch_references():
    corpus = _corpus()
    assert len(corpus) >= 300
    assert {kind for kind, _ in corpus} == {"random", "cauchy", "reversed", "sign-regular",
                                           "rank-deficient", "dependent", "near-tol"}
    outcomes = set()
    for kind, X in corpus:
        n, m = X.shape
        for k in range(1, m + 1):
            for check, reference in ((vb_matrix_check, _reference_vb),
                                     (vd_matrix_check, _reference_vd)):
                got = _outcome(check, X, k)
                assert got == _outcome(reference, X, k), (check.__name__, kind, X, k)
                if isinstance(got, MatrixPropertyCheck):
                    outcomes.add((check.__name__, got.status, got.rule))
            if n <= m:
                continue
            for strict in (True, False):
                got = _outcome(reduced_check, X, k, strict)
                assert got == _outcome(_reference_reduced, X, k, strict), (kind, X, k, strict)
                if not strict and isinstance(got, ReducedCheckResult):
                    outcomes.add(("relaxed", _relaxed_outcome(X, k, got)))
    for outcome in [
            ("vb_matrix_check", Conclusion.INCONCLUSIVE, "sign consistency with independent columns"),
            ("vb_matrix_check", Conclusion.INCONCLUSIVE, "rank below tested order"),
            ("vb_matrix_check", Conclusion.INCONCLUSIVE, "full-width test needs full column rank"),
            ("vd_matrix_check", Conclusion.CERTIFIED, "VB_(j-1) at every order j <= k"),
            ("vd_matrix_check", Conclusion.REFUTED,
             "VB_1: sign consistency with independent columns"),
            ("vd_matrix_check", Conclusion.INCONCLUSIVE,
             "VB_2: sign consistency with independent columns"),
            ("relaxed", "zero"), ("relaxed", "opposite"), ("relaxed", "inconclusive")]:
        assert outcome in outcomes, outcome
