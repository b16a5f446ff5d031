import random
import sys
from fractions import Fraction

import pytest

from varsign.linalg import (
    Backend, Matrix, RankOutOfRangeError, compound, det, lex_tuples, minor, rank,
)
from varsign.lti import observability_matrix
import varsign.signcons as signcons
from varsign.signcons import (
    Conclusion,
    MatrixPropertyCheck,
    PreconditionError,
    SignVerdict,
    SingularLeadingBlockError,
    classify_family,
    consecutive_certificate,
    initial_minor_certificate,
    k_positive,
    pena_transform,
    reduced_check,
    reduced_family,
    sign_conclusion,
    sign_consistent,
    sign_regular,
    vb_matrix_check,
    vd_matrix_check,
    _all_k_columns_independent,
)

from conftest import cauchy_exact, random_exact, reverse_columns

PENA = Matrix.exact([[1, 1], [1, 2], [1, 3], [1, 4]])


def example2_obs3():
    A = Matrix.exact([["0.7", "0.6", "-2"], ["0.15", "0.15", "-0.25"], ["0", "0.03", "0.1"]])
    c = (Fraction("1.1"), Fraction("0.1"), Fraction("-5.5"))
    return observability_matrix(A, c, 3)


def test_sign_consistent_examples():
    assert sign_consistent(PENA, 2).verdict is SignVerdict.STRICTLY_POSITIVE
    assert sign_consistent(example2_obs3(), 1).verdict is SignVerdict.MIXED
    assert sign_consistent(Matrix.identity(3), 1).verdict is SignVerdict.NONNEGATIVE


def test_sign_regular_examples():
    assert sign_regular(PENA, 2, strict=True).passed
    assert not sign_regular(example2_obs3(), 1, strict=False).passed
    rep = sign_regular(Matrix.identity(2), 2, strict=False)
    assert rep.passed and rep.orders[1].verdict is SignVerdict.NONNEGATIVE


def test_k_positive_examples():
    assert k_positive(PENA, 2, strict=True).passed
    assert not k_positive(Matrix.exact([[1, -1], [1, 1]]), 1, strict=False).passed
    assert k_positive(Matrix.identity(3), 3, strict=False).passed
    assert not k_positive(Matrix.identity(3), 3, strict=True).passed
    # an all-zero top order is nonnegative
    ones = Matrix.exact([[1, 1], [1, 1], [1, 1]])
    assert k_positive(ones, 2, strict=False).passed
    assert vd_matrix_check(ones, 2).rule == "total positivity"


def test_sign_regular_allows_per_order_signs(rng):
    # columns reversed: order-1 minors positive, order-2 minors negative
    X = reverse_columns(cauchy_exact(rng, 5, 3))
    rep = sign_regular(X, 2, strict=True)
    assert rep.passed
    assert rep.orders[1].epsilon == 1
    assert rep.orders[2].epsilon == -1
    assert not k_positive(X, 2, strict=False).passed


@pytest.mark.parametrize("check", [
    sign_regular, k_positive,
    pytest.param(lambda X, k, strict: sign_consistent(X, k), id="sign_consistent")])
@pytest.mark.parametrize("k", [0, -2, 3, 5])
def test_ordered_checks_reject_orders_outside_the_shape(check, k):
    # PENA is 4 x 2, so the orders run over 1..2; an empty range must not pass
    with pytest.raises(RankOutOfRangeError, match=f"k={k} lies outside 1..2"):
        check(PENA, k, strict=False)


def test_sign_conclusion_folds_the_summaries():
    positive = sign_consistent(PENA, 2)
    mixed = sign_consistent(example2_obs3(), 1)
    unsure = classify_family([("tiny", 1e-12)], Backend.FLOAT)
    assert unsure.verdict is SignVerdict.INCONCLUSIVE
    assert sign_conclusion(True, [unsure]) is Conclusion.CERTIFIED
    assert sign_conclusion(False, [mixed, unsure]) is Conclusion.INCONCLUSIVE
    assert sign_conclusion(False, [positive, mixed]) is Conclusion.REFUTED


def test_consecutive_certificate():
    assert consecutive_certificate(PENA, 2).passed
    assert not consecutive_certificate(Matrix.exact([[1, -1], [1, 1]]), 1).passed
    # non-strict top order tolerates a zero consecutive top minor
    X = Matrix.exact([[1, 1, 1], [1, 2, 2], [1, 3, 3]])
    assert not consecutive_certificate(X, 2, strict_top=True).passed
    assert consecutive_certificate(X, 2, strict_top=False).passed


def test_consecutive_certificate_certifies_total_positivity(rng):
    X = cauchy_exact(rng, 5, 4)
    res = consecutive_certificate(X, 3, strict_top=True)
    assert res.passed
    for r in range(1, 4):
        assert sign_consistent(X, r).verdict is SignVerdict.STRICTLY_POSITIVE


def test_initial_minor_certificate_strict():
    res = initial_minor_certificate(PENA, strict_top=True)
    assert res.passed and res.conclusion == "strictly totally positive"
    assert not initial_minor_certificate(Matrix.identity(2), strict_top=True).passed
    bad = Matrix.exact([[1, 1], [-1, 2], [1, 3]])
    assert not initial_minor_certificate(bad, strict_top=True).passed


def test_initial_minor_pass_implies_every_minor_positive(rng):
    X = cauchy_exact(rng, 4, 4)
    assert initial_minor_certificate(X, strict_top=True).passed
    for r in range(1, 5):
        for I in lex_tuples(4, r):
            for J in lex_tuples(4, r):
                assert minor(X, I, J) > 0


def test_initial_minor_nonstrict_top():
    # a zero initial minor below the top order blocks even the relaxed form
    X = Matrix.exact([[1, 1, 1], [1, 2, 2], [1, 2, 2], [1, 3, 3]])
    assert not initial_minor_certificate(X, strict_top=True).passed
    assert not initial_minor_certificate(X, strict_top=False).passed
    # zero at the top order only: relaxed form passes, strict form does not
    Y = Matrix.exact([[1, 1], [1, 1], [1, 2]])
    assert not initial_minor_certificate(Y, strict_top=True).passed
    assert initial_minor_certificate(Y, strict_top=False).passed


def test_pena_transform_hand_values():
    out = pena_transform(PENA)
    assert out.sign == 1
    assert out.matrix == Matrix.exact([[2, 1], [3, 2]])
    assert det(out.matrix) == 1
    with pytest.raises(SingularLeadingBlockError):
        pena_transform(Matrix.exact([[1, 1], [1, 1], [1, 2]]))


def test_pena_transform_identity_head(rng):
    # with identity leading block, C is just the tail block times the
    # signed antidiagonal
    tail = random_exact(rng, 2, 2)
    X = Matrix.exact([[1, 0], [0, 1]] + [list(r) for r in tail.data])
    K = Matrix.exact([[0, -1], [1, 0]])
    assert pena_transform(X).matrix == tail @ K


def test_pena_bijection_exact(rng):
    for _ in range(10):
        X = random_exact(rng, 5, 2)
        try:
            out = pena_transform(X)
        except SingularLeadingBlockError:
            continue
        assert out.matrix.shape == (3, 2)
        seen = set()
        for r, alpha, beta, gamma in out.pairs():
            assert gamma.elems not in seen
            seen.add(gamma.elems)
            lhs = minor(X, gamma, (1, 2))
            rhs = minor(out.matrix, alpha, beta)
            assert lhs == out.head_det * rhs
            # in particular the signs agree up to the head-block sign
            if rhs != 0:
                assert (lhs > 0) == ((out.sign > 0) == (rhs > 0))
        # the map hits every full-width minor other than the head block
        expect = {t.elems for t in lex_tuples(5, 2)} - {(1, 2)}
        assert seen == expect


def test_reduced_family_pena_shape():
    fam = reduced_family(4, 2, 2, strict=True)
    alphas = {p.alpha.elems for p in fam}
    # the paper's six-entry worked list covers five distinct row sets
    assert alphas == {(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)}
    assert {p.beta.elems for p in fam} == {(1, 2)}
    assert all(p.strict_required for p in fam)


def test_reduced_family_k1_is_all_entries():
    fam = reduced_family(3, 2, 1, strict=True)
    assert {(p.alpha.elems, p.beta.elems) for p in fam} == {
        ((i,), (j,)) for i in (1, 2, 3) for j in (1, 2)}


def test_reduced_family_nonstrict_flags():
    fam = reduced_family(8, 4, 2, strict=False)
    relaxed = {(p.alpha.elems, p.beta.elems) for p in fam if not p.strict_required}
    expect_alphas = {(t, t + 1) for t in range(3, 8)}
    assert relaxed == {(a, (3, 4)) for a in expect_alphas}
    # full-width route: beta is the whole column set, alpha tails are relaxed
    fam_full = reduced_family(8, 4, 4, strict=False)
    relaxed_full = {p.alpha.elems for p in fam_full if not p.strict_required}
    assert relaxed_full == {tuple(range(t, t + 4)) for t in range(5, 6)}


def test_reduced_family_preconditions():
    with pytest.raises(PreconditionError):
        reduced_family(6, 3, 2, strict=False)  # needs 2k <= m
    with pytest.raises(PreconditionError):
        reduced_family(5, 3, 3, strict=False)  # needs n >= 2m
    with pytest.raises(PreconditionError):
        reduced_family(3, 3, 2, strict=True)  # needs n > m


def test_reduced_check_examples():
    res = reduced_check(PENA, 2, strict=True)
    assert res.certified and res.verdict is SignVerdict.STRICTLY_POSITIVE and res.epsilon == 1
    # reduced families need more rows than columns, so stack one more power row
    A = Matrix.exact([["0.7", "0.6", "-2"], ["0.15", "0.15", "-0.25"], ["0", "0.03", "0.1"]])
    c = (Fraction("1.1"), Fraction("0.1"), Fraction("-5.5"))
    res = reduced_check(observability_matrix(A, c, 4), 1, strict=True)
    assert res.verdict is SignVerdict.MIXED and not res.certified


def test_reduced_check_agrees_with_full_compound(rng):
    # strict equivalence on random and on structured matrices
    for trial in range(60):
        X = cauchy_exact(rng, 6, 3) if trial % 3 == 0 else random_exact(rng, 6, 3)
        for k in (1, 2, 3):
            full = sign_consistent(X, k)
            red = reduced_check(X, k, strict=True)
            assert red.certified == full.passes(strict=True), (trial, k)
            if red.certified:
                assert red.epsilon == full.epsilon


def test_reduced_check_nonstrict_sound(rng):
    hits = 0
    for trial in range(40):
        if trial % 2 == 0:
            X = cauchy_exact(rng, 8, 4)
        else:
            X = random_exact(rng, 8, 4)
        red = reduced_check(X, 2, strict=False)
        if red.certified:
            hits += 1
            assert sign_consistent(X, 2).passes(strict=False)
    assert hits > 0  # the structured draws must actually exercise the pass path


def test_reduced_check_nonstrict_with_exact_zero(rng):
    # make one interior row the average of its neighbours: the only vanishing
    # 3-minor is the fully consecutive tail (6,7,8), which is a relaxed pair,
    # while every anchored pair stays strictly positive
    parent = cauchy_exact(rng, 8, 3)
    rows = [list(r) for r in parent.data]
    rows[6] = [(a + b) / 2 for a, b in zip(rows[5], rows[7])]
    X = Matrix.exact(rows)
    assert minor(X, (6, 7, 8), (1, 2, 3)) == 0
    red = reduced_check(X, 3, strict=False)
    assert red.certified
    assert red.verdict is SignVerdict.NONNEGATIVE
    full = sign_consistent(X, 3)
    assert full.passes(strict=False)


def test_vb_matrix_check_rank_k_column_test():
    X = Matrix.exact([[1, -1], [2, -2], [3, -3]])
    res = vb_matrix_check(X, 1)
    assert res.status is Conclusion.CERTIFIED
    assert "column" in res.rule
    bad = Matrix.exact([[1, -1], [-1, 1], [1, -1]])
    res = vb_matrix_check(bad, 1)
    assert res.status is Conclusion.REFUTED


def test_vb_matrix_check_full_width():
    res = vb_matrix_check(PENA, 2)
    assert res.status is Conclusion.CERTIFIED and res.strict


def test_vb_matrix_check_independent_columns_route(rng):
    X = cauchy_exact(rng, 6, 4)
    res = vb_matrix_check(X, 2)
    assert res.status is Conclusion.CERTIFIED
    mixed = Matrix.exact([[1, 2, 1], [1, -1, 2], [2, 1, -1], [1, 1, 1]])
    assert rank(mixed) == 3
    res = vb_matrix_check(mixed, 1)
    assert res.status is Conclusion.REFUTED


def test_vb_matrix_check_undecidable_on_dependent_columns():
    # k = 1 below the rank with a zero column: no characterization applies
    X = Matrix.exact([[1, 0, 2], [2, 0, 3], [1, 0, 1], [3, 0, 5], [1, 0, 2]])
    assert rank(X) == 2
    res = vb_matrix_check(X, 1)
    assert res.status is Conclusion.INCONCLUSIVE
    assert "dependent" in res.rule


def test_vd_matrix_check_examples(rng):
    res = vd_matrix_check(PENA, 2)
    assert res.status is Conclusion.CERTIFIED
    assert res.rule == "total positivity"
    # mixed entries refute VD_0 through the sign-regularity route
    mixed = Matrix.exact([[1, 2], [-1, 1], [2, 1]])
    res = vd_matrix_check(mixed, 1)
    assert res.status is Conclusion.REFUTED
    # sign-regular but not positive: certified through the equivalence route
    X = reverse_columns(cauchy_exact(rng, 6, 4))
    res = vd_matrix_check(X, 2)
    assert res.status is Conclusion.CERTIFIED
    assert res.rule == "sign regularity with independent columns"


def _vd_reference(X, k, tol=1e-9):
    """vd_matrix_check as it was when it recomputed sign regularity via sign_regular."""
    name = f"VD_{k - 1}"
    kp = k_positive(X, k, strict=False, tol=tol)
    if kp.passed:
        return MatrixPropertyCheck(
            name, Conclusion.CERTIFIED, "total positivity",
            f"order-preserving VD_{k - 1} established")
    rk = rank(X, tol)
    if rk > k and _all_k_columns_independent(X, compound(X, k), k, tol):
        sr = sign_regular(X, k, strict=False, tol=tol)
        if sr.passed:
            return MatrixPropertyCheck(
                name, Conclusion.CERTIFIED, "sign regularity with independent columns")
        bad = next((j for j, s in sr.orders.items() if s.verdict is SignVerdict.MIXED), None)
        if bad is not None:
            return MatrixPropertyCheck(
                name, Conclusion.REFUTED, "sign regularity with independent columns",
                f"order {bad} minors are mixed: {sr.orders[bad].witness}")
        return MatrixPropertyCheck(
            name, Conclusion.INCONCLUSIVE, "sign regularity with independent columns",
            "minor signs inside tolerance")
    return MatrixPropertyCheck(
        name, Conclusion.INCONCLUSIVE, "hypothesis not met",
        f"rank={rk}; need rank > k with every {k} columns independent, "
        "and the total-positivity route did not apply")


def _tn_band(rng, n, m):
    """Totally nonnegative n x m matrix with zero minors: lower times upper positive bidiagonal."""
    L = Matrix.exact([[rng.randint(1, 3) if i - j in (0, 1) else 0 for j in range(n)]
                      for i in range(n)])
    U = Matrix.exact([[rng.randint(1, 3) if j - i in (0, 1) else 0 for j in range(m)]
                      for i in range(n)])
    return L @ U


def test_vd_matrix_check_matches_sign_regular_reference():
    rng = random.Random(8101)
    corpus = []
    for n, m in [(5, 3), (6, 4), (7, 5)]:
        corpus += [random_exact(rng, n, m), random_exact(rng, n, m, 0, 3, 2),
                   cauchy_exact(rng, n, m), reverse_columns(cauchy_exact(rng, n, m)),
                   reverse_columns(_tn_band(rng, n, m))]
    corpus += [X.to_float() for X in corpus[:6]]
    outcomes = set()
    for X in corpus:
        for k in range(1, X.cols + 1):
            got = vd_matrix_check(X, k)
            assert got == _vd_reference(X, k), (X, k)
            outcomes.add((got.status, got.rule))
    assert (Conclusion.CERTIFIED, "total positivity") in outcomes
    assert (Conclusion.CERTIFIED, "sign regularity with independent columns") in outcomes
    assert (Conclusion.REFUTED, "sign regularity with independent columns") in outcomes
    # sign regular with exact zero minors: certified only under the non-strict judgement
    banded = reverse_columns(_tn_band(rng, 5, 3))
    assert vd_matrix_check(banded, 2).rule == "sign regularity with independent columns"
    assert vd_matrix_check(banded, 2).status is Conclusion.CERTIFIED


@pytest.mark.parametrize("check", [vb_matrix_check, vd_matrix_check])
def test_vb_and_vd_checks_build_each_compound_once(monkeypatch, check):
    orders = []

    def counting_compound(X, r):
        orders.append(r)
        return compound(X, r)

    monkeypatch.setattr(signcons, "compound", counting_compound)
    rng = random.Random(3)
    # both below the rank with every k columns independent; neither totally positive
    cases = [(random_exact(rng, 8, 6), 3), (reverse_columns(cauchy_exact(rng, 6, 4)), 2)]
    for X, k in cases:
        orders.clear()
        res = check(X, k)
        assert k < rank(X) and res.rule != "total positivity"
        assert "independent columns" in res.rule
        assert orders and len(orders) == len(set(orders)), (check.__name__, orders)


def test_witness_text_is_str_at_any_size():
    """Witness details read as ``str(witness)``, also where ``str`` refuses
    the digits of a minor."""
    rng = random.Random(1409)
    witnesses = []
    for n, m in [(4, 3), (5, 3), (6, 4)]:
        for X in (random_exact(rng, n, m), random_exact(rng, n, m).to_float(),
                  reverse_columns(cauchy_exact(rng, n, m))):
            witnesses += [sign_consistent(X, k).witness for k in range(1, m + 1)]
    # a zero and a float entry inside tolerance: one-element witnesses
    witnesses += [sign_consistent(X, 1).witness for X in (PENA, Matrix.identity(3),
                                                           Matrix.identity(3).to_float())]
    big = Fraction(10 ** 5000 + 1, 3)
    witnesses.append(((((1, 2), (1, 3)), big), (((2, 3), (1, 2)), -big)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = [str(w) for w in witnesses]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [signcons._witness_text(w) for w in witnesses] == want
    assert {len(w) for w in witnesses} == {0, 1, 2}
