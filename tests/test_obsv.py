import math
import random
from fractions import Fraction

import pytest

from varsign.linalg import IndexTuple, Matrix, det, inverse, lex_tuples, minor
from varsign.lti import ExtPosStatus, LtiSystem, impulse_response, observability_matrix
import varsign.obsv as obsv
from varsign.obsv import (
    Conclusion,
    NotObservableError,
    beta_family,
    certify_controllability,
    certify_hankel,
    certify_k_positive,
    certify_observability,
    certify_svb,
    certify_vb,
    certify_vd,
    compound_system,
    eigen_necessary_check,
    full_compound_systems,
    impulse_variation_bound,
)
from varsign.signcons import CheckStatus, vd_matrix_check
from varsign.variation import v_minus

from conftest import observable_pair


def example1():
    A = Matrix.exact([["-1.20", "-1.50", "-1.88"], ["1.51", "1.75", "1.88"],
                      ["-0.16", "-0.01", "0.40"]])
    c = (Fraction("1.16"), Fraction("1.8"), Fraction("3"))
    return A, c


def example2():
    A = Matrix.exact([["0.7", "0.6", "-2"], ["0.15", "0.15", "-0.25"], ["0", "0.03", "0.1"]])
    c = (Fraction("1.1"), Fraction("0.1"), Fraction("-5.5"))
    return A, c


def example3_hankel_pair():
    """State transform mapping the truncated Hankel operator of the Jordan and
    rotation system onto an observability matrix (float backend)."""
    th = math.pi / math.sqrt(2)
    Abar = Matrix.floating([
        [1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [0, 1, 1, 0, 0],
        [0, 0, 0, math.cos(th), -math.sin(th)], [0, 0, 0, math.sin(th), math.cos(th)]])
    bbar = (1.0,) * 5
    cbar = (1.0, 1.0, 1.0, 0.001, 0.001)
    cols, x = [], bbar
    for _ in range(5):
        cols.append(x)
        x = Abar.matvec(x)
    T = Matrix.floating(list(zip(*cols)))
    Tinv = inverse(T)
    return Tinv @ Abar @ T, T.vecmat(cbar), LtiSystem(Abar, bbar, cbar)


def test_full_order_systems_scalar_case():
    A = Matrix.floating([[0.7]])
    (cs,) = full_compound_systems(A, (1.0,))
    g = impulse_response(cs.system, 6)
    assert all(abs(g[t] - 0.7 ** t) < 1e-12 for t in range(6))


def test_full_order_systems_trace_anchored_minors(rng):
    # impulse responses equal det(M_r[t]) / det(O_n) with M_r stacking the
    # leading block over the shifted trailing block
    A, c = observable_pair(rng, 3)
    d = det(observability_matrix(A, c, 3))
    ON = observability_matrix(A, c, 12)
    for cs in full_compound_systems(A, c):
        g = impulse_response(cs.system, 5)
        for t in range(1, 6):
            alpha = tuple(range(1, 3 - cs.r + 1)) + tuple(range(3 - cs.r + t, 3 + t))
            assert g[t - 1] * d == minor(ON, alpha, (1, 2, 3))


def test_compound_system_defining_identity_exact(rng):
    for _ in range(6):
        n = rng.choice([2, 3])
        A, c = observable_pair(rng, n)
        ON = observability_matrix(A, c, n + 6)
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                for beta in lex_tuples(n, k):
                    cs = compound_system(A, c, k, r, beta)
                    g = impulse_response(cs.system, 6)
                    for t in range(1, 7):
                        alpha = tuple(range(1, k - r + 1)) + tuple(range(k - r + t, k + t))
                        assert g[t - 1] == minor(ON, alpha, beta)


def test_compound_system_r_equals_k_first_sample(rng):
    A, c = observable_pair(rng, 3)
    for beta in lex_tuples(3, 2):
        cs = compound_system(A, c, 2, 2, beta)
        g = impulse_response(cs.system, 1)
        assert g[0] == minor(observability_matrix(A, c, 2), (1, 2), beta)


def test_not_observable_raises():
    A = Matrix.exact([[1, 0], [0, 1]])
    with pytest.raises(NotObservableError):
        full_compound_systems(A, (1, 0))
    with pytest.raises(NotObservableError):
        compound_system(A, (1, 0), 1, 1, IndexTuple(2, (1,)))


def test_beta_family_examples():
    fam = beta_family(3, 2)
    assert [e.beta.elems for e in fam] == [(1, 2), (1, 3), (2, 3)]
    assert all(not e.relaxed for e in fam)
    assert [e.beta.elems for e in beta_family(4, 4)] == [(1, 2, 3, 4)]
    relaxed = {e.beta.elems for e in beta_family(5, 2, strict=False) if e.relaxed}
    assert relaxed == {(3, 4), (4, 5)}


def test_certify_svb_example2():
    A, c = example2()
    cert = certify_svb(A, c, 2)
    assert cert.conclusion is Conclusion.CERTIFIED
    assert cert.common_sign == 1
    assert cert.property_name == "SVB_1"
    assert len(cert.per_system) == 6
    assert certify_svb(A, c, 1).conclusion is Conclusion.REFUTED


def test_certify_svb_scalar_trivial():
    cert = certify_svb(Matrix.floating([[0.5]]), (1.0,), 1)
    assert cert.conclusion is Conclusion.CERTIFIED


def test_certify_svb_example2_float_backend():
    A, c = example2()
    cert = certify_svb(A.to_float(), tuple(float(x) for x in c), 2)
    assert cert.conclusion is Conclusion.CERTIFIED
    assert cert.common_sign == 1


def test_certify_svb_free_family_sign(rng):
    # decreasing positive spectrum with unit output: order-2 minors of the
    # observability matrix are negative, so the family sign is -1
    A = Matrix.exact([[Fraction(4, 5), 0, 0], [0, Fraction(2, 5), 0], [0, 0, Fraction(1, 5)]])
    c = (1, 1, 1)
    cert = certify_svb(A, c, 2)
    assert cert.conclusion is Conclusion.CERTIFIED
    assert cert.common_sign == -1


def test_certify_vb_strict_subsumes_nonstrict_at_full_order():
    A = Matrix.exact([[Fraction(4, 5), 0, 0], [0, Fraction(2, 5), 0], [0, 0, Fraction(1, 5)]])
    c = (1, 1, 1)
    assert certify_svb(A, c, 3).conclusion is Conclusion.CERTIFIED
    cert = certify_vb(A, c, 3)
    assert cert.conclusion is Conclusion.CERTIFIED


def test_certify_vb_exempt_trace_touching_zero():
    # the relaxed column set {2} carries the trace (1, 0, 0, ...): nonneg
    # with a strictly signed first sample
    A = Matrix.exact([[Fraction(1, 2), 0], [0, 0]])
    cert = certify_vb(A, (1, 1), 1)
    assert cert.conclusion is Conclusion.CERTIFIED
    relaxed = [sv for sv in cert.per_system if sv.relaxed]
    assert len(relaxed) == 1
    assert relaxed[0].verdict.status is ExtPosStatus.NONNEGATIVE


def test_certify_vb_never_refutes():
    A, c = example2()
    cert = certify_vb(A, c, 1)  # the strict family is mixed, so no decision
    assert cert.conclusion is Conclusion.INCONCLUSIVE


def test_certify_k_positive_example1():
    A, c = example1()
    cert = certify_k_positive(A, c, 2, strict=True)
    assert cert.conclusion is Conclusion.CERTIFIED
    assert cert.common_sign == 1
    assert {(sv.r, sv.beta.elems) for sv in cert.per_system} == {
        (1, (1,)), (1, (2,)), (1, (3,)),
        (2, (1, 2)), (2, (1, 3)), (2, (2, 3))}
    for sv in cert.per_system:
        assert all(x > 0 for x in sv.verdict.samples[:10])


def test_certify_k_positive_refuted_on_mixed_entries():
    A, c = example2()
    cert = certify_k_positive(A, c, 1, strict=False)
    assert cert.conclusion is Conclusion.REFUTED


def test_certify_vd_levels():
    A, c = example1()
    cert = certify_vd(A, c, 2)
    assert cert.property_name == "VD_1"
    assert cert.conclusion in (Conclusion.CERTIFIED, Conclusion.INCONCLUSIVE)


def test_strict_changes_only_the_kpos_requirements():
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            for prop in ("svb", "vb"):
                assert obsv._rules(prop, n, k, strict=False) == obsv._rules(prop, n, k)
            _, strict_reqs, _, _ = obsv._rules("kpos", n, k)
            _, relaxed_reqs, _, _ = obsv._rules("kpos", n, k, strict=False)
            changed = [a for a, b in zip(strict_reqs, relaxed_reqs) if a != b]
            assert changed and all(req[0] == k and req[3] for req in changed)


@pytest.mark.parametrize("prop", ["svb", "vb", "vd"])
def test_nonstrict_rejected_outside_kpos(prop):
    A, c = example2()
    b = (1, 1, 1)
    with pytest.raises(ValueError, match="kpos only"):
        certify_observability(A, c, 2, prop, strict=False)
    with pytest.raises(ValueError, match="kpos only"):
        certify_controllability(A, b, 2, prop, strict=False)
    with pytest.raises(ValueError, match="kpos only"):
        certify_hankel(A, b, c, 2, prop, strict=False)


def _count_engine_work(monkeypatch):
    contexts, analysed = [], []
    init, analyse = obsv._OperatorContext.__init__, obsv.analyse

    def counting_init(self, *args, **kwargs):
        contexts.append(self)
        init(self, *args, **kwargs)

    def counting_analyse(sys, *args, **kwargs):
        analysed.append(sys)
        return analyse(sys, *args, **kwargs)

    monkeypatch.setattr(obsv._OperatorContext, "__init__", counting_init)
    monkeypatch.setattr(obsv, "analyse", counting_analyse)
    return contexts, analysed


def test_engine_analyses_each_system_once(monkeypatch):
    contexts, analysed = _count_engine_work(monkeypatch)
    A, c = example2()
    cert = certify_vd(A, c, 3)
    # svb and vb share their family at every order, so the final systems of
    # each order are all the systems there are
    assert len(contexts) == 1
    assert len(analysed) == len({(sv.k, sv.r, sv.beta) for sv in cert.per_system})

    contexts.clear()
    analysed.clear()
    A, c = example1()
    impulse_variation_bound(A, c, c)
    n = A.rows
    keys = n + sum(k * len(beta_family(n, k)) for k in range(1, n))
    assert len(contexts) == 1
    assert 0 < len(analysed) <= keys


def test_example3_hankel_route():
    A, c, barsys = example3_hankel_pair()
    # observability matrix of the constructed pair is the Hankel matrix
    O6 = observability_matrix(A, c, 6)
    g = impulse_response(barsys, 12)
    assert max(abs(O6[i, j] - g[i + j]) for i in range(6) for j in range(5)) < 1e-8
    # the truncated Hankel matrix certifies VD_1 through sign regularity
    H = Matrix.floating([[float(g[i + j]) for j in range(5)] for i in range(6)])
    res = vd_matrix_check(H, 2)
    assert res.status is CheckStatus.CERTIFIED
    # the operator pipeline stays honest: traces sample positive/negative but
    # the defective dominant eigenvalue leaves the tail uncovered
    cert = certify_svb(A, c, 2, horizon=30)
    assert cert.conclusion is Conclusion.INCONCLUSIVE


def test_eigen_screen_examples():
    ok = eigen_necessary_check(Matrix.floating([[3, 0, 0], [0, 2, 0], [0, 0, -1]]), 2)
    assert ok.passed
    bad = eigen_necessary_check(Matrix.floating([[3, 0, 0], [0, -2, 0], [0, 0, 1]]), 2)
    assert not bad.passed and bad.refutes and bad.diagonalizable
    _, _, barsys = example3_hankel_pair()
    screen = eigen_necessary_check(barsys.A, 2)
    assert not screen.passed
    assert not screen.refutes  # tie on the modulus shell, advisory only
    assert not screen.diagonalizable


def test_eigen_screen_certified_implies_pass(rng):
    A = Matrix.exact([[Fraction(4, 5), 0, 0], [0, Fraction(2, 5), 0], [0, 0, Fraction(1, 5)]])
    c = (1, 1, 1)
    for k in (1, 2, 3):
        if certify_svb(A, c, k).conclusion is Conclusion.CERTIFIED:
            assert eigen_necessary_check(A, k).passed


def test_impulse_variation_bound_example1():
    A, c = example1()
    b = (1, -1, -1)
    report = impulse_variation_bound(A, b, c)
    assert report.input_variation == 1
    assert report.bound == 1
    assert report.measured <= 1


def test_impulse_variation_bound_example2():
    # any input direction with at most one sign change is bounded at level 1
    A, c = example2()
    for b in [(1, 1, -2), (3, -1, -1), (1, 2, 3)]:
        assert v_minus(b) <= 1
        report = impulse_variation_bound(A, b, c)
        assert report.bound == 1 or (report.bound is not None and report.bound < 1)
        assert report.measured <= report.bound


def test_impulse_variation_bound_zero_input():
    A, c = example1()
    report = impulse_variation_bound(A, (0, 0, 0), c)
    assert report.input_variation == -1
    assert report.measured == -1
    assert report.bound is not None and report.bound >= -1


def test_controllability_transpose_symmetry():
    # symmetric A with b = c makes both operators identical
    A = Matrix.exact([[Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 4), Fraction(1, 3)]])
    v = (1, 2)
    obs = certify_svb(A, v, 1)
    ctrb = certify_controllability(A, v, 1, "svb")
    assert ctrb.target == "controllability"
    assert obs.conclusion is ctrb.conclusion
    assert obs.common_sign == ctrb.common_sign


def test_hankel_sufficiency_both_factors():
    A = Matrix.exact([[Fraction(1, 2), 0], [Fraction(1, 4), Fraction(1, 5)]])
    b = (1, 1)
    c = (1, 1)
    cert = certify_hankel(A, b, c, 1, "svb")
    assert cert.observability.conclusion is Conclusion.CERTIFIED
    assert cert.controllability.conclusion is Conclusion.CERTIFIED
    assert cert.conclusion is Conclusion.CERTIFIED
    # a refuted factor leaves the product undecided, never refuted
    A2, c2 = example2()
    cert2 = certify_hankel(A2, (1, 1, 1), c2, 1, "svb")
    assert cert2.conclusion is Conclusion.INCONCLUSIVE


def test_certified_svb_agrees_with_finite_matrix_check(rng):
    from varsign.signcons import SignVerdict, sign_consistent

    pairs = 0
    while pairs < 12:
        n = rng.choice([2, 3])
        A, c = observable_pair(rng, n)
        pairs += 1
        for k in range(1, n + 1):
            finite = sign_consistent(observability_matrix(A, c, 12), k)
            cert = certify_svb(A, c, k, horizon=40)
            if finite.verdict is SignVerdict.MIXED:
                assert cert.conclusion is Conclusion.REFUTED
            elif finite.verdict in (SignVerdict.STRICTLY_POSITIVE,
                                    SignVerdict.STRICTLY_NEGATIVE):
                assert cert.conclusion is not Conclusion.REFUTED


def test_oracle_corroborates_certified_svb(rng):
    from varsign.oracle import falsify_operator_vb

    A, c = example2()
    assert certify_svb(A, c, 2).conclusion is Conclusion.CERTIFIED
    report = falsify_operator_vb(A, c, 2, horizon=40, trials=300, seed=5)
    assert report.clean


def _random_certifiable_pair(rng, n):
    # distinct positive spectrum with unit output: certifiable at every order
    lams = sorted({Fraction(rng.randint(1, 9), 10) for _ in range(n)}, reverse=True)
    while len(lams) < n:
        lams.append(lams[-1] / 2)
    A = Matrix.exact([[lams[i] if i == j else Fraction(0) for j in range(n)]
                      for i in range(n)])
    return A, tuple(Fraction(1) for _ in range(n))


def test_certified_operators_survive_oracle_and_matrix_checks(rng):
    # over 50 observable pairs: every issued certificate withstands 1000
    # sampling trials, and the conclusion agrees with the finite matrix check
    # whenever the latter is decisive
    from varsign.oracle import falsify_operator_vb
    from varsign.signcons import SignVerdict, sign_consistent

    certified = 0
    for trial in range(50):
        n = rng.choice([2, 3, 4])
        if trial % 3 == 0:
            A, c = _random_certifiable_pair(rng, n)
        else:
            A, c = observable_pair(rng, n)
        for k in range(1, n + 1):
            cert = certify_svb(A, c, k, horizon=40)
            finite = sign_consistent(observability_matrix(A, c, 12), k)
            if finite.verdict is SignVerdict.MIXED:
                assert cert.conclusion is Conclusion.REFUTED, (n, k)
            elif finite.verdict in (SignVerdict.STRICTLY_POSITIVE,
                                    SignVerdict.STRICTLY_NEGATIVE):
                assert cert.conclusion is not Conclusion.REFUTED, (n, k)
            if cert.conclusion is Conclusion.CERTIFIED:
                certified += 1
                report = falsify_operator_vb(A, c, k, horizon=40, trials=1000,
                                             seed=1000 + trial)
                assert report.clean, (n, k, report.violations[:1])
                screen = eigen_necessary_check(A, k)
                if screen.diagonalizable:
                    assert screen.passed, (n, k, screen.reason)
    assert certified >= 10
