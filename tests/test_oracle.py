import math
from fractions import Fraction

import numpy as np
import pytest

from varsign import oracle
from varsign.fixtures import path as fixture_path
from varsign.io import load_system_file
from varsign.linalg import (
    Backend,
    DEFAULT_TOL,
    Matrix,
    NonSquareError,
    RankOutOfRangeError,
    SizeMismatchError,
)
from varsign.lti import LtiSystem, default_horizon, impulse_response, observability_matrix
from varsign.oracle import (
    OracleReport,
    Violation,
    falsify_matrix_vb,
    falsify_operator_vb,
    replay_trial,
    sample_bounded_variation,
)
from varsign.signcons import SignVerdict, sign_consistent
from varsign.variation import v_minus, v_plus

PENA = Matrix.exact([[1, 1], [1, 2], [1, 3], [1, 4]])


def test_sampler_respects_variation_budget():
    for k in (0, 1, 2):
        block = sample_bounded_variation(5, k, np.random.default_rng([1, k]), 300)
        assert block.shape == (300, 5)
        for u in block.tolist():
            assert any(x != 0 for x in u)
            assert v_minus(u) <= k


def test_sampler_k0_single_sign():
    for u in sample_bounded_variation(6, 0, np.random.default_rng([2, 0]), 100).tolist():
        signs = {1 if x > 0 else -1 for x in u if x != 0}
        assert len(signs) == 1


def test_sampler_reaches_unconstrained_patterns():
    block = sample_bounded_variation(4, 3, np.random.default_rng([3, 0]), 400)
    assert {0, 1, 2, 3} <= {v_minus(u) for u in block.tolist()}


def test_sampler_validation():
    with pytest.raises(ValueError):
        sample_bounded_variation(4, 4, np.random.default_rng(0), 1)


def test_sampler_block_distribution(monkeypatch):
    """One seeded block per (m, k): nonzero rows within the budget, breakpoint
    counts near uniform on 0..k, every cut position in use, the zero fraction
    and the magnitude range.  With no entry zeroed, the signs of a row show
    its breakpoints and cuts."""
    size = 4096
    for m in range(2, 9):
        for k in range(m):
            u = sample_bounded_variation(m, k, np.random.default_rng([5, m, k]), size)
            assert u.shape == (size, m)
            assert u.any(axis=1).all()
            assert max(v_minus(row) for row in u.tolist()) <= k
            assert 0.17 <= np.mean(u == 0.0) <= 0.23, (m, k)
            mags = np.abs(u[u != 0.0])
            assert mags.min() >= 1e-3 and mags.max() <= 1e3
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_ZERO_FRACTION", 0.0)
                unzeroed = sample_bounded_variation(m, k, np.random.default_rng([5, m, k]), size)
            # the zero mask is drawn whatever the fraction: the same signs where
            # nonzero, but in a row left with one entry by the fallback
            drawn = (u != 0.0) & (np.count_nonzero(u, axis=1) > 1)[:, None]
            assert (np.sign(unzeroed) == np.sign(u))[drawn].all()
            cuts = np.sign(unzeroed[:, 1:]) != np.sign(unzeroed[:, :-1])
            counts = np.bincount(cuts.sum(axis=1), minlength=k + 1)
            share = size / (k + 1)
            spread = 5 * math.sqrt(share * (1 - 1 / (k + 1)))
            assert len(counts) == k + 1 and np.all(np.abs(counts - share) <= spread), (m, k, counts)
            if k:
                assert cuts.any(axis=0).all(), (m, k)


def test_falsify_matrix_pena_clean():
    report = falsify_matrix_vb(PENA, 2, trials=1000, seed=0)
    assert report.clean


def test_falsify_matrix_finds_violation():
    X = Matrix.exact([[1, -1], [-1, 1], [1, -1]])
    report = falsify_matrix_vb(X, 1, trials=500, seed=0)
    assert not report.clean
    v = report.violations[0]
    assert v.output_v_minus >= 1 or v.output_v_plus >= 1


def test_strict_only_violations_on_zero_column():
    # second column zero: v- of the image stays small but zeros let the
    # upper variation exceed the budget
    X = Matrix.exact([[1, 0], [1, 0], [1, 0]])
    report = falsify_matrix_vb(X, 1, trials=400, seed=3)
    assert report.violations
    assert all(v.strict_only for v in report.violations)
    assert any(v.output_v_plus >= 1 for v in report.violations)


def test_reports_reproducible():
    a = falsify_matrix_vb(PENA, 2, trials=200, seed=42)
    b = falsify_matrix_vb(PENA, 2, trials=200, seed=42)
    assert a.violations == b.violations and a.suspects == b.suspects
    X = Matrix.exact([[1, -1], [-1, 1], [1, -1]])
    r1 = falsify_matrix_vb(X, 1, trials=300, seed=7)
    r2 = falsify_matrix_vb(X, 1, trials=300, seed=7)
    assert [v.trial for v in r1.violations] == [v.trial for v in r2.violations]
    # every violation replays from (seed, trial)
    for v in r1.violations[:5]:
        assert replay_trial(2, r1.k, 7, v.trial) == v.u


def test_replay_draws_a_block_once(monkeypatch):
    """Replaying every trial of one block draws it once and gives its rows;
    a search, another block and another block size draw afresh."""
    m, k, seed = 3, 2, 11
    expected = [tuple(row) for row in oracle._draw_block(m, k, seed, 1).tolist()]
    draws = []

    def counted(*args):
        draws.append(args)
        return sample_bounded_variation(*args)

    monkeypatch.setattr(oracle, "sample_bounded_variation", counted)
    oracle._replayed_block.cache_clear()
    first = oracle._BLOCK
    assert [replay_trial(m, k, seed, first + j) for j in range(first)] == expected
    assert len(draws) == 1
    falsify_matrix_vb(Matrix.floating([[1.0, 2.0, 3.0]] * 4), k, trials=first, seed=seed)
    assert len(draws) == 2
    assert replay_trial(m, k, seed, first + 5) == expected[5] and len(draws) == 2
    replay_trial(m, k, seed, 0)
    assert len(draws) == 3
    monkeypatch.setattr(oracle, "_BLOCK", 7)
    replay_trial(m, k, seed, 0)
    assert len(draws) == 4


def test_falsify_operator_example_systems():
    A1 = Matrix.exact([["-1.20", "-1.50", "-1.88"], ["1.51", "1.75", "1.88"],
                       ["-0.16", "-0.01", "0.40"]])
    c1 = (Fraction("1.16"), Fraction("1.8"), Fraction("3"))
    assert falsify_operator_vb(A1, c1, 2, horizon=50, trials=500, seed=0).clean

    A2 = Matrix.exact([["0.7", "0.6", "-2"], ["0.15", "0.15", "-0.25"], ["0", "0.03", "0.1"]])
    c2 = (Fraction("1.1"), Fraction("0.1"), Fraction("-5.5"))
    assert falsify_operator_vb(A2, c2, 2, horizon=50, trials=500, seed=0).clean
    refutation = falsify_operator_vb(A2, c2, 1, horizon=50, trials=500, seed=0)
    assert not refutation.clean


def test_falsify_operator_default_horizon_is_the_certificate_horizon():
    # y(t) = x1 - 0.9^(t-1) x2 changes sign late when x2 >> x1 > 0; at n = 6
    # default_horizon gives 60 samples, and some states only turn after t = 50
    diag = (1.0, 0.9, 0.5, 0.5, 0.5, 0.5)
    A = Matrix.floating([[diag[i] if i == j else 0.0 for j in range(6)] for i in range(6)])
    c = (1.0, -1.0, 0.0, 0.0, 0.0, 0.0)
    assert default_horizon(6) == 60
    got = falsify_operator_vb(A, c, 1, trials=200, seed=0)
    assert got == falsify_operator_vb(A, c, 1, horizon=60, trials=200, seed=0)
    assert len(falsify_operator_vb(A, c, 1, horizon=50, trials=200, seed=0).violations) \
        < len(got.violations)


def test_falsify_operator_rejects_mismatched_shapes():
    with pytest.raises(NonSquareError):
        falsify_operator_vb(Matrix.floating([[0.5, 1.0]]), (1.0, 1.0), 1, trials=5)
    with pytest.raises(SizeMismatchError):
        falsify_operator_vb(Matrix.floating([[0.5, 0.0], [0.0, 0.5]]), (1.0,), 1, trials=5)
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        falsify_operator_vb(Matrix.floating([[0.5, 0.0], [0.0, 0.5]]), (1.0, 1.0), 1,
                            horizon=0, trials=5)


@pytest.mark.parametrize("k", [0, 3])
def test_falsify_order_outside_its_range_is_a_rank_error(k):
    """Both searches refuse a k outside 1..cols (1..n) with a
    ``RankOutOfRangeError`` naming k and its bound, still a ``ValueError``."""
    with pytest.raises(RankOutOfRangeError) as exc:
        falsify_matrix_vb(Matrix.floating([[1.0, 2.0]] * 3), k, trials=5)
    assert str(exc.value) == f"need 1 <= k <= cols, got k={k}, cols=2"
    A = Matrix.floating([[0.5, 0.0], [0.0, 0.25]])
    with pytest.raises(ValueError, match=rf"^need 1 <= k <= n, got k={k}, n=2$") as exc:
        falsify_operator_vb(A, (1.0, 1.0), k, trials=5)
    assert isinstance(exc.value, RankOutOfRangeError)


def test_nan_outputs_make_suspects_not_violations():
    # the outputs overflow to inf and then meet 0 * inf = nan; every finite
    # output of a trial has one sign, so only the NaN ones could make v+ reach k
    A = Matrix.floating([[1e300, 0], [0, 1e300]])
    report = falsify_operator_vb(A, (1.0, 1.0), 2, 50, 20, 0)
    assert report.violations == [] and report.suspects == list(range(20))
    u = replay_trial(2, 2, 0, 0)
    y = impulse_response(LtiSystem(A, u, (1.0, 1.0)), 50)
    assert any(math.isnan(x) for x in y)
    assert {x > 0 for x in y if math.isfinite(x) and x != 0.0} == {True}


def test_zero_violations_is_not_certification():
    # the report is evidence, not a certificate: the clean flag merely means
    # no counterexample was sampled
    report = falsify_matrix_vb(PENA, 2, trials=10, seed=0)
    assert isinstance(report, OracleReport)
    assert report.clean and report.trials == 10


# (alpha, beta, D): the benchmark's fixture twins (alpha A, beta c), or
# (D^-1 A D, c D) when D is given
_TWINS = ((1, 1, None), (2, 3, None), (Fraction(1, 2), Fraction(1, 1000), None),
          (1, Fraction(1, 10**6), None), (1, 1, (1, 2, 3)))
# cases of _detection_cases refuted within 1000 trials when every trial drew
# from its own generator, default_rng([seed, trial])
_DETECTION_FLOOR = 63


def _detection_cases():
    """(matrix or A, c or None, k, seed): the mixed 5x3 matrices of acceptance
    criterion 7 at every k (its sign-consistent ones cannot be refuted), and
    example1, example2 and their twins at k = 1..3 with the CLI's default
    seed."""
    npr = np.random.default_rng(71)
    for i in range(20):
        X = Matrix.floating(npr.normal(size=(5, 3)))
        if sign_consistent(X, 1).verdict is SignVerdict.MIXED:
            for k in (1, 2, 3):
                yield X, None, k, i
    for name in ("example1", "example2"):
        sf = load_system_file(fixture_path(name), Backend.EXACT)
        for alpha, beta, D in _TWINS:
            D = D or (1, 1, 1)
            A = Matrix.exact([[alpha * a * D[j] / D[i] for j, a in enumerate(row)]
                              for i, row in enumerate(sf.A.data)])
            c = tuple(beta * x * d for x, d in zip(sf.c, D))
            for k in (1, 2, 3):
                yield A, c, k, 0


def test_detection_does_not_drop():
    refuted = 0
    for X, c, k, seed in _detection_cases():
        report = (falsify_matrix_vb(X, k, 1000, seed) if c is None
                  else falsify_operator_vb(X, c, k, trials=1000, seed=seed))
        refuted += not report.clean
    assert refuted >= _DETECTION_FLOOR, refuted


def _reference_judge(trial, u, y, k, tol, report):
    """Reference: judge one trial's output with ``v_minus``/``v_plus``; a NaN
    output, like one inside the tolerance, makes the trial a suspect."""
    vm, vp = v_minus(y, tol), v_plus(y, tol)
    if vm >= k or vp >= k:
        if any(math.isnan(x) or x != 0.0 and abs(x) <= tol for x in y):
            report.suspects.append(trial)
        else:
            report.violations.append(Violation(trial, tuple(u), vm, vp, strict_only=vm < k))


def _per_trial_operator(A, c, k, horizon, trials, seed, tol=DEFAULT_TOL):
    """Reference: the operator oracle as one impulse_response per trial."""
    Af, cf = A.to_float(), tuple(float(x) for x in c)
    report = OracleReport(trials, k, seed)
    for trial in range(trials):
        x0 = replay_trial(A.rows, k, seed, trial)
        _reference_judge(trial, x0, impulse_response(LtiSystem(Af, x0, cf), horizon), k, tol, report)
    return report


def _per_trial_matrix(X, k, trials, seed, tol=DEFAULT_TOL):
    """Reference: the matrix oracle judging every trial."""
    Xf = np.array(X.to_float().data, dtype=float)
    report = OracleReport(trials, k, seed)
    for trial in range(trials):
        u = replay_trial(X.cols, k, seed, trial)
        _reference_judge(trial, u, tuple(float(v) for v in Xf @ np.asarray(u)), k, tol, report)
    return report


def _operator_cases():
    """(A, c, horizon, trials, seed) covering the float regimes of the oracle."""
    rng = np.random.default_rng(2024)
    dyadic = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    for n in range(1, 7):
        def rand(scale):
            return rng.uniform(-1, 1, (n, n)) * scale / n
        c = tuple(rng.uniform(-2, 2, n))
        yield Matrix.floating(rand(1.5)), c, 40, 30, n
        yield Matrix.floating(rand(0.4)), c, 60, 30, 10 + n            # tails inside tol
        yield Matrix.floating(rand(1e7)), c, 60, 20, 20 + n            # overflow to inf/nan
        yield (Matrix.floating(rng.choice(dyadic, (n, n))),            # exact entries
               tuple(rng.choice(dyadic, n)), 12, 30, 30 + n)
        yield Matrix.floating(rand(1.0)), (0.0,) * n, 7, 10, 40 + n    # c = 0
        # equal rows and c = (0.1, -0.1, 0, ...): later outputs cancel to 0.0
        # exactly, where a fused multiply-add leaves a rounding residue
        twin = rng.uniform(-1, 1, n)
        yield (Matrix.floating([twin] * n), (0.1, -0.1)[:n] + (0.0,) * (n - 2),
               9, 20, 50 + n)
        yield Matrix.floating(rand(1.5)), c, 1, 10, 60 + n              # horizon 1
        yield Matrix.floating(rand(1.5)), c, 5, 0, 70 + n               # no trials


def _matrix_cases():
    rng = np.random.default_rng(7)
    for rows, cols in ((1, 1), (3, 1), (4, 2), (3, 3), (6, 4), (7, 5), (8, 6)):
        yield Matrix.floating(rng.uniform(-1, 1, (rows, cols))), 40, rows
        zero_col = rng.uniform(0.5, 1, (rows, cols))
        zero_col[:, -1] = 0.0
        yield Matrix.floating(zero_col), 40, 10 + rows                  # strict-only
        yield Matrix.floating(rng.uniform(-1, 1, (rows, cols)) * 1e-13), 40, 20 + rows
        yield Matrix.floating(rng.choice((-1.0, 0.0, 1.0), (rows, cols))), 40, 30 + rows


def test_batched_operator_oracle_matches_per_trial_loop(monkeypatch):
    totals = {"violations": 0, "suspects": 0, "nonfinite": 0}
    for A, c, horizon, trials, seed in _operator_cases():
        for k in range(1, A.rows + 1):
            for block in (oracle._BLOCK, 7):
                monkeypatch.setattr(oracle, "_BLOCK", block)
                ref = _per_trial_operator(A, c, k, horizon, trials, seed)
                got = falsify_operator_vb(A, c, k, horizon, trials, seed)
                assert got.violations == ref.violations, (A.rows, k, seed, block)
                assert got.suspects == ref.suspects, (A.rows, k, seed, block)
                for v in got.violations:
                    assert replay_trial(A.rows, k, seed, v.trial) == v.u
                totals["violations"] += len(ref.violations)
                totals["suspects"] += len(ref.suspects)
        # bit for bit, the sign of zero included; ``output_rows`` turns the
        # numpy scalars of c into Python floats, so overflow raises no warning
        x0s = np.array([replay_trial(A.rows, A.rows, seed, t) for t in range(4)])
        O = observability_matrix(A, c, horizon)
        Y = oracle._outputs(np.array(O.data, dtype=float), x0s)
        for j, x0 in enumerate(x0s):
            g = impulse_response(LtiSystem(A, x0, c), horizon)
            assert [repr(y) for y in Y[:, j].tolist()] == [repr(y) for y in g]
            totals["nonfinite"] += not all(math.isfinite(y) for y in g)
    for X, trials, seed in _matrix_cases():
        for k in range(1, X.cols + 1):
            for block in (oracle._BLOCK, 7):
                monkeypatch.setattr(oracle, "_BLOCK", block)
                ref = _per_trial_matrix(X, k, trials, seed)
                got = falsify_matrix_vb(X, k, trials, seed)
                assert got.violations == ref.violations, (X.rows, X.cols, k, seed, block)
                assert got.suspects == ref.suspects, (X.rows, X.cols, k, seed, block)
                for v in got.violations:
                    assert replay_trial(X.cols, k, seed, v.trial) == v.u
                totals["violations"] += len(ref.violations)
                totals["suspects"] += len(ref.suspects)
    # the cases reach every branch of the judgement
    assert all(totals.values()), totals
    # a trial count across the real block boundary
    monkeypatch.undo()
    A = Matrix.floating([[0.5, -1.0], [0.25, 0.75]])
    trials = oracle._BLOCK + 9
    ref = _per_trial_operator(A, (1.0, -0.5), 1, 6, trials, 3)
    got = falsify_operator_vb(A, (1.0, -0.5), 1, 6, trials, 3)
    assert got.violations == ref.violations and got.suspects == ref.suspects
    assert any(v.trial >= oracle._BLOCK for v in got.violations)
    for v in got.violations:
        assert replay_trial(2, 1, 3, v.trial) == v.u


def test_block_variations_match_per_vector_counts():
    """The per-block v-/v+ equal ``v_minus``/``v_plus`` with ``tol`` on every
    column: zero columns, one-row blocks, leading and trailing zero runs,
    entries inside the tolerance, NaN and infinities."""
    tol = DEFAULT_TOL
    nan, inf = math.nan, math.inf
    columns = [
        (0.0, 0.0, 0.0, 0.0, 0.0),                  # all zero
        (0.0, -0.0, tol / 2, -tol, nan),            # all zero after signing
        (0.0, 0.0, 1.0, -1.0, 1.0),                 # leading zeros
        (1.0, -2.0, 0.0, 0.0, 0.0),                 # trailing zeros
        (1.0, 0.0, 1.0, 0.0, 0.0),                  # odd zero run, equal signs
        (1.0, 0.0, 0.0, 1.0, -1.0),                 # even zero run, equal signs
        (1.0, 0.0, -1.0, 0.0, 0.0),                 # odd zero run, opposite signs
        (-1.0, 0.0, 0.0, 1.0, 1.0),                 # even zero run, opposite signs
        (inf, nan, -inf, nan, inf),
        (2 * tol, -2 * tol, tol / 3, -inf, 0.0),
    ]
    blocks = [np.array(columns).T, np.array([[0.0, 1.0, -1.0, nan, inf, tol]])]
    rng = np.random.default_rng(19)
    values = (0.0, -0.0, 1.0, -1.0, tol / 2, -tol / 2, 2 * tol, nan, inf, -inf)
    for rows, cols in ((1, 1), (1, 30), (2, 50), (5, 200), (13, 300)):
        blocks.append(rng.choice(values, (rows, cols)))
        blocks.append(rng.choice(values, (rows, cols), p=[0.6] + [0.4 / 9] * 9))
    for Y in blocks:
        vm, vp = oracle._variations(Y, tol)
        for j in range(Y.shape[1]):
            y = tuple(Y[:, j].tolist())
            assert (vm[j], vp[j]) == (v_minus(y, tol), v_plus(y, tol)), y
