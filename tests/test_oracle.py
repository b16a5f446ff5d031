import math
from fractions import Fraction

import numpy as np
import pytest

from varsign import oracle
from varsign.linalg import DEFAULT_TOL, Matrix, NonSquareError, SizeMismatchError
from varsign.lti import LtiSystem, impulse_response
from varsign.oracle import (
    OracleReport,
    _judge,
    falsify_matrix_vb,
    falsify_operator_vb,
    replay_trial,
    sample_bounded_variation,
)
from varsign.variation import v_minus

PENA = Matrix.exact([[1, 1], [1, 2], [1, 3], [1, 4]])


def test_sampler_respects_variation_budget():
    for k in (0, 1, 2):
        for trial in range(300):
            u = sample_bounded_variation(5, k, np.random.default_rng([1, trial]))
            assert any(x != 0 for x in u)
            assert v_minus(u) <= k


def test_sampler_k0_single_sign():
    for trial in range(100):
        u = sample_bounded_variation(6, 0, np.random.default_rng([2, trial]))
        signs = {1 if x > 0 else -1 for x in u if x != 0}
        assert len(signs) == 1


def test_sampler_reaches_unconstrained_patterns():
    seen = set()
    for trial in range(400):
        u = sample_bounded_variation(4, 3, np.random.default_rng([3, trial]))
        seen.add(v_minus(u))
    assert {0, 1, 2, 3} <= seen


def test_sampler_validation():
    with pytest.raises(ValueError):
        sample_bounded_variation(4, 4, np.random.default_rng(0))


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


def test_falsify_operator_rejects_mismatched_shapes():
    with pytest.raises(NonSquareError):
        falsify_operator_vb(Matrix.floating([[0.5, 1.0]]), (1.0, 1.0), 1, trials=5)
    with pytest.raises(SizeMismatchError):
        falsify_operator_vb(Matrix.floating([[0.5, 0.0], [0.0, 0.5]]), (1.0,), 1, trials=5)


def test_zero_violations_is_not_certification():
    # the report is evidence, not a certificate: the clean flag merely means
    # no counterexample was sampled
    report = falsify_matrix_vb(PENA, 2, trials=10, seed=0)
    assert isinstance(report, OracleReport)
    assert report.clean and report.trials == 10


def _per_trial_operator(A, c, k, horizon, trials, seed, tol=DEFAULT_TOL):
    """Reference: the operator oracle as one impulse_response per trial."""
    Af, cf = A.to_float(), tuple(float(x) for x in c)
    report = OracleReport(trials, k, seed)
    for trial in range(trials):
        x0 = sample_bounded_variation(A.rows, k - 1, np.random.default_rng([seed, trial]))
        _judge(trial, x0, impulse_response(LtiSystem(Af, x0, cf), horizon), k, tol, report)
    return report


def _per_trial_matrix(X, k, trials, seed, tol=DEFAULT_TOL):
    """Reference: the matrix oracle judging every trial."""
    Xf = np.array(X.to_float().data, dtype=float)
    report = OracleReport(trials, k, seed)
    for trial in range(trials):
        u = sample_bounded_variation(X.cols, k - 1, np.random.default_rng([seed, trial]))
        _judge(trial, u, tuple(float(v) for v in Xf @ np.asarray(u)), k, tol, report)
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
            ref = _per_trial_operator(A, c, k, horizon, trials, seed)
            for block in (oracle._BLOCK, 7):
                monkeypatch.setattr(oracle, "_BLOCK", block)
                got = falsify_operator_vb(A, c, k, horizon, trials, seed)
                assert got.violations == ref.violations, (A.rows, k, seed, block)
                assert got.suspects == ref.suspects, (A.rows, k, seed, block)
            for v in got.violations:
                assert replay_trial(A.rows, k, seed, v.trial) == v.u
            totals["violations"] += len(ref.violations)
            totals["suspects"] += len(ref.suspects)
        # bit for bit, the sign of zero included
        x0s = [replay_trial(A.rows, A.rows, seed, t) for t in range(4)]
        Y = oracle._propagate_block(A, tuple(c), x0s, horizon)
        for j, x0 in enumerate(x0s):
            g = impulse_response(LtiSystem(A, x0, c), horizon)
            assert [repr(y) for y in Y[:, j].tolist()] == [repr(y) for y in g]
            totals["nonfinite"] += not all(math.isfinite(y) for y in g)
    for X, trials, seed in _matrix_cases():
        for k in range(1, X.cols + 1):
            ref = _per_trial_matrix(X, k, trials, seed)
            for block in (oracle._BLOCK, 7):
                monkeypatch.setattr(oracle, "_BLOCK", block)
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
