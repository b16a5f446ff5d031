from fractions import Fraction

import numpy as np
import pytest

from varsign.linalg import Matrix
from varsign.oracle import (
    OracleReport,
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


def test_zero_violations_is_not_certification():
    # the report is evidence, not a certificate: the clean flag merely means
    # no counterexample was sampled
    report = falsify_matrix_vb(PENA, 2, trials=10, seed=0)
    assert isinstance(report, OracleReport)
    assert report.clean and report.trials == 10
