"""Sampling oracle: falsify or corroborate variation-bounding claims.

Inputs of bounded variation are sampled with log-uniform magnitudes (the
hard cases sit near sign cancellations), pushed through the matrix or the
observability operator, and the output variation is measured.  Violations
replay deterministically from (seed, trial index); output entries inside the
float tolerance make a trial Suspect instead of a Violation.  Zero violations
never certify anything; this module only refutes or corroborates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import DEFAULT_TOL, Matrix
from .lti import LtiSystem, impulse_response
from .variation import v_minus, v_plus

_ZERO_FRACTION = 0.2
_LOG_MAG_RANGE = (-3.0, 3.0)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def sample_bounded_variation(m: int, k: int, rng: np.random.Generator) -> tuple[float, ...]:
    """Nonzero vector of length m with at most k sign changes.

    Chooses up to k breakpoints, alternates segment signs, draws magnitudes
    log-uniformly over [1e-3, 1e3], and zeroes a fixed fraction of entries to
    exercise zero handling.
    """
    if not 0 <= k <= m - 1:
        raise ValueError(f"need 0 <= k <= m-1, got m={m}, k={k}")
    breaks = int(rng.integers(0, k + 1))
    cuts = sorted(rng.choice(np.arange(1, m), size=breaks, replace=False)) if breaks else []
    sign = -1 if rng.integers(0, 2) else 1
    signs = np.empty(m)
    prev = 0
    for cut in list(cuts) + [m]:
        signs[prev:cut] = sign
        sign = -sign
        prev = cut
    mags = 10.0 ** rng.uniform(*_LOG_MAG_RANGE, size=m)
    u = signs * mags
    u[rng.random(m) < _ZERO_FRACTION] = 0.0  # exercise zero handling
    if not u.any():
        u[int(rng.integers(0, m))] = float(signs[0] * mags[0])
    return tuple(float(x) for x in u)


@dataclass
class Violation:
    trial: int
    u: tuple[float, ...]
    output_v_minus: int
    output_v_plus: int
    strict_only: bool  # only the strict (upper-variation) bound is broken


@dataclass
class OracleReport:
    trials: int
    k: int
    seed: int
    violations: list[Violation] = field(default_factory=list)
    suspects: list[int] = field(default_factory=list)  # trial indices near the tolerance

    @property
    def clean(self) -> bool:
        return not self.violations

    def nonstrict_violations(self) -> list[Violation]:
        return [v for v in self.violations if not v.strict_only]


def _judge(trial: int, u, y, k: int, tol: float,
           report: OracleReport) -> None:
    vm = v_minus(y, tol)
    vp = v_plus(y, tol)
    if vm >= k or vp >= k:
        if any(x != 0.0 and abs(x) <= tol for x in y):
            report.suspects.append(trial)
            return
        report.violations.append(Violation(trial, tuple(u), vm, vp, strict_only=vm < k))


def falsify_matrix_vb(X: Matrix, k: int, trials: int = 1000, seed: int = 0,
                      tol: float = DEFAULT_TOL) -> OracleReport:
    """Search for inputs with v-(u) <= k-1 whose image has variation >= k."""
    if not 1 <= k <= X.cols:
        raise ValueError(f"need 1 <= k <= cols, got k={k}")
    Xf = np.array(X.to_float().data, dtype=float)
    m = X.cols
    report = OracleReport(trials, k, seed)
    for trial in range(trials):
        u = sample_bounded_variation(m, k - 1, _trial_rng(seed, trial))
        y = Xf @ np.asarray(u)
        _judge(trial, u, tuple(float(v) for v in y), k, tol, report)
    return report


def falsify_operator_vb(A: Matrix, c: Sequence, k: int, horizon: int = 50,
                        trials: int = 1000, seed: int = 0,
                        tol: float = DEFAULT_TOL) -> OracleReport:
    """Search for initial states with v-(x0) <= k-1 whose output sequence
    (c A^(t-1) x0) over the horizon has variation >= k."""
    n = A.rows
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    Af = A.to_float()
    cf = tuple(float(x) for x in c)
    report = OracleReport(trials, k, seed)
    for trial in range(trials):
        x0 = sample_bounded_variation(n, k - 1, _trial_rng(seed, trial))
        y = impulse_response(LtiSystem(Af, x0, cf), horizon)
        _judge(trial, x0, y, k, tol, report)
    return report


def replay_trial(m: int, k: int, seed: int, trial: int) -> tuple[float, ...]:
    """Reproduce the sampled input of a given trial (for witness replay).

    ``k`` is the order an ``OracleReport`` carries: the trial's input has at
    most k-1 sign changes.
    """
    return sample_bounded_variation(m, k - 1, _trial_rng(seed, trial))
