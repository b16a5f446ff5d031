"""Sampling oracle: falsify or corroborate variation-bounding claims.

Inputs of bounded variation are sampled with log-uniform magnitudes (the
hard cases sit near sign cancellations), pushed through the matrix or the
observability operator, and the output variation is measured.  Violations
replay deterministically from (seed, trial index); output entries inside the
float tolerance make a trial Suspect instead of a Violation.  Zero violations
never certify anything; this module only refutes or corroborates.

Trials run in blocks of ``_BLOCK``.  Each trial is sampled alone, from its own
generator, so ``replay_trial`` rebuilds it whatever the block size.  The
operator outputs of a block are propagated together, one numpy column per
trial, with the multiply-adds of ``impulse_response`` in its order: an output
is 0 + c_0 x_0 + c_1 x_1 + ... left to right and a new state entry is
A[i][0] x_0 + A[i][1] x_1 + ... left to right.  Elementwise IEEE arithmetic in
the same order gives the same floats, so every sample equals the per-trial
one; a matrix product would be free to fuse or reorder the terms and round
otherwise.

Only candidate trials reach ``_judge``.  With every entry signed against the
tolerance, an adjacent pair of entries can add a sign change to v+ only when
it is not a pair of equal nonzero signs, so the number of such pairs bounds
v+ from above, and v- <= v+.  A trial with fewer than k of them has v- and v+
below k: ``_judge`` would record it as neither a violation nor a suspect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import DEFAULT_TOL, Matrix, NonSquareError, SizeMismatchError
# bound but not called: perfbench/tracing.py reports calls to this name from
# this module as the oracle.propagate layer, which thus reads 0, not missing
from .lti import impulse_response  # noqa: F401
from .variation import v_minus, v_plus

_ZERO_FRACTION = 0.2
_LOG_MAG_RANGE = (-3.0, 3.0)
_BLOCK = 1024  # trials held in memory at once, whatever the trial count


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


def _blocks(m: int, k: int, trials: int, seed: int):
    """(first trial, inputs) for consecutive blocks of at most ``_BLOCK`` trials."""
    for first in range(0, trials, _BLOCK):
        yield first, [sample_bounded_variation(m, k - 1, _trial_rng(seed, trial))
                      for trial in range(first, min(first + _BLOCK, trials))]


def _judge_block(first: int, inputs: list, Y: np.ndarray, k: int, tol: float,
                 report: OracleReport) -> None:
    """Judge, in trial order, the trials of a block that may reach variation k.

    Column j of ``Y`` is the output of trial ``first + j``.  The screen is the
    v+ bound of the module docstring: the trials it skips are ones ``_judge``
    would record as nothing.
    """
    signs = (Y > tol).astype(np.int8) - (Y < -tol).astype(np.int8)
    open_pairs = np.count_nonzero((signs[1:] != signs[:-1]) | (signs[1:] == 0), axis=0)
    for j in np.flatnonzero(open_pairs >= k):
        _judge(first + int(j), inputs[j], tuple(Y[:, j].tolist()), k, tol, report)


def falsify_matrix_vb(X: Matrix, k: int, trials: int = 1000, seed: int = 0,
                      tol: float = DEFAULT_TOL) -> OracleReport:
    """Search for inputs with v-(u) <= k-1 whose image has variation >= k."""
    if not 1 <= k <= X.cols:
        raise ValueError(f"need 1 <= k <= cols, got k={k}")
    Xf = np.array(X.to_float().data, dtype=float)
    report = OracleReport(trials, k, seed)
    for first, us in _blocks(X.cols, k, trials, seed):
        # one product per trial: a batched product may round differently
        Y = np.array([Xf @ np.asarray(u) for u in us]).T
        _judge_block(first, us, Y, k, tol, report)
    return report


def _propagate_block(A: Matrix, c: tuple[float, ...], x0s: list,
                     horizon: int) -> np.ndarray:
    """Outputs of ``impulse_response(LtiSystem(A, x0, c), horizon)`` for every
    x0 of ``x0s``: a (horizon, len(x0s)) array whose column j holds exactly
    the floats the reference gives for ``x0s[j]``.

    Row 0 of ``M`` is c and rows 1..n are A, so one elementwise pass over the
    columns of the state gives the output and the next state, each entry
    summed left to right as ``impulse_response`` and ``Matrix.matvec`` do.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    M = np.array((c,) + A.data, dtype=float)
    x = np.array(x0s, dtype=float).T
    Y = np.empty((horizon, x.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as floats give
        for t in range(horizon):
            z = M[:, :1] * x[0]
            z[0] += 0.0  # the output sum starts from 0, which turns -0.0 into 0.0
            for j in range(1, len(c)):
                z += M[:, j:j + 1] * x[j]
            Y[t] = z[0]
            x = z[1:]
    return Y


def falsify_operator_vb(A: Matrix, c: Sequence, k: int, horizon: int = 50,
                        trials: int = 1000, seed: int = 0,
                        tol: float = DEFAULT_TOL) -> OracleReport:
    """Search for initial states with v-(x0) <= k-1 whose output sequence
    (c A^(t-1) x0) over the horizon has variation >= k."""
    n = A.rows
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    if not A.is_square():
        raise NonSquareError("state matrix must be square")
    cf = tuple(float(x) for x in c)
    if len(cf) != n:
        raise SizeMismatchError("c must have the state dimension")
    Af = A.to_float()
    report = OracleReport(trials, k, seed)
    for first, x0s in _blocks(n, k, trials, seed):
        _judge_block(first, x0s, _propagate_block(Af, cf, x0s, horizon), k, tol, report)
    return report


def replay_trial(m: int, k: int, seed: int, trial: int) -> tuple[float, ...]:
    """Reproduce the sampled input of a given trial (for witness replay).

    ``k`` is the order an ``OracleReport`` carries: the trial's input has at
    most k-1 sign changes.
    """
    return sample_bounded_variation(m, k - 1, _trial_rng(seed, trial))
