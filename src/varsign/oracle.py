"""Sampling oracle: falsify or corroborate variation-bounding claims.

Inputs of bounded variation are sampled with log-uniform magnitudes (the
hard cases sit near sign cancellations), pushed through the matrix or the
observability operator, and the output variation is measured.  Violations
replay deterministically from (seed, trial index) at a given block size;
output entries inside the float tolerance, or NaN (``linalg.sign_of`` signs
neither), make a trial Suspect instead of a Violation.  Zero violations
never certify anything; this module only refutes or corroborates.

Trials run in blocks of ``_BLOCK``.  Block b is drawn at once, as arrays,
from one generator seeded with (seed, b), and trial j of the block is row j
of that draw; the last block is drawn whole and sliced, so a trial's input
does not depend on the trial count.  ``replay_trial`` regenerates the block,
or reuses the one it replayed last, and reads the row; a search always draws
afresh.

Both searches are one ``_search`` on a matrix M: the bare matrix X, or for
the operator O_H, whose rows c A^(t-1), t = 1..horizon, are the float
``output_rows`` of (A, c), as ``impulse_response`` reads them.  The outputs
of a block are M u for every input u of the block at once (``_outputs``),
each summed 0 + M[i][0] u_0 + M[i][1] u_1 + ... left to right with one numpy
operation per column of M.  Elementwise IEEE arithmetic in a fixed order gives
the same floats on every BLAS build, and an operator output equals the
sample ``impulse_response`` gives for that initial state; a matrix product
would be free to fuse or reorder the terms and round otherwise.

Each block is judged at once on its int8 matrix of output signs (entries
inside the float tolerance and NaN sign as 0, as ``variation`` signs them):
v- and v+ of every column are counted with array operations (``_variations``),
and only the trials whose variation reaches k go to ``_judge``, in order.

The package imports this module eagerly, so numpy is imported inside the
functions that use it: a run that searches nothing never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .linalg import DEFAULT_TOL, Matrix, NonSquareError, RankOutOfRangeError
from .lti import default_horizon, output_rows
# bound but not called: perfbench/tracing.py reports calls to this name from
# this module as the oracle.propagate layer, which thus reads 0, not missing
from .lti import impulse_response  # noqa: F401

_ZERO_FRACTION = 0.2
_LOG_MAG_RANGE = (-3.0, 3.0)
_BLOCK = 1024  # trials held in memory at once, whatever the trial count


def sample_bounded_variation(m: int, k: int, rng: np.random.Generator,
                             size: int) -> np.ndarray:
    """A (size, m) array whose rows are nonzero vectors with at most k sign
    changes, drawn independently.

    Each row takes a breakpoint count uniform on 0..k and that many cut
    positions among 1..m-1, uniformly without replacement (the positions
    whose random keys rank lowest); its segments alternate in sign from a
    random one.  Magnitudes are log-uniform over [1e-3, 1e3], and a fixed
    fraction of entries is zeroed to exercise zero handling; a row left all
    zero gets its first segment's sign and first magnitude at a random
    position.
    """
    import numpy as np

    if not 0 <= k <= m - 1:
        raise ValueError(f"need 0 <= k <= m-1, got m={m}, k={k}")
    breaks = rng.integers(0, k + 1, size)
    ranks = rng.random((size, m - 1)).argsort(axis=1).argsort(axis=1)
    cuts = ranks < breaks[:, None]  # column i: a cut before entry i + 1
    first = np.where(rng.integers(0, 2, size) == 1, -1.0, 1.0)
    flips = np.zeros((size, m), dtype=np.int64)
    np.cumsum(cuts, axis=1, out=flips[:, 1:])
    signs = np.where(flips & 1, -first[:, None], first[:, None])
    mags = 10.0 ** rng.uniform(*_LOG_MAG_RANGE, size=(size, m))
    u = signs * mags
    u[rng.random((size, m)) < _ZERO_FRACTION] = 0.0  # exercise zero handling
    fallback = rng.integers(0, m, size)
    empty = np.flatnonzero(~u.any(axis=1))
    u[empty, fallback[empty]] = first[empty] * mags[empty, 0]
    return u


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


def _judge(trial: int, u, vm: int, vp: int, k: int, near: bool,
           report: OracleReport) -> None:
    """Record a trial whose output variation reaches k, given its output's v-
    and v+: a suspect when an output entry is NaN, or nonzero yet inside the
    tolerance (``near``), else a violation."""
    if near:
        report.suspects.append(trial)
    else:
        report.violations.append(Violation(trial, tuple(u.tolist()), vm, vp,
                                           strict_only=vm < k))


def _draw_block(m: int, k: int, seed: int, block: int) -> np.ndarray:
    """The inputs of every trial of block ``block``, one row each: at most
    k-1 sign changes, ``_BLOCK`` rows whatever the trial count."""
    import numpy as np

    return sample_bounded_variation(m, k - 1, np.random.default_rng([seed, block]), _BLOCK)


def _variations(Y: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(v-, v+) of every column of ``Y``, as ``v_minus`` and ``v_plus`` with
    ``tol`` count the column's entries, read off the int8 sign matrix.

    Let consecutive nonzero signs s, s' of a column lie d rows apart.  v-
    counts the pairs with s s' = -1, and is -1 for a column of zeros.  The
    greedy fill of ``v_plus`` changes sign at every step between them, the
    last one excepted when s s' (-1)^d = -1, and at every step before the
    first and after the last nonzero sign; so v+ is rows - 1 less the number
    of such pairs.
    """
    import numpy as np

    signs = (Y > tol).astype(np.int8) - (Y < -tol).astype(np.int8)
    rows = np.arange(signs.shape[0], dtype=np.int32)[:, None]
    nonzero = signs != 0
    # the row of the last nonzero sign at or before each row; -1 for none
    last = np.maximum.accumulate(np.where(nonzero, rows, -1), axis=0)
    prev = last[:-1]
    closes = nonzero[1:] & (prev >= 0)  # a nonzero sign with one before it
    flip = signs[1:] * np.take_along_axis(signs, np.maximum(prev, 0), axis=0) < 0
    odd = ((rows[1:] - prev) & 1).astype(bool)
    vm = np.count_nonzero(closes & flip, axis=0)
    vm[~nonzero.any(axis=0)] = -1
    vp = signs.shape[0] - 1 - np.count_nonzero(closes & (flip != odd), axis=0)
    return vm, vp


def _outputs(M: np.ndarray, us: np.ndarray) -> np.ndarray:
    """M u for every row u of ``us``, one column each, summed left to right
    from 0 one column of M at a time; -0.0 comes out as 0.0."""
    import numpy as np

    Y = np.zeros((M.shape[0], len(us)))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as floats give
        for j in range(M.shape[1]):
            Y += M[:, j:j + 1] * us[:, j]
    return Y


def _search(M: np.ndarray, k: int, trials: int, seed: int, tol: float) -> OracleReport:
    """Judge M u for ``trials`` inputs u with at most k-1 sign changes,
    ``_BLOCK`` at a time; a block's trials whose output variation reaches k
    go to ``_judge`` in trial order."""
    import numpy as np

    report = OracleReport(trials, k, seed)
    for block, first in enumerate(range(0, trials, _BLOCK)):
        us = _draw_block(M.shape[1], k, seed, block)[:trials - first]
        Y = _outputs(M, us)
        vm, vp = _variations(Y, tol)
        near = np.any(np.isnan(Y) | (Y != 0.0) & (np.abs(Y) <= tol), axis=0)
        for j in np.flatnonzero(vp >= k):  # v- <= v+
            _judge(first + int(j), us[j], int(vm[j]), int(vp[j]), k, bool(near[j]), report)
    return report


def falsify_matrix_vb(X: Matrix, k: int, trials: int = 1000, seed: int = 0,
                      tol: float = DEFAULT_TOL) -> OracleReport:
    """Search for inputs with v-(u) <= k-1 whose image has variation >= k."""
    import numpy as np

    if not 1 <= k <= X.cols:
        raise RankOutOfRangeError(f"need 1 <= k <= cols, got k={k}, cols={X.cols}")
    return _search(np.array(X.to_float().data, dtype=float), k, trials, seed, tol)


def falsify_operator_vb(A: Matrix, c: Sequence, k: int, horizon: int | None = None,
                        trials: int = 1000, seed: int = 0,
                        tol: float = DEFAULT_TOL) -> OracleReport:
    """Search for initial states with v-(x0) <= k-1 whose output sequence
    (c A^(t-1) x0) over the horizon has variation >= k.  The horizon defaults
    to ``default_horizon(n)``, the one a certificate samples."""
    import numpy as np

    n = A.rows
    if horizon is None:
        horizon = default_horizon(n)
    if not 1 <= k <= n:
        raise RankOutOfRangeError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not A.is_square():
        raise NonSquareError("state matrix must be square")
    # output_rows rejects a horizon below 1 and a c of the wrong length
    return _search(np.array(output_rows(A.to_float(), c, horizon).rows), k, trials, seed, tol)


def replay_trial(m: int, k: int, seed: int, trial: int) -> tuple[float, ...]:
    """Reproduce the sampled input of a given trial (for witness replay) by
    regenerating its block.

    ``k`` is the order an ``OracleReport`` carries: the trial's input has at
    most k-1 sign changes.  The last block replayed is kept, so replaying the
    trials of one block in turn draws it once.
    """
    block, row = divmod(trial, _BLOCK)
    return tuple(_replayed_block(m, k, seed, block, _BLOCK)[row].tolist())


@lru_cache(maxsize=1)
def _replayed_block(m: int, k: int, seed: int, block: int, size: int) -> np.ndarray:
    """``_draw_block(m, k, seed, block)``, kept for the last key; ``size`` is
    ``_BLOCK`` at the call, so a block of another size is drawn afresh."""
    return _draw_block(m, k, seed, block)
