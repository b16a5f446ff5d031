import math
import random
import re
from fractions import Fraction
from functools import reduce
from operator import matmul, mul

import numpy as np
import pytest

import varsign.lti as lti
from varsign.linalg import Backend, Matrix, NonSquareError, sign_of
from varsign.lti import (
    ExtPosAnalysis,
    ExtPosStatus,
    ExtPosVerdict,
    LtiSystem,
    TailCertificate,
    analyse,
    default_horizon,
    dominant_tail,
    eigen_sorted,
    external_positivity,
    impulse_response,
    judge,
    minimal_recurrence_system,
    observability_matrix,
    output_rows,
)


def _matrix_power(A, p):
    return reduce(matmul, [A] * p, Matrix.identity(A.rows, A.backend))


def example2_pair():
    A = Matrix.exact([["0.7", "0.6", "-2"], ["0.15", "0.15", "-0.25"], ["0", "0.03", "0.1"]])
    c = (Fraction("1.1"), Fraction("0.1"), Fraction("-5.5"))
    return A, c


def example3_system():
    th = math.pi / math.sqrt(2)
    A = Matrix.floating([
        [1, 0, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 0, 0, math.cos(th), -math.sin(th)],
        [0, 0, 0, math.sin(th), math.cos(th)],
    ])
    return LtiSystem(A, (1.0,) * 5, (1.0, 1.0, 1.0, 0.001, 0.001))


def test_impulse_scalar_system():
    sys = LtiSystem(Matrix.floating([[0.5]]), (1.0,), (1.0,))
    g = impulse_response(sys, 6)
    assert g == tuple(0.5 ** t for t in range(6))


def test_impulse_matches_closed_form_example3():
    th = math.pi / math.sqrt(2)
    g = impulse_response(example3_system(), 20)
    assert abs(g[0] - 3.002) < 1e-12
    for t in range(1, 21):
        closed = t / 2 + 0.002 * math.cos(th * (t - 1)) + t * t / 2 + 2
        assert abs(g[t - 1] - closed) < 1e-9


def test_impulse_equals_explicit_matrix_powers_exact():
    A, c = example2_pair()
    b = (Fraction(1), Fraction(-2), Fraction("0.5"))
    sys = LtiSystem(A, b, c)
    g = impulse_response(sys, 10)
    for t in range(1, 11):
        At = _matrix_power(A, t - 1)
        assert g[t - 1] == sum(ci * xi for ci, xi in zip(c, At.matvec(b)))


def test_observability_matrix_example2():
    A, c = example2_pair()
    O3 = observability_matrix(A, c, 3)
    assert O3.row(0) == c
    assert O3.row(1) == (Fraction("0.785"), Fraction("0.51"), Fraction("-2.775"))
    # row recursion
    O5 = observability_matrix(A, c, 5)
    for i in range(4):
        assert O5.row(i + 1) == A.vecmat(O5.row(i))


def test_observability_matrix_validation():
    A, c = example2_pair()
    assert observability_matrix(A, c, 1).row(0) == c
    with pytest.raises(ValueError):
        observability_matrix(A, c, 0)


def test_eigen_sorted_descending_modulus_then_real():
    spec = eigen_sorted(Matrix.floating([[1, 0, 0], [0, -2, 0], [0, 0, 3]]))
    assert [round(l.real) for l in spec] == [3, -2, 1]


def test_eigen_sorted_rotation_tiebreak():
    spec = eigen_sorted(Matrix.floating([[0, -1], [1, 0]]))
    assert abs(spec.eigenvalues[0] - 1j) < 1e-12
    assert abs(spec.eigenvalues[1] + 1j) < 1e-12


def test_eigen_sorted_example3_modulus_shell():
    spec = eigen_sorted(example3_system().A)
    # all moduli equal one; the three real units come first, then the
    # conjugate pair with positive imaginary part first
    assert all(abs(abs(l) - 1) < 1e-9 for l in spec)
    assert all(abs(l - 1) < 1e-9 for l in spec.eigenvalues[:3])
    assert spec.eigenvalues[3].imag > 0 > spec.eigenvalues[4].imag
    assert spec.eigenvalues[3].real < 1


def test_eigen_sorted_similarity_invariant():
    A = Matrix.floating([[0.5, 1.0, 0], [0, 0.25, 2.0], [0, 0, -0.75]])
    P = Matrix.floating([[0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]])
    Pinv = Matrix.floating(np.linalg.inv(np.array(P.data)))
    before = eigen_sorted(A).eigenvalues
    after = eigen_sorted(P @ A @ Pinv).eigenvalues
    assert all(abs(a - b) < 1e-8 for a, b in zip(before, after))
    again = eigen_sorted(A).eigenvalues
    assert before == again


def test_external_positivity_simple_decay():
    v = external_positivity(LtiSystem(Matrix.floating([[0.5]]), (1.0,), (1.0,)))
    assert v.status is ExtPosStatus.STRICT_POSITIVE
    assert v.tail_start == 1
    assert v.horizon == default_horizon(1) == 50


def test_external_positivity_violation_witness():
    v = external_positivity(LtiSystem(Matrix.floating([[-0.5]]), (1.0,), (1.0,)))
    assert v.status is ExtPosStatus.VIOLATED
    assert v.first_violation[0] == 2
    assert abs(v.first_violation[1] + 0.5) < 1e-12


def test_external_positivity_example3_defective_dominance():
    # positive samples but a Jordan block at the dominant eigenvalue: the
    # simple-dominance bound does not apply, so only the horizon is covered
    v = external_positivity(example3_system(), strict=True, horizon=40)
    assert v.status is ExtPosStatus.HORIZON_ONLY
    assert all(x > 0 for x in v.samples)
    assert v.tail is None
    assert any("gap" in note for note in v.notes)


def test_external_positivity_strict_negative():
    v = external_positivity(LtiSystem(Matrix.floating([[0.5]]), (1.0,), (-2.0,)))
    assert v.status is ExtPosStatus.STRICT_NEGATIVE
    assert v.sign == -1


def test_external_positivity_exact_zero_sample_strict_vs_nonstrict():
    # g = (1, 0, 0, ...) exactly
    A = Matrix.exact([[Fraction(1, 2), 0], [0, 0]])
    sys = LtiSystem(A, (Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
    strict = external_positivity(sys, strict=True)
    assert strict.status is ExtPosStatus.VIOLATED
    assert strict.first_violation[0] == 2
    relaxed = external_positivity(sys, strict=False)
    assert relaxed.status is ExtPosStatus.NONNEGATIVE
    assert any("trailing zeros" in n for n in relaxed.notes)


def test_external_positivity_identically_zero():
    A = Matrix.exact([[1, 0], [0, 1]])
    sys = LtiSystem(A, (1, 0), (0, 1))
    assert external_positivity(sys, strict=False).status is ExtPosStatus.NONNEGATIVE
    assert external_positivity(sys, strict=True).status is ExtPosStatus.VIOLATED


def test_tail_bound_holds_and_grows():
    A, c = example2_pair()
    sys = LtiSystem(A.to_float(), (1.0, 1.0, 1.0), tuple(float(x) for x in c))
    tail, note = dominant_tail(sys)
    assert tail is not None, note
    assert tail.margin(tail.start) > 0
    margins = [tail.margin(t) for t in range(tail.start, tail.start + 6)]
    assert all(b > a for a, b in zip(margins, margins[1:]))


def test_minimal_recurrence_reduction_unblocks_inactive_dominant_mode():
    # only the smallest eigenvalue is active in this trace; the full-matrix
    # analysis sees a dominant mode with zero residue, the exact reduction
    # recovers an order-1 realization
    A = Matrix.exact([[Fraction(4, 5), 0], [0, Fraction(1, 5)]])
    sys = LtiSystem(A, (0, 1), (1, 1))
    g = impulse_response(sys, 50)
    red = minimal_recurrence_system(sys, g)
    assert red is not None and red.n == 1
    assert impulse_response(red, 12) == g[:12]
    v = external_positivity(sys, strict=True)
    assert v.status is ExtPosStatus.STRICT_POSITIVE
    assert any("reduction" in n for n in v.notes)


def _forbid_tail_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tail work on a system whose samples already refute")

    monkeypatch.setattr(lti, "dominant_tail", refuse)
    monkeypatch.setattr(lti, "minimal_recurrence_system", refuse)


@pytest.mark.parametrize("backend", [Backend.EXACT, Backend.FLOAT])
def test_mixed_samples_skip_the_tail(monkeypatch, backend):
    # g = (0, 1, -1/4, ...): both strict signs by t = 3
    A = Matrix.exact([["0.5", "1"], ["0", "-0.75"]])
    if backend is Backend.FLOAT:
        A = A.to_float()
    sys = LtiSystem(A, (0, 1), (1, 0))
    _forbid_tail_work(monkeypatch)
    analysis = analyse(sys, 12)
    assert analysis.tail is None and analysis.notes == ()
    g, signs = analysis.samples, analysis.signs
    first_pos, first_neg = signs.index(1) + 1, signs.index(-1) + 1
    assert (first_pos, first_neg) == (2, 3)
    for strict in (True, False):
        v = judge(analysis, strict)
        assert v.status is ExtPosStatus.VIOLATED
        t = max(first_pos, first_neg)
        assert v.first_violation == (t, g[t - 1])
        assert v.tail is None and v.sample_sign is None


def test_one_signed_samples_still_reach_the_tail(monkeypatch):
    calls = []

    def counting_tail(*args, **kwargs):
        calls.append(args[0])
        return dominant_tail(*args, **kwargs)

    monkeypatch.setattr(lti, "dominant_tail", counting_tail)
    sys = LtiSystem(Matrix.exact([["0.5", "0.1"], ["0", "0.25"]]), (1, 1), (1, 1))
    analysis = analyse(sys, 12)
    assert calls == [sys]
    assert analysis.tail is not None
    v = judge(analysis)
    assert v.status is ExtPosStatus.STRICT_POSITIVE
    assert v.tail_start is not None


def test_lti_system_validation():
    with pytest.raises(NonSquareError):
        LtiSystem(Matrix.exact([[1, 2]]), (1,), (1,))
    with pytest.raises(ValueError):
        LtiSystem(Matrix.identity(2), (1,), (1, 2))


# ---------------------------------------------------- exact hot-path references

def _power_reference(sys, N):
    """g(t) = c A^(t-1) b from explicit matrix powers."""
    return tuple(sum(ci * xi for ci, xi in zip(sys.c, _matrix_power(sys.A, t - 1).matvec(sys.b)))
                 for t in range(1, N + 1))


def _float_loop_reference(sys, N):
    """Float impulse response by the plain state-propagation loop."""
    x, out = sys.b, []
    for _ in range(N):
        out.append(sum(ci * xi for ci, xi in zip(sys.c, x)))
        x = sys.A.matvec(x)
    return tuple(out)


@pytest.mark.parametrize("A, b, c, N", [
    ([["1/3", "2/7", 0], ["-5/6", "1/2", "-2/7"], [1, "-1/3", "5/6"]],
     ("2/7", "-1/3", 1), ("5/6", "1/2", "-3/7"), 12),
    ([["1/3", "2/7"], ["-5/6", "1/2"]], (0, 0), ("1/3", 1), 6),
    ([["1/3", "2/7"], ["-5/6", "1/2"]], ("1/3", 1), (0, 0), 6),
    ([["1/3", "2/7"], ["-5/6", "1/2"]], ("1/3", "-2/7"), ("5/6", 1), 1),
    ([["-5/6"]], ("2/7",), ("-1/3",), 9),
    ([[2, -1, 0], [1, 0, 3], [0, -2, 1]], ("1/3", "-5/6", "2/7"), (1, "1/2", -1), 10),
    ([[2, -1], [1, 3]], (1, -2), (3, 1), 8),
])
def test_exact_impulse_matches_matrix_powers(A, b, c, N):
    sys = LtiSystem(Matrix.exact(A), b, c)
    g = impulse_response(sys, N)
    assert g == _power_reference(sys, N)
    assert all(type(x) is Fraction for x in g)


def test_float_impulse_is_bit_identical_to_loop_reference():
    rng = random.Random(11)
    for n in range(1, 6):
        A = Matrix.floating([[rng.uniform(-1.2, 1.2) for _ in range(n)] for _ in range(n)])
        b = tuple(rng.uniform(-1, 1) for _ in range(n))
        c = tuple(rng.uniform(-1, 1) for _ in range(n))
        sys = LtiSystem(A, b, c)
        assert impulse_response(sys, 40) == _float_loop_reference(sys, 40)
    assert impulse_response(example3_system(), 30) == _float_loop_reference(example3_system(), 30)


def _fraction_samples_reference(sys, N):
    """Exact samples as ``impulse_response`` built them before it kept them
    as integers: one reduced Fraction(w_t (D_b b), D_b dens[t-1]) each."""
    rows = output_rows(sys.A, sys.c, N)
    db = math.lcm(*(x.denominator for x in sys.b))
    b = [x.numerator * (db // x.denominator) for x in sys.b]
    return tuple(Fraction(sum(map(mul, w, b)), den * db)
                 for w, den in zip(rows.rows[:N], rows.dens))


@pytest.mark.parametrize("A, b, c, N", [
    ([["1/3", "2/7", 0], ["-5/6", "1/2", "-2/7"], [1, "-1/3", "5/6"]],
     ("2/7", "-1/3", 1), ("5/6", "1/2", "-3/7"), 12),
    ([["1/3", "2/7"], ["-5/6", "1/2"]], (0, 0), ("1/3", 1), 6),
    ([["0.7", "0.6", "-2"], ["0.15", "0.15", "-0.25"], ["0", "0.03", "0.1"]],
     ("1", "-0.5", "0.25"), ("1.1", "0.1", "-5.5"), 30),
    ([[0, 0, 0], [1, 0, 0], [0, 1, "-0.5"]], (1, 0, 0), (0, 0, 1), 9),
    ([["-5/6"]], ("2/7",), ("-1/3",), 1),
    ([["1e400", "0"], ["1", "0.25"]], ("1", "-1"), ("1", "1"), 20),
])
def test_exact_samples_equal_the_fraction_construction(A, b, c, N):
    sys = LtiSystem(Matrix.exact(A), b, c)
    for rows in (None, output_rows(sys.A, sys.c, N + 4)):  # shared rows may run past N
        g = impulse_response(sys, N, rows)
        want = _fraction_samples_reference(sys, N)
        assert len(g) == N and g == want and want == g and tuple(g) == want
        assert all(type(x) is Fraction for x in g)
        for i in range(-N, N):
            assert g[i] == want[i] and type(g[i]) is Fraction
        for sl in (slice(None), slice(1, 4), slice(None, None, 2), slice(None, None, -1),
                   slice(5, 2), slice(-3, None), slice(N, N + 3)):
            got = g[sl]
            assert type(got) is tuple and got == want[sl]
            assert all(type(x) is Fraction for x in got)
        with pytest.raises(IndexError):
            g[N]
        with pytest.raises(IndexError):
            g[-N - 1]
        assert [sign_of(u, Backend.EXACT) for u in g.nums] == \
            [sign_of(x, Backend.EXACT) for x in want]
        assert analyse(sys, N, rows=rows).signs == tuple(sign_of(x, Backend.EXACT) for x in want)


def _solve_exact_consistent_reference(rows_in, rhs, width):
    """Particular exact solution of M a = y by Fraction Gauss–Jordan
    elimination, or None when inconsistent (the solver of the old fit)."""
    rows = [list(r) + [v] for r, v in zip(rows_in, rhs)]
    pivots = []
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None
    a = [Fraction(0)] * width
    for idx, col in enumerate(pivots):
        a[col] = rows[idx][-1]
    return a


def _recurrence_fit(sys, samples, window):
    """The d = 1..n fit of ``minimal_recurrence_system`` before it ran
    Berlekamp–Massey, with rows t < window(H, n, d): (d, a, g(1..d)) or None."""
    H, n = len(samples), sys.n
    for d in range(1, n + 1):
        if H - d < max(n, d):
            return None
        t_max = window(H, n, d)
        a = _solve_exact_consistent_reference([samples[t:t + d] for t in range(t_max)],
                                              [samples[t + d] for t in range(t_max)], d)
        if a is not None:
            return d, tuple(a), tuple(samples[:d])
    return None


def _full_window_recurrence(sys, samples):
    """Minimal recurrence fitted on every row of the sample window."""
    return _recurrence_fit(sys, samples, lambda H, n, d: H - d)


def _first_rows_recurrence(sys, samples):
    """Minimal recurrence fitted on the first n rows, as the old fit did."""
    return _recurrence_fit(sys, samples, lambda H, n, d: n)


def _assert_same_fit(sys, g, want):
    got = minimal_recurrence_system(sys, g)
    if want is None:
        assert got is None
        return
    d, a, b0 = want
    assert got is not None and got.n == d
    assert got.A.row(d - 1) == a and got.b == b0
    assert all(type(x) is Fraction for x in got.A.row(d - 1) + got.b)
    assert got.c == tuple(Fraction(i == 0) for i in range(d))


def _random_exact_system(rng, n, kind):
    def entry(p_zero):
        if rng.random() < p_zero:
            return Fraction(0)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    if kind == "block" and n >= 2:
        n1 = rng.randint(1, n - 1)
        A = [[entry(0.2) if (i < n1) == (j < n1) else Fraction(0) for j in range(n)]
             for i in range(n)]
        b = [entry(0.1) for _ in range(n)]
        c = [entry(0.1) for _ in range(n)]
        # one block inactive: no input reaches it, or no output sees it
        lo, hi = (0, n1) if rng.random() < 0.5 else (n1, n)
        target = b if rng.random() < 0.5 else c
        for i in range(lo, hi):
            target[i] = Fraction(0)
    else:
        p_zero = 0.6 if kind == "sparse" else 0.15
        A = [[entry(p_zero) for _ in range(n)] for _ in range(n)]
        b = [entry(0.1) for _ in range(n)]
        c = [entry(0.1) for _ in range(n)]
    return LtiSystem(Matrix.exact(A), tuple(b), tuple(c))


def test_windowed_recurrence_matches_full_window_solve():
    rng = random.Random(2024)
    kinds = ("dense", "sparse", "block")
    cases = reduced = 0
    for i in range(330):
        n = 1 + i % 5
        sys = _random_exact_system(rng, n, kinds[i % 3])
        H = (n + 1, 2 * n, 2 * n + 1, 50)[(i // 5) % 4]
        g = impulse_response(sys, H)
        want = _full_window_recurrence(sys, g)
        assert _first_rows_recurrence(sys, g) == want
        _assert_same_fit(sys, g, want)
        reduced += want is not None and want[0] < n
        cases += 1
    assert cases >= 300
    assert reduced >= 100


@pytest.mark.parametrize("A, b, c, d_star", [
    # all zero: the order-1 system with a = 0
    ([["0.5", "1"], ["0", "-0.25"]], (0, 0), (1, 1), 1),
    ([["0.5", "1"], ["0", "-0.25"]], (1, 2), (0, 0), 1),
    # nilpotent shift: g = 0, 0, 1, 0, ... of order n with a = 0
    ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], (1, 0, 0), (0, 0, 1), 3),
    # leading zeros, then a geometric tail: x^2 (x - 1/2)
    ([[0, 0, 0], [1, 0, 0], [0, 1, "0.5"]], (1, 0, 0), (0, 0, 1), 3),
    # one leading zero and an inactive mode: x (x - 1/2) below n = 3
    ([[0, 0, 0], [1, "0.5", 0], [0, 0, 3]], (1, 0, 0), (0, 1, 0), 2),
    # a single nonzero sample g(1)
    ([[0, 0], [0, 0]], (1, 2), ("0.5", "1/3"), 1),
    # dense, d* = n
    ([["1/3", "2/7", 0], ["-5/6", "1/2", "-2/7"], [1, "-1/3", "5/6"]],
     ("2/7", "-1/3", 1), ("5/6", "1/2", "-3/7"), 3),
    ([["0.7", "0.6", "-2", "0.1"], ["0.15", "0.15", "-0.25", "0"],
      ["0", "0.03", "0.1", "-0.2"], ["0.5", "0", "0", "0.3"]],
     ("1", "-0.5", "0.25", "2"), ("1.1", "0.1", "-5.5", "0"), 4),
    ([["-5/6"]], ("2/7",), ("-1/3",), 1),
])
def test_recurrence_fit_edges_match_the_old_fit(A, b, c, d_star):
    sys = LtiSystem(Matrix.exact(A), b, c)
    n = sys.n
    g = impulse_response(sys, 50)
    assert _first_rows_recurrence(sys, g)[0] == d_star
    for H in (n + d_star - 1, n + d_star, 2 * n, 2 * n + 1, 50):
        gh = impulse_response(sys, H)
        want = _first_rows_recurrence(sys, gh)
        assert (want is None) == (H < n + d_star)
        _assert_same_fit(sys, gh, want)
    red = minimal_recurrence_system(sys, g)
    assert impulse_response(red, 50) == g


# ------------------------------------------------------------ judge reference

def _judge_reference(analysis, strict=True):
    """``judge`` as it was, building its verdict separately at every exit."""
    horizon, g, signs, tail = analysis.horizon, analysis.samples, analysis.signs, analysis.tail
    backend = analysis.backend
    notes = list(analysis.notes)
    first_pos = next((t for t, s in enumerate(signs, 1) if s == 1), None)
    first_neg = next((t for t, s in enumerate(signs, 1) if s == -1), None)
    suspects = tuple(t for t, s in enumerate(signs, 1) if s is None)

    if first_pos and first_neg:
        t_bad = max(first_pos, first_neg)
        return ExtPosVerdict(ExtPosStatus.VIOLATED, horizon, g, None,
                             (t_bad, g[t_bad - 1]), suspects,
                             tuple(notes + ["samples of both strict signs"]))

    s_star = 1 if first_pos else (-1 if first_neg else None)
    if s_star is None:
        if backend is Backend.EXACT and horizon >= analysis.n:
            if strict:
                return ExtPosVerdict(ExtPosStatus.VIOLATED, horizon, g, None, (1, g[0]),
                                     (), tuple(notes + ["impulse response is identically zero"]))
            return ExtPosVerdict(ExtPosStatus.NONNEGATIVE, horizon, g, None, None, (),
                                 tuple(notes + ["impulse response is identically zero"]))
        return ExtPosVerdict(ExtPosStatus.HORIZON_ONLY, horizon, g, None, None, suspects,
                             tuple(notes + ["no decisive sample over the horizon"]))

    zero_times = tuple(t for t, s in enumerate(signs, 1) if s == 0)
    cover = tail.start if tail else None

    if strict:
        if backend is Backend.EXACT and zero_times:
            t0 = zero_times[0]
            return ExtPosVerdict(ExtPosStatus.VIOLATED, horizon, g, tail, (t0, g[t0 - 1]),
                                 suspects, tuple(notes + ["zero sample under a strict requirement"]),
                                 sample_sign=s_star)
        early = [t for t in suspects if cover is None or t < cover]
        if early:
            return ExtPosVerdict(
                ExtPosStatus.HORIZON_ONLY, horizon, g, tail, None, suspects,
                tuple(notes + [f"indeterminate sample at t={early[0]} not covered by a tail bound"]),
                sample_sign=s_star)
        if tail and tail.start <= horizon:
            status = ExtPosStatus.STRICT_POSITIVE if s_star == 1 else ExtPosStatus.STRICT_NEGATIVE
            return ExtPosVerdict(status, horizon, g, tail, None, suspects, tuple(notes),
                                 sample_sign=s_star)
        if tail:
            notes.append(f"tail bound starts at t={tail.start} beyond the horizon")
        return ExtPosVerdict(ExtPosStatus.HORIZON_ONLY, horizon, g, tail, None, suspects,
                             tuple(notes), sample_sign=s_star)

    early = [t for t in suspects if cover is None or t < cover]
    if early:
        notes.append(f"samples inside tolerance at t={early[0]}; treated as zeros")
    if tail and tail.start <= horizon:
        if not zero_times and not early:
            status = ExtPosStatus.STRICT_POSITIVE if s_star == 1 else ExtPosStatus.STRICT_NEGATIVE
        else:
            status = ExtPosStatus.NONNEGATIVE if s_star == 1 else ExtPosStatus.NONPOSITIVE
        return ExtPosVerdict(status, horizon, g, tail, None, suspects, tuple(notes),
                             sample_sign=s_star)
    if backend is Backend.EXACT:
        trailing = 0
        for s in reversed(signs):
            if s != 0:
                break
            trailing += 1
        if trailing >= analysis.n:
            notes.append("trailing zeros persist beyond the horizon "
                         "(impulse response obeys a linear recurrence of the system order)")
            status = ExtPosStatus.NONNEGATIVE if s_star == 1 else ExtPosStatus.NONPOSITIVE
            return ExtPosVerdict(status, horizon, g, tail, None, suspects, tuple(notes),
                                 sample_sign=s_star)
    if tail:
        notes.append(f"tail bound starts at t={tail.start} beyond the horizon")
    return ExtPosVerdict(ExtPosStatus.HORIZON_ONLY, horizon, g, tail, None, suspects, tuple(notes),
                         sample_sign=s_star)


def _synthetic_analysis(rng, case):
    """One seeded analysis; ``case`` cycles through random signs, no decisive
    sample, one sign among zeros or suspects, one sign with trailing zeros
    or suspects, and one strict sign throughout."""
    backend = (Backend.EXACT, Backend.FLOAT)[case // 5 % 2]
    n, horizon, eps = rng.randint(1, 4), rng.randint(1, 9), rng.choice((1, -1))
    if backend is Backend.EXACT:
        quiet, loud = [Fraction(0)], [Fraction(rng.randint(1, 5), rng.randint(1, 3))
                                      for _ in range(3)]
    else:
        quiet, loud = [0.0, -0.0, 1e-12, -3e-10], [0.5, 2.0, 7.25]
    pattern = case % 5
    cut = rng.randint(0, horizon)
    samples = []
    for t in range(horizon):
        if pattern == 0:
            x = rng.choice(quiet + loud + [-v for v in loud])
        elif pattern == 1:
            x = rng.choice(quiet)
        elif pattern == 2:
            x = eps * rng.choice(loud) if rng.random() < 0.6 else rng.choice(quiet)
        elif pattern == 3:
            x = eps * rng.choice(loud) if t < cut else rng.choice(quiet)
        else:
            x = eps * rng.choice(loud)
        samples.append(x)
    tail = None
    if rng.random() < 0.7:
        tail = TailCertificate(rng.randint(1, horizon + 3), rng.choice((1, -1)),
                               1.0, 0.5, 1.0, 0.75)
    signs = tuple(sign_of(x, backend) for x in samples)
    return ExtPosAnalysis(n, backend, horizon, tuple(samples), signs, tail, ("analysis note",))


def test_judge_matches_per_exit_reference():
    """Every field of every verdict equals the old judge's, over seeded
    analyses of both backends under strict and non-strict requirements;
    every exit of the old judge is reached."""
    rng = random.Random(1406)
    analyses = [_synthetic_analysis(rng, case) for case in range(2000)]
    for n in (2, 3):
        A, c = example2_pair() if n == 3 else (Matrix.exact([["0.5", "1"], ["0", "0.25"]]),
                                               (Fraction(1), Fraction(-1)))
        for M, cc in ((A, c), (A.to_float(), tuple(map(float, c)))):
            for b in ((1, 0, 0)[:n], (1, -1, 2)[:n], (0, 1, -1)[:n]):
                for horizon in (1, n, 12):
                    analyses.append(analyse(LtiSystem(M, b, cc), horizon))
    exits = set()
    for a in analyses:
        for strict in (True, False):
            want = _judge_reference(a, strict)
            assert judge(a, strict) == want, (a, strict)
            exits.add((strict, want.status, re.sub(r"\d+", "#", (want.notes or ("",))[-1])))
    P, N, NN, NP = (ExtPosStatus.STRICT_POSITIVE, ExtPosStatus.STRICT_NEGATIVE,
                    ExtPosStatus.NONNEGATIVE, ExtPosStatus.NONPOSITIVE)
    V, H = ExtPosStatus.VIOLATED, ExtPosStatus.HORIZON_ONLY
    beyond, trailing = "tail bound starts at t=# beyond the horizon", "trailing zeros persist"
    required = {
        (True, V, "samples of both strict signs"),
        (True, V, "impulse response is identically zero"),
        (False, NN, "impulse response is identically zero"),
        (True, H, "no decisive sample over the horizon"),
        (True, V, "zero sample under a strict requirement"),
        (True, H, "indeterminate sample at t=# not covered by a tail bound"),
        (True, P, "analysis note"), (True, N, "analysis note"),
        (True, H, beyond), (True, H, "analysis note"),
        (False, P, "analysis note"), (False, NN, "analysis note"),
        (False, NP, "samples inside tolerance at t=#; treated as zeros"),
        (False, H, beyond), (False, H, "samples inside tolerance at t=#; treated as zeros"),
    }
    assert required <= exits, required - exits
    assert {(False, NN), (False, NP)} <= {(s, st) for s, st, note in exits
                                          if note.startswith(trailing)}
