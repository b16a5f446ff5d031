import math
import random
from fractions import Fraction

import numpy as np
import pytest

from varsign.linalg import Matrix, NonSquareError
from varsign.lti import (
    ExtPosStatus,
    LtiSystem,
    _solve_exact_consistent,
    default_horizon,
    dominant_tail,
    eigen_sorted,
    external_positivity,
    impulse_response,
    minimal_recurrence_system,
    observability_matrix,
)


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
        assert g[t - 1] == sum(ci * xi for ci, xi in zip(c, A.power(t - 1).matvec(b)))


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


def test_lti_system_validation():
    with pytest.raises(NonSquareError):
        LtiSystem(Matrix.exact([[1, 2]]), (1,), (1,))
    with pytest.raises(ValueError):
        LtiSystem(Matrix.identity(2), (1,), (1, 2))


# ---------------------------------------------------- exact hot-path references

def _power_reference(sys, N):
    """g(t) = c A^(t-1) b from explicit matrix powers."""
    return tuple(sum(ci * xi for ci, xi in zip(sys.c, sys.A.power(t - 1).matvec(sys.b)))
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


def _full_window_recurrence(sys, samples):
    """Minimal recurrence fitted on every row of the sample window."""
    H, n = len(samples), sys.n
    for d in range(1, n + 1):
        if H - d < max(n, d):
            return None
        a = _solve_exact_consistent([samples[t:t + d] for t in range(H - d)],
                                    [samples[t + d] for t in range(H - d)], d)
        if a is not None:
            return d, tuple(a), tuple(samples[:d])
    return None


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
        got = minimal_recurrence_system(sys, g)
        if want is None:
            assert got is None
        else:
            d, a, b0 = want
            assert got is not None and got.n == d
            assert got.A.row(d - 1) == a and got.b == b0
            reduced += d < n
        cases += 1
    assert cases >= 300
    assert reduced >= 100
