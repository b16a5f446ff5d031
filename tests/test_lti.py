import math
import random
import re
from fractions import Fraction
from functools import reduce
from operator import matmul, mul

import numpy as np
import pytest

import varsign.lti as lti
from varsign.linalg import Backend, Matrix, NonSquareError, SizeMismatchError, sign_of
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
    with pytest.raises(SizeMismatchError):
        observability_matrix(A, c[:2], 3)
    wide = Matrix.exact([[1, 2, 3], [4, 5, 6]])
    for t in (2, 5):
        with pytest.raises(SizeMismatchError):
            observability_matrix(wide, c, t)
    # one row needs no power of A, so a non-square A still gives [c]
    assert observability_matrix(wide, c, 1) == Matrix.exact([c])
    with pytest.raises(SizeMismatchError):
        output_rows(wide, c, 1).extend(2)


def _vecmat_chain(A, c, N):
    """Reference: the rows c A^(t-1) as observability_matrix built them
    before ``output_rows``, each ``Matrix.vecmat`` of the one before."""
    rows = [tuple(c)]
    for _ in range(N - 1):
        rows.append(A.vecmat(rows[-1]))
    return rows


def _float_chain_pairs():
    """Float pairs whose rows hold every product sign of zero, infinities and
    NaN, and plain random ones."""
    rng = np.random.default_rng(26)
    dyadic = (-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0)
    yield Matrix.floating([[-1.0]]), (0.0,)  # the chain's second row is -0.0
    for n in range(1, 6):
        yield Matrix.floating(rng.choice(dyadic, (n, n))), tuple(rng.choice(dyadic, n).tolist())
        yield Matrix.floating(rng.uniform(-1, 1, (n, n)) * 1.5 / n), tuple(rng.uniform(-2, 2, n))
        yield Matrix.floating(rng.uniform(-1, 1, (n, n)) * 1e80), tuple(rng.uniform(-1, 1, n))


def test_float_output_rows_match_the_vecmat_chain():
    """Entry for entry the chain's values, and by ``repr`` too, except that a
    -0.0 the chain computed comes out as 0.0: each entry is summed from 0.
    The first row is c as given, -0.0 included."""
    seen = {"-0.0": 0, "nan": 0, "inf": 0}
    for A, c in _float_chain_pairs():
        got = output_rows(A, c, 30)
        want = _vecmat_chain(A, tuple(map(float, c)), 30)
        assert got.dens is None and len(got.rows) == 30
        for t, (row, ref) in enumerate(zip(got.rows, want)):
            for x, y in zip(row, ref):
                assert type(x) is float
                assert x == y or math.isnan(x) and math.isnan(y)
                summed_negative_zero = t > 0 and repr(y) == "-0.0"
                assert repr(x) == ("0.0" if summed_negative_zero else repr(y))
                seen["-0.0"] += summed_negative_zero
                seen["nan"] += math.isnan(y)
                seen["inf"] += math.isinf(y)
        assert repr(observability_matrix(A, c, 30).data) == repr(tuple(got.rows))
        assert repr(_grown_rows(A, c, 30).rows) == repr(got.rows)
    assert all(seen.values()), seen


def _grown_rows(A, c, N):
    """``output_rows`` grown to N rows in uneven steps, as shared rows are."""
    rows, length = output_rows(A, c, 1), 1
    for step in (1, 3, 2, 8, N - 1, N):
        length = max(length, step)
        assert rows.extend(step) is rows and len(rows.rows) == length
    return rows


@pytest.mark.parametrize("A, c", [
    ([["0.7", "0.6", "-2"], ["0.15", "0.15", "-0.25"], ["0", "0.03", "0.1"]],
     ("1.1", "0.1", "-5.5")),
    ([["1/3", "2/7", 0], ["-5/6", "1/2", "-2/7"], [1, "-1/3", "5/6"]], ("5/6", "1/2", "-3/7")),
    ([["-5/6"]], ("-1/3",)),
    ([[2, -1], [1, 3]], (3, 1)),
    ([["1/3", "2/7"], ["-5/6", "1/2"]], (0, 0)),
    ([["1e400", "0"], ["1", "0.25"]], ("1", "1")),
])
def test_exact_output_rows_match_the_fraction_chain(A, c):
    A = Matrix.exact(A)
    c = tuple(Fraction(x) for x in c)
    dA = math.lcm(*(x.denominator for row in A.data for x in row))
    dc = math.lcm(*(x.denominator for x in c))
    got = output_rows(A, c, 12)
    assert got.dens == [dc * dA ** t for t in range(12)]
    grown = _grown_rows(A, c, 12)
    assert grown.rows == got.rows and grown.dens == got.dens
    want = _vecmat_chain(A, c, 12)
    for row, den, ref in zip(got.rows, got.dens, want):
        assert all(type(x) is int for x in row)
        assert tuple(Fraction(x, den) for x in row) == ref
    assert observability_matrix(A, c, 12) == Matrix.exact(want)


def test_eigen_sorted_descending_modulus_then_real():
    spec = eigen_sorted(Matrix.floating([[1, 0, 0], [0, -2, 0], [0, 0, 3]]))
    assert [round(l.real) for l in spec] == [3, -2, 1]


def test_eigen_sorted_rotation_tiebreak():
    spec = eigen_sorted(Matrix.floating([[0, -1], [1, 0]]))
    assert abs(spec[0] - 1j) < 1e-12
    assert abs(spec[1] + 1j) < 1e-12


def test_eigen_sorted_example3_modulus_shell():
    spec = eigen_sorted(example3_system().A)
    # all moduli equal one; the three real units come first, then the
    # conjugate pair with positive imaginary part first
    assert all(abs(abs(l) - 1) < 1e-9 for l in spec)
    assert all(abs(l - 1) < 1e-9 for l in spec[:3])
    assert spec[3].imag > 0 > spec[4].imag
    assert spec[3].real < 1


def test_eigen_sorted_similarity_invariant():
    A = Matrix.floating([[0.5, 1.0, 0], [0, 0.25, 2.0], [0, 0, -0.75]])
    P = Matrix.floating([[0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]])
    Pinv = Matrix.floating(np.linalg.inv(np.array(P.data)))
    before = eigen_sorted(A)
    after = eigen_sorted(P @ A @ Pinv)
    assert all(abs(a - b) < 1e-8 for a, b in zip(before, after))
    again = eigen_sorted(A)
    assert before == again


def _key_sort_modes_reference(A, tol):
    """(note, lead, lam1, sub) of ``dominant_modes`` as it ordered the
    spectrum before, by one (-|lam|, -Re lam, -Im lam) key sort."""
    lam, _ = np.linalg.eig(np.array(A.to_float().data, dtype=float))
    order = sorted(range(len(lam)), key=lambda i: (-abs(lam[i]), -lam[i].real, -lam[i].imag))
    lam1 = lam[order[0]]
    if abs(lam1.imag) > tol * max(1.0, abs(lam1)) or lam1.real <= tol:
        return "dominant eigenvalue is not decisively real positive", 0, 0j, 0.0
    sub = max((abs(lam[i]) for i in order[1:]), default=0.0)
    if abs(lam1) - sub <= tol * max(1.0, abs(lam1)):
        return "no modulus gap below the dominant eigenvalue (repeated or defective)", 0, 0j, 0.0
    return "", order[0], lam1, sub


def _banded_sort_reference(values, tie_tol):
    """``eigen_sorted``'s order as it was: sort by modulus, then sort each
    band of moduli within tie_tol of its largest by real, then imaginary part."""
    vals = sorted(values, key=lambda l: -abs(l))
    out = []
    i = 0
    while i < len(vals):
        j = i + 1
        ref = abs(vals[i])
        while j < len(vals) and ref - abs(vals[j]) <= tie_tol * max(1.0, ref):
            j += 1
        out.extend(sorted(vals[i:j], key=lambda l: (-l.real, -l.imag)))
        i = j
    return tuple(out)


def _seeded_spectra(rng, tol=1e-9, tie_tol=1e-8):
    """Float matrices with chosen spectra, blocks in seeded order: conjugate
    pairs (rotation-scaling blocks), exact repeats, moduli that tie within and
    just outside ``tol`` and ``tie_tol``, then seeded dense matrices."""
    spectra = [
        [2.0, 2.0, 1.0], [-2.0, 2.0, 0.5], [0.5, 0.5, 0.5], [1.0, -1.0, (1.0, 0.7)],
        [1.0, 1.0 - tol / 2, 0.3], [1.0, 1.0 - 2 * tol, 0.3], [-1.0, 1.0 - tol / 2],
        [1.0, -(1.0 - tie_tol / 2), 0.2], [1.0, -(1.0 - 2 * tie_tol), 0.2],
        [-1.0, 1.0 - tie_tol / 2], [-1.0, 1.0 - 2 * tie_tol], [(1.0, 0.3), 1.0, 0.5],
        [(1.0, 0.3), (1.0, 2.1), 1.0 - tie_tol / 2], [(0.9, 1.1), 0.9, -0.9, 0.1],
        [(2.0, 0.4), (2.0, 0.4), 1.0], [1.5, (1.5 - tie_tol / 2, 0.0)], [0.0, 0.0],
    ]
    mats = []
    for spectrum in spectra:
        blocks = list(spectrum)
        rng.shuffle(blocks)
        n = sum(2 if isinstance(x, tuple) else 1 for x in blocks)
        M = np.zeros((n, n))
        i = 0
        for x in blocks:
            if isinstance(x, tuple):  # r e^{+-i theta}
                r, th = x
                M[i:i + 2, i:i + 2] = [[r * math.cos(th), -r * math.sin(th)],
                                       [r * math.sin(th), r * math.cos(th)]]
                i += 2
            else:
                M[i, i] = x
                i += 1
        mats.append(Matrix.floating(M.tolist()))
    for _ in range(20):
        n = rng.randint(1, 6)
        mats.append(Matrix.floating([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)]))
    return mats


def test_dominant_modes_order_matches_the_key_sort():
    rng = random.Random(2024)
    notes = set()
    for A in _seeded_spectra(rng):
        c = tuple(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0) for _ in range(A.rows))
        for tol in (1e-9, 1e-6):
            m = lti.dominant_modes(A, c, tol)
            assert (m.note, m.lead, m.lam1, m.sub) == _key_sort_modes_reference(A, tol), A.data
            notes.add(m.note)
    assert len(notes) == 3


def test_eigen_sorted_matches_the_banded_sort():
    rng = random.Random(2025)
    for A in _seeded_spectra(rng):
        vals = [complex(v) for v in np.linalg.eigvals(np.array(A.data))]
        for tie_tol in (0.0, 1e-8, 1e-3):
            assert eigen_sorted(A, tie_tol) == _banded_sort_reference(vals, tie_tol), A.data


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


def test_external_positivity_exact_zero_sample_strict_vs_nonstrict(monkeypatch):
    # g = (1, 0, 0, ...) exactly: the sign pattern proves every zero from t = 2
    # on, and the sampled route reads them off the n trailing zero samples
    A = Matrix.exact([[Fraction(1, 2), 0], [0, 0]])
    sys = LtiSystem(A, (Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
    for note in ("its zeros repeat with period 1 from t=2", "trailing zeros"):
        strict = external_positivity(sys, strict=True)
        assert strict.status is ExtPosStatus.VIOLATED
        assert strict.first_violation[0] == 2
        relaxed = external_positivity(sys, strict=False)
        assert relaxed.status is ExtPosStatus.NONNEGATIVE
        assert any(note in n for n in relaxed.notes)
        monkeypatch.setattr(lti, "_proved_tail", lambda *args: None)


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


@pytest.mark.parametrize("sub", [0.0, np.float64(0.0)])
@pytest.mark.parametrize("rho1, scale, want", [
    (2.0, 3.0, TailCertificate(1, 1, 0.5, 0.0, 2.0, 1.0)),
    (-1.0 + 0j, 4.0, TailCertificate(2, -1, 0.5, 0.0, 1.0, 3.0)),
])
def test_tail_without_a_subdominant_mode_starts_at_1_or_2(rho1, scale, want, sub):
    """With every other eigenvalue 0 the ratio is infinite: the tail starts at
    1 when the dominant residue beats the rest, else at 2, with no warning,
    and its margin is finite."""
    modes = lti.DominantModes("", lam1=0.5 + 0j, sub=sub)
    with np.errstate(all="raise"):
        tail, note = lti._tail_certificate(rho1, scale, modes, 1e-9)
    assert (tail, note) == (want, "")
    assert tail.margin(tail.start) > 0
    assert all(math.isfinite(tail.margin(t)) for t in range(1, tail.start + 3))


@pytest.mark.parametrize("A, b, c, note", [
    ([["0.5", "0.1"], ["0", "0.25"]], (1, 1), (1, 1), "tail by sign pattern"),
    ([["0.5", "0"], ["0", "-0.25"]], (1, 1), (1, 1), "tail by exact diagonal modes"),
    ([["0.5", "0.25"], ["0", "-0.25"]], (1, 1), (1, 1), None),
    ([["-0.5", "1"], ["-1", "1.5"]], (-2, -2), (0, -1),
     "tail bound via exact minimal-recurrence reduction"),
], ids=["pattern", "modal", "eigen", "recurrence"])
def test_tail_margin_is_none_or_finite_and_positive_on_every_route(A, b, c, note):
    """Sign-pattern and exact modal tails carry no moduli, so no margin; an
    eigen tail, the minimal-recurrence route's included, has a finite
    positive margin at its start.  No route's margin is nan."""
    analysis = analyse(LtiSystem(Matrix.exact(A), b, c))
    tail = analysis.tail
    assert tail is not None
    assert analysis.notes[0].startswith(note) if note else analysis.notes == ()
    margin = tail.margin(tail.start)
    if note and note.startswith("tail by"):
        assert margin is None and (tail.dominant, tail.residual_sum) == (None, None)
    else:
        assert math.isfinite(margin) and margin > 0
    assert TailCertificate(3, 1).margin(3) is None


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
    # the sign pattern of the diagonal A proves the system first
    v = external_positivity(sys, strict=True)
    assert v.status is ExtPosStatus.STRICT_POSITIVE
    assert v.notes[0].startswith("tail by sign pattern")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lti, "_proved_tail", lambda *args: None)
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
    # the sign pattern proves the system with no eigen tail; without it the
    # one-signed samples reach the eigen route
    assert analyse(sys, 12).tail == TailCertificate(1, 1) and calls == []
    pair = lti.Pair(sys.A, sys.c)
    pair.__dict__["pattern"] = None
    analysis = analyse(sys, 12, pair=pair)
    assert calls == [sys]
    assert analysis.tail is not None
    v = judge(analysis)
    assert v.status is ExtPosStatus.STRICT_POSITIVE
    assert v.tail_start is not None


@pytest.mark.parametrize("backend", [Backend.EXACT, Backend.FLOAT])
def test_tail_of_the_wrong_sign_is_discarded(monkeypatch, backend):
    """A tail whose sign disagrees with one-signed samples is dropped with a
    note, and the verdict rests on the samples alone.  The off-diagonal signs
    of A cannot be 2-coloured and A is not diagonal, so no proof route
    settles the system and the (flipped) eigen tail is the one offered."""
    A = Matrix.exact([["0.5", "0.1"], ["-0.1", "0.2"]])
    if backend is Backend.FLOAT:
        A = A.to_float()
    sys = LtiSystem(A, (1, 0), (1, 0))
    true_tail, _ = dominant_tail(sys)
    assert true_tail is not None and true_tail.sign == 1

    def flipped(*args, **kwargs):
        tail, note = dominant_tail(*args, **kwargs)
        return TailCertificate(tail.start, -tail.sign), note

    monkeypatch.setattr(lti, "dominant_tail", flipped)
    pair = lti.Pair(sys.A, sys.c)
    assert pair.pattern is None and pair.diagonal is None
    analysis = analyse(sys, 12, pair=pair)
    assert set(analysis.signs) == {1}
    assert analysis.tail is None
    assert "tail certificate sign disagrees with decisive samples; tail discarded" in analysis.notes
    for strict in (True, False):
        assert judge(analysis, strict).status is ExtPosStatus.HORIZON_ONLY


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


def _float_rows_reference(sys, N):
    """Float impulse response read off the rows c A^(t-1), each row
    ``Matrix.vecmat`` of the one before, one sample summed left to right from
    integer 0 per row."""
    w, out = sys.c, []
    for _ in range(N):
        y = 0
        for wi, bi in zip(w, sys.b):
            y = y + wi * bi
        out.append(y)
        w = sys.A.vecmat(w)
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
    """Bit for bit (the sign of zero included) the samples of the row
    reference, and within 1e-12 of the largest |g| those of the state loop."""
    rng = random.Random(11)
    # every product of the second system is -0.0, every sample 0.0
    systems = [example3_system(), LtiSystem(Matrix.floating([[0.5]]), (0.0,), (-1.0,))]
    for n in range(1, 6):
        A = Matrix.floating([[rng.uniform(-1.2, 1.2) for _ in range(n)] for _ in range(n)])
        b = tuple(rng.uniform(-1, 1) for _ in range(n))
        c = tuple(rng.uniform(-1, 1) for _ in range(n))
        systems.append(LtiSystem(A, b, c))
        systems.append(LtiSystem(A, (0.0,) * n, c))  # every product +-0.0
    for sys in systems:
        for rows in (None, output_rows(sys.A, sys.c, 44)):
            g = impulse_response(sys, 40, rows)
            assert all(type(x) is float for x in g)
            assert [repr(x) for x in g] == [repr(x) for x in _float_rows_reference(sys, 40)]
            scale = max(abs(x) for x in g)
            assert all(abs(x - y) <= 1e-12 * scale
                       for x, y in zip(g, _float_loop_reference(sys, 40)))


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
    for shared in (False, True):
        pair = lti.Pair(sys.A, sys.c)
        rows = pair.extend(N + 4) if shared else None  # shared rows may run past N
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
        signs = tuple(sign_of(x, Backend.EXACT) for x in want)
        assert [sign_of(u, Backend.EXACT) for u in g.nums] == list(signs)
        # the analysis keeps a prefix: up to t_bad when both strict signs occur
        both = 1 in signs and -1 in signs
        stop = max(signs.index(1), signs.index(-1)) + 1 if both else N
        analysis = analyse(sys, N, pair=pair)
        assert analysis.signs == signs[:stop] and analysis.samples == want[:stop]


def test_exact_input_is_lifted_once_per_system(monkeypatch):
    """Samples taken in blocks hold the numerators, D_b and denominators of one
    call's samples, and a system lifts b to D_b b once however many blocks
    sample it: here two blocks by hand, then ``analyse`` on the sampled route,
    whose one-signed samples run to the horizon in blocks ending at t = 8 and
    50.  The output rows lift c only: A was lifted when it was built."""
    A, c = Matrix.exact([["1/2", "1/10"], ["0", "1/4"]]), ("1/3", 1)
    inputs = [("1/3", "2/7"), ("5/6", "1/9"), (1, 0)]
    want = [impulse_response(LtiSystem(A, b, c), 50) for b in inputs]
    lifts, lift = [], lti.lift
    monkeypatch.setattr(lti, "lift", lambda xs: lifts.append(tuple(xs)) or lift(xs))
    pair = lti.Pair(A, c)
    pair.__dict__["pattern"] = None  # the pattern would prove each system from one sample
    # c, once for the pair
    assert lifts == [(Fraction(1, 3), 1)]
    lifts.clear()
    for b, one in zip(inputs, want):
        sys = LtiSystem(A, b, c)
        blocks = [impulse_response(sys, end, pair, start) for start, end in ((0, 8), (8, 50))]
        assert tuple(x for block in blocks for x in block.nums) == one.nums
        assert [block.db for block in blocks] == [one.db] * 2
        assert [d for block in blocks for d in block.dens] == one.dens
        g = analyse(LtiSystem(A, b, c), 50, pair=pair).samples
        assert len(g) == 50 and (g.nums, g.db, g.dens) == (one.nums, one.db, one.dens)
    assert lifts == [LtiSystem(A, b, c).b for b in inputs for _ in range(2)]


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
                             (t_bad, g[t_bad - 1]),
                             tuple(notes + ["samples of both strict signs"]))

    s_star = 1 if first_pos else (-1 if first_neg else None)
    if s_star is None:
        if backend is Backend.EXACT and horizon >= analysis.n:
            if strict:
                return ExtPosVerdict(ExtPosStatus.VIOLATED, horizon, g, None, (1, g[0]),
                                     tuple(notes + ["impulse response is identically zero"]))
            return ExtPosVerdict(ExtPosStatus.NONNEGATIVE, horizon, g, None, None,
                                 tuple(notes + ["impulse response is identically zero"]))
        return ExtPosVerdict(ExtPosStatus.HORIZON_ONLY, horizon, g, None, None,
                             tuple(notes + ["no decisive sample over the horizon"]))

    zero_times = tuple(t for t, s in enumerate(signs, 1) if s == 0)
    cover = tail.start if tail else None

    if strict:
        if backend is Backend.EXACT and zero_times:
            t0 = zero_times[0]
            return ExtPosVerdict(ExtPosStatus.VIOLATED, horizon, g, tail, (t0, g[t0 - 1]),
                                 tuple(notes + ["zero sample under a strict requirement"]),
                                 sample_sign=s_star)
        early = [t for t in suspects if cover is None or t < cover]
        if early:
            return ExtPosVerdict(
                ExtPosStatus.HORIZON_ONLY, horizon, g, tail, None,
                tuple(notes + [f"indeterminate sample at t={early[0]} not covered by a tail bound"]),
                sample_sign=s_star)
        if tail and tail.start <= horizon:
            status = ExtPosStatus.STRICT_POSITIVE if s_star == 1 else ExtPosStatus.STRICT_NEGATIVE
            return ExtPosVerdict(status, horizon, g, tail, None, tuple(notes),
                                 sample_sign=s_star)
        if tail:
            notes.append(f"tail bound starts at t={tail.start} beyond the horizon")
        return ExtPosVerdict(ExtPosStatus.HORIZON_ONLY, horizon, g, tail, None,
                             tuple(notes), sample_sign=s_star)

    early = [t for t in suspects if cover is None or t < cover]
    if early:
        notes.append(f"samples inside tolerance at t={early[0]}; treated as zeros")
    if tail and tail.start <= horizon:
        if not zero_times and not early:
            status = ExtPosStatus.STRICT_POSITIVE if s_star == 1 else ExtPosStatus.STRICT_NEGATIVE
        else:
            status = ExtPosStatus.NONNEGATIVE if s_star == 1 else ExtPosStatus.NONPOSITIVE
        return ExtPosVerdict(status, horizon, g, tail, None, tuple(notes),
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
            return ExtPosVerdict(status, horizon, g, tail, None, tuple(notes),
                                 sample_sign=s_star)
    if tail:
        notes.append(f"tail bound starts at t={tail.start} beyond the horizon")
    return ExtPosVerdict(ExtPosStatus.HORIZON_ONLY, horizon, g, tail, None, tuple(notes),
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


def _eigen_tail_reference(sys: LtiSystem, tol: float = 1e-9, shift: int = 0):
    """(certificate, note) of a 1 x 1 system by the eigen route: numpy
    ``eig`` of A, the dominance gates, ``solve`` for the residue of b, the
    residue gate and the start rule, written out here as one function."""
    try:
        Af = np.array(sys.A.to_float().data, dtype=float)
        cf = np.array([float(x) for x in sys.c], dtype=float)
    except OverflowError:
        return None, "state matrix or output row exceeds float range; no eigen tail"
    lam, V = np.linalg.eig(Af)
    lam1 = lam[0]
    if not (abs(lam1.imag) <= tol * max(1.0, abs(lam1)) and lam1.real > tol):
        return None, "dominant eigenvalue is not decisively real positive"
    if abs(lam1) <= tol * max(1.0, abs(lam1)):
        return None, "no modulus gap below the dominant eigenvalue (repeated or defective)"
    try:
        bf = np.array([float(x) for x in sys.b], dtype=float)
    except OverflowError:
        return None, "input vector exceeds float range; no eigen tail"
    x = np.linalg.solve(V, bf.astype(complex))
    if shift:
        x = x * lam ** shift
    residues = (cf.astype(complex) @ V) * x
    scale = float(np.abs(residues).sum())
    rho1 = residues[0]
    if not math.isfinite(scale):
        return None, "residues exceed float range; no eigen tail"
    if rho1 == 0:
        return None, "dominant mode has zero residue"
    if abs(rho1) <= tol * max(1.0, scale):
        return None, "dominant mode has negligible residue (unobservable or uncontrollable)"
    rest = scale - abs(rho1)
    start = 1 if abs(rho1) > rest * (1.0 + 1e-9) else 2
    return TailCertificate(start, 1 if rho1.real > 0 else -1, float(abs(lam1)), 0.0,
                           abs(rho1), rest), ""


_SCALAR_A = ("-2", "-1/3", "0", "1e-10", "1e-9", "2e-9", "1/2", "7", "1e400")
_SCALAR_G1 = ("0", "1e-10", "-1e-10", "1e-9", "-1e-9", "3/7", "-3/7", "1e400")
_SCALAR_GRID = [(a, g1, c) for a in _SCALAR_A for g1 in _SCALAR_G1 for c in ("1", "-5/2")]


def _scalar_system(a, g1, c) -> LtiSystem:
    return LtiSystem(Matrix.exact([[a]]), (g1,), (c,))


def _fields(result):
    """A tail result as text, each certificate field by its float ``repr``
    (nan included), so that equal texts mean bit-identical fields."""
    tail, note = result
    return (None if tail is None else [repr(float(x)) for x in vars(tail).values()]), note


@pytest.mark.parametrize("a, g1, c", _SCALAR_GRID)
def test_scalar_exact_tail_matches_the_eigen_route(a, g1, c):
    """A 1 x 1 exact system (an order-1 recurrence companion when c = 1, or
    C_n(A) = [det A]) gives the certificate and note of the eigen route,
    field for field."""
    sys = _scalar_system(a, g1, c)
    want = _fields(_eigen_tail_reference(sys))
    assert _fields(dominant_tail(sys)) == want
    modes = lti.dominant_modes(sys.A, sys.c)
    assert _fields(dominant_tail(sys, modes=modes)) == want


@pytest.mark.parametrize("shift", [1, 2, 5, 400])
def test_shifted_scalar_exact_tail_matches_the_eigen_route(shift):
    """A shifted 1 x 1 system scales its residue by numpy's lam^shift, as
    every other order does (an overflow included)."""
    with np.errstate(over="ignore", invalid="ignore"):
        for a, g1, c in _SCALAR_GRID:
            sys = _scalar_system(a, g1, c)
            got = dominant_tail(sys, modes=lti.dominant_modes(sys.A, sys.c), shift=shift)
            assert _fields(got) == _fields(_eigen_tail_reference(sys, shift=shift)), (a, g1, c)


@pytest.mark.parametrize("A", [
    [["1e200", "0", "0"], ["0", "1e100", "0"], ["0", "0", "1"]],  # sub > 0
    [["1e200", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]],  # sub = 0: a nilpotent block
], ids=["diagonal", "nilpotent"])
@pytest.mark.parametrize("backend", [Backend.EXACT, Backend.FLOAT])
def test_residues_past_float_range_give_no_tail(A, backend):
    """lam^2 = 1e400 overflows, so the residues of A^2 b are not finite:
    no certificate, and a note that says why."""
    sys = LtiSystem(Matrix(A, backend), (1, 1, 1), (1, 1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        assert dominant_tail(sys, shift=2) == (None, "residues exceed float range; no eigen tail")


@pytest.mark.parametrize("b1, note", [
    ("0", "dominant mode has zero residue"),
    ("1e-12", "dominant mode has negligible residue (unobservable or uncontrollable)"),
    ("-1e-10", "dominant mode has negligible residue (unobservable or uncontrollable)"),
])
@pytest.mark.parametrize("backend", [Backend.EXACT, Backend.FLOAT])
def test_residue_gate_notes_tell_an_inactive_mode_from_a_small_residue(b1, note, backend):
    """diag(1/2, 1/4): b = (b1, 1) gives the dominant mode 1/2 the residue
    b1.  Zero says the mode is inactive; a nonzero residue under the gate
    keeps the note that does not claim to know which."""
    sys = LtiSystem(Matrix([["0.5", "0"], ["0", "0.25"]], backend), (b1, "1"), ("1", "1"))
    assert dominant_tail(sys) == (None, note)


def _signature_brute_force(A):
    """Every S = diag(+-1) with S A S >= 0 entrywise, by trying all 2^n."""
    n, found = A.rows, []
    for bits in range(2 ** n):
        s = [1 - 2 * (bits >> i & 1) for i in range(n)]
        if all(s[i] * A.data[i][j] * s[j] >= 0 for i in range(n) for j in range(n)):
            found.append(tuple(s))
    return found


def test_sign_pattern_finds_a_signature_exactly_when_one_exists():
    """``_sign_pattern`` gives an S with S A S >= 0 whenever one exists, and
    None otherwise; S is +1 at each block's first index, its successor masks
    are the nonzero entries of A, and an S exists only with diag A >= 0."""
    rng = random.Random(4117)
    found = rejected = 0
    for i in range(400):
        n = 1 + i % 5
        p_zero = rng.choice((0.3, 0.6, 0.85))
        A = Matrix.exact([[0 if rng.random() < p_zero else Fraction(rng.choice((-3, -1, 1, 2)), 4)
                           for _ in range(n)] for _ in range(n)])
        if rng.random() < 0.5:  # nonnegative diagonal, so that the off-diagonal colouring decides
            A = Matrix.exact([[abs(x) if r == c else x for c, x in enumerate(row)]
                              for r, row in enumerate(A.data)])
        pattern, want = lti._sign_pattern(A), _signature_brute_force(A)
        if pattern is None:
            assert want == [], A.data
            rejected += 1
            continue
        found += 1
        assert pattern.signs in want, A.data
        assert all(pattern.signs[pattern.blocks[j]] == 1 for j in range(n))
        assert pattern.succ == tuple(sum(1 << j for j in range(n) if A.data[i][j])
                                     for i in range(n))
    assert found > 100 and rejected > 100


def _rejected_systems():
    """(A, b, c) whose sign pattern proves nothing: a negative diagonal entry;
    A_12, A_23 > 0 > A_13, a cycle no signature makes nonnegative; and a
    c S of both signs on A's one block."""
    return [
        (Matrix.exact([["0.5", "0.25"], ["0", "-0.25"]]), (1, 1), (1, 1)),
        (Matrix.exact([["0.5", "0.25", "-0.25"], ["0", "0.25", "0.25"], ["0", "0", "0.125"]]),
         (0, 0, 1), ("0.5", 2, 2)),
        (Matrix.exact([["0.5", "0.25"], ["0.25", "0.5"]]), (1, 0), (1, -1)),
    ]


@pytest.mark.parametrize("case", range(3), ids=["negative diagonal", "sign cycle", "mixed c S"])
def test_rejected_sign_patterns_take_the_sampled_route(case):
    """A system whose pattern proves nothing gets the analysis and the
    verdicts it gets without a pattern, field for field."""
    A, b, c = _rejected_systems()[case]
    sys = LtiSystem(A, b, c)
    pattern = lti._sign_pattern(A)
    assert (pattern is None) == (case < 2)
    if pattern is not None:
        assert lti._pattern_proof(pattern, sys, 0, 50) is None
    sampled = lti.Pair(A, c)
    sampled.__dict__["pattern"] = None
    got, want = analyse(sys, 50, lead=3), analyse(sys, 50, pair=sampled)
    assert got == want and len(got.samples) == 50
    assert not any(note.startswith("tail by sign pattern") for note in got.notes)
    for strict in (True, False):
        assert judge(got, strict) == judge(want, strict)
    assert judge(want).status is ExtPosStatus.STRICT_POSITIVE


def test_sign_pattern_route_samples_only_what_its_verdicts_read():
    """diag(1/2, 1/4) with b = (0, 1) and c = (1, 1): g = (1/4)^(t-1), proved
    positive by the pattern with no eigen-solve and no recurrence fit; the
    samples run to max(one period, lead), never past the horizon.  A
    nilpotent shift traces g = (0, 0, 1, 0, 0, ...), whose zeros the walk
    sets give from t = 4 on with period 1."""
    def refuse(*args, **kwargs):
        raise AssertionError("tail work on a pattern-proved system")

    sys = LtiSystem(Matrix.exact([["0.5", "0"], ["0", "0.25"]]), (0, 1), (1, 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lti, "dominant_tail", refuse)
        mp.setattr(lti, "minimal_recurrence_system", refuse)
        for lead, horizon, want in ((0, 50, 1), (3, 50, 3), (3, 2, 2)):
            analysis = analyse(sys, horizon, lead=lead)
            assert len(analysis.samples) == want and analysis.horizon == horizon
            assert analysis.tail == TailCertificate(1, 1)
            assert analysis.notes == (
                "tail by sign pattern: every sample is 0 or of sign +1; no sample is 0",)
            verdict = judge(analysis)
            assert verdict.status is ExtPosStatus.STRICT_POSITIVE and verdict.tail_start == 1
    shift = LtiSystem(Matrix.exact([[0, 0, 0], [1, 0, 0], [0, 1, 0]]), (1, 0, 0), (0, 0, 1))
    proof = lti._pattern_proof(lti._sign_pattern(shift.A), shift, 0, 50)
    assert (proof.sign, proof.pre, proof.nonzero) == (1, 3, (False, False, True, False))
    analysis = analyse(shift, 50)
    assert analysis.samples == (0, 0, 1, 0)
    assert analysis.notes[0].endswith("its zeros repeat with period 1 from t=4")
    assert judge(analysis, strict=True).first_violation == (1, 0)
    assert judge(analysis, strict=False).status is ExtPosStatus.NONNEGATIVE


def test_walk_sets_that_do_not_repeat_within_the_horizon_prove_nothing():
    """A nilpotent chain keeps g(1..4) positive and g(t) = 0 from t = 5 on.
    At a horizon of 4 its walk sets have not repeated, so the zero at t = 5
    is unknown to the samples: no proof, and the verdict stays at the
    horizon instead of claiming strict positivity.  At a horizon of 5 the
    proof shows that zero and every later one."""
    A = Matrix.exact([[0, 0, 0, 0], ["1/2", 0, 0, 0], [0, "1/2", 0, 0], [0, 0, "1/2", 0]])
    sys = LtiSystem(A, (1, 1, 1, 1), (0, 0, 0, 1))
    pattern = lti._sign_pattern(A)
    assert lti._pattern_proof(pattern, sys, 0, 4) is None
    for strict in (True, False):
        assert judge(analyse(sys, 4), strict).status is ExtPosStatus.HORIZON_ONLY
    proof = lti._pattern_proof(pattern, sys, 0, 5)
    assert (proof.sign, proof.pre, proof.nonzero) == (1, 4, (True,) * 4 + (False,))
    analysis = analyse(sys, 5)
    assert judge(analysis, strict=True).first_violation == (5, 0)
    assert judge(analysis, strict=False).status is ExtPosStatus.NONNEGATIVE
