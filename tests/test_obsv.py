import math
import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import varsign.lti as lti
from varsign.linalg import (
    DEFAULT_TOL,
    Backend,
    IndexOutOfRangeError,
    IndexTuple,
    Matrix,
    NonSquareError,
    RankOutOfRangeError,
    SizeMismatchError,
    compound,
    det,
    inverse,
    lex_tuples,
    minor,
    rank,
    sign_of,
)
from varsign.lti import (
    ExtPosStatus,
    LtiSystem,
    dominant_tail,
    impulse_response,
    observability_matrix,
    output_rows,
)
from varsign.fixtures import path as fixture_path
from varsign.io import load_system_file
import varsign.obsv as obsv
from varsign.obsv import (
    BadIndicesError,
    Certificate,
    Conclusion,
    NotObservableError,
    SystemVerdict,
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
from varsign.signcons import vd_matrix_check
from varsign.variation import v_minus

from conftest import observable_pair
from test_lti import _reference_diagonal


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
    g = impulse_response(cs, 6)
    assert all(abs(g[t] - 0.7 ** t) < 1e-12 for t in range(6))


def test_full_order_systems_trace_anchored_minors(rng):
    # impulse responses equal det(M_r[t]) / det(O_n) with M_r stacking the
    # leading block over the shifted trailing block
    A, c = observable_pair(rng, 3)
    d = det(observability_matrix(A, c, 3))
    ON = observability_matrix(A, c, 12)
    for r, cs in enumerate(full_compound_systems(A, c), 1):
        g = impulse_response(cs, 5)
        for t in range(1, 6):
            alpha = tuple(range(1, 3 - r + 1)) + tuple(range(3 - r + t, 3 + t))
            assert g[t - 1] * d == minor(ON, alpha, (1, 2, 3))


def _diagonal_pair(rng, n):
    """Observable pair with a diagonal A of distinct entries, one of them 0,
    and c without zeros.  Equal products of entries (all those with the 0)
    make its compound pairs (C_r(A), c_r) unobservable for 2 <= r < n,
    so there the traces alone do not pin the compound inputs."""
    lam = [Fraction(0)] + [Fraction(x, 2) for x in rng.sample([-4, -2, -1, 1, 2, 3, 4, 6], n - 1)]
    rng.shuffle(lam)
    A = Matrix.exact([[lam[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return A, tuple(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(n))


def test_compound_system_defining_identity_exact(rng):
    pairs = [observable_pair(rng, rng.choice([2, 3])) for _ in range(6)]
    pairs += [observable_pair(rng, 4), _diagonal_pair(rng, 3), _diagonal_pair(rng, 4)]
    for A, c in pairs:
        n = A.rows
        ON = observability_matrix(A, c, n + 6)
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                for beta in lex_tuples(n, k):
                    cs = compound_system(A, c, k, r, beta)
                    g = impulse_response(cs, 6)
                    for t in range(1, 7):
                        alpha = tuple(range(1, k - r + 1)) + tuple(range(k - r + t, k + t))
                        assert g[t - 1] == minor(ON, alpha, beta)
        # full order: g(t) det O_n = det O[alpha_t, 1..n], alpha_t = (t : t+n-1) at r = n
        d = det(observability_matrix(A, c, n))
        for r, cs in enumerate(full_compound_systems(A, c), 1):
            g = impulse_response(cs, 6)
            for t in range(1, 7):
                alpha = tuple(range(1, n - r + 1)) + tuple(range(n - r + t, n + t))
                assert g[t - 1] * d == minor(ON, alpha, range(1, n + 1))


def _contraction_reference(A, c, k, r, beta):
    """The paper's contraction, minor by minor: each anchored k-subset S of the
    rows weighs the r-minors of A^(k-r) O_n^{-1} on the columns S minus the
    anchor by C_k(O_n)[S, beta]."""
    n = A.rows
    obs_n = observability_matrix(A, c, n)
    left = inverse(obs_n)
    for _ in range(k - r):
        left = A @ left
    anchor = frozenset(range(1, k - r + 1))
    coords = [(tuple(sorted(set(S.elems) - anchor)), minor(obs_n, S, beta))
              for S in lex_tuples(n, k) if anchor <= set(S.elems)]
    return tuple(sum((minor(left, q, cols) * weight for cols, weight in coords), Fraction(0))
                 for q in lex_tuples(n, r))


def _contraction_full_order_reference(A, c, r):
    """The last column of C_r(A^(n-r) O_n^{-1})."""
    n = A.rows
    left = inverse(observability_matrix(A, c, n))
    for _ in range(n - r):
        left = A @ left
    return compound(left.submatrix(range(1, n + 1), range(n - r + 1, n + 1)), r).col(0)


def _laplace_reference(A, c, k, r, beta, det_n=None):
    """b = C_r(A)^(k-r) w by the Laplace expansion, written out again: the
    anchor minors by ``minor``, eps_T by counting the entries of the rest of
    beta that each element of T passes, the products by ``compound(A, r)``;
    w / det_n in place of w when det_n is given (the full-order family)."""
    n, a = A.rows, k - r
    obs_n = observability_matrix(A, c, n)
    index = {T.elems: i for i, T in enumerate(lex_tuples(n, r))}
    zero, one = (0.0, 1.0) if A.backend is Backend.FLOAT else (Fraction(0), Fraction(1))
    w = [zero] * len(index)
    for T in combinations(beta.elems, r):
        rest = tuple(x for x in beta.elems if x not in T)
        weight = minor(obs_n, range(1, a + 1), rest) if a else one
        passes = sum(x > t for t in T for x in rest)
        w[index[T]] = -weight if passes % 2 else weight
    if det_n is not None:
        w = [x / det_n for x in w]
    CA = compound(A, r)
    for _ in range(a):
        w = CA.matvec(w)
    return tuple(w)


def _same_scalars(got, want):
    return got == want and [(type(x), repr(x)) for x in got] == \
        [(type(x), repr(x)) for x in want]


def _differential_pairs():
    rng = random.Random(7)
    return [pair for n in range(2, 6)
            for pair in [observable_pair(rng, n) for _ in range(3)] + [_diagonal_pair(rng, n)]]


@pytest.mark.parametrize("arith", ["exact", "float"])
def test_compound_trace_inputs_match_minor_reference(arith):
    """The inputs b of ``_OperatorContext.system`` (those of ``compound_system``
    and ``full_compound_systems``): exact inputs equal the paper's contraction
    through O_n^{-1} as Fractions.  Float inputs equal the Laplace expansion
    written out again, bit for bit, and lie within 1e-12 of the exact inputs,
    relative to their largest entry."""
    checked = 0
    for A, c in _differential_pairs():
        n = A.rows
        exact = obsv._OperatorContext(A, c)
        Af, cf = A.to_float(), tuple(float(x) for x in c)
        ctx = exact if arith == "exact" else obsv._OperatorContext(Af, cf)
        whole, det_n = IndexTuple(n, tuple(range(1, n + 1))), det(observability_matrix(Af, cf, n))
        cases = [(k, r, beta) for k in range(1, n + 1) for r in range(1, k + 1)
                 for beta in lex_tuples(n, k)] + [(n, r, None) for r in range(1, n + 1)]
        for k, r, beta in cases:
            got, want_exact = ctx.system(k, r, beta).b, exact.system(k, r, beta).b
            if arith == "exact":
                want = (_contraction_full_order_reference(A, c, r) if beta is None
                        else _contraction_reference(A, c, k, r, beta))
                assert all(type(x) is Fraction for x in got) and got == want, (n, k, r, beta)
            else:
                want = (_laplace_reference(Af, cf, n, r, whole, det_n) if beta is None
                        else _laplace_reference(Af, cf, k, r, beta))
                assert _same_scalars(got, want), (n, k, r, beta)
                scale = max(abs(float(x)) for x in want_exact) or 1.0
                assert max(abs(x - float(y)) for x, y in zip(got, want_exact)) <= 1e-12 * scale
            checked += 1
    assert checked >= 300


def test_context_c_compound_reads_the_minors_of_o_n():
    """c_r read off the context's O_n equals the first row of C_r(O_r) built
    per order, type and ``repr`` included."""
    checked = 0
    for A, c in _differential_pairs():
        for pair in ((A, c), (A.to_float(), tuple(float(x) for x in c))):
            ctx = obsv._OperatorContext(*pair)
            for r in range(1, A.rows + 1):
                want = compound(observability_matrix(*pair, r), r).row(0)
                assert _same_scalars(ctx.c_compound(r), want), (A.rows, r, pair[0].backend)
                checked += 1
    assert checked == 2 * 4 * (2 + 3 + 4 + 5)


def _propagated_impulse_reference(sys, N):
    """Exact samples by per-system integer state propagation, as
    ``impulse_response`` computed them before it read them off shared
    output rows."""
    dA, db, dc = (math.lcm(*(x.denominator for x in v))
                  for v in ([x for row in sys.A.data for x in row], sys.b, sys.c))
    A = [[x.numerator * (dA // x.denominator) for x in row] for row in sys.A.data]
    x = [v.numerator * (db // v.denominator) for v in sys.b]
    c = [v.numerator * (dc // v.denominator) for v in sys.c]
    den, out = db * dc, []
    for _ in range(N):
        out.append(Fraction(sum(ci * xi for ci, xi in zip(c, x)), den))
        x = [sum(a * xi for a, xi in zip(row, x)) for row in A]
        den *= dA
    return tuple(out)


def _shared_sampling_pairs():
    rng = random.Random(4417)
    pairs = [observable_pair(rng, n) for n in (2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5)]
    ex3 = load_system_file(fixture_path("example3"))
    # example1 and example2 carry no b: drive them along b = c
    for A, b, c in (example1() + (example1()[1],), example2() + (example2()[1],),
                    (ex3.A, ex3.b, ex3.c)):
        pairs += [(A, c), (A.transpose(), b)]  # obsv and ctrb
    return pairs


def test_shared_sampling_matches_per_system_reference():
    """Samples read off one order's shared output rows equal the old
    per-system state propagation (exact) and rows built per system (float),
    and the tail from the order's shared eigen-decomposition equals a
    per-system ``dominant_tail``."""
    systems = tails = 0
    for A, c in _shared_sampling_pairs():
        n = A.rows
        keys = [(k, r, e.beta) for k in range(1, n + 1) for r in range(1, k + 1)
                for e in beta_family(n, k)] + [(n, r, None) for r in range(1, n + 1)]
        ctx = obsv._OperatorContext(A, c, horizon=50)
        fctx = obsv._OperatorContext(A.to_float(), tuple(map(float, c)), horizon=50)
        for key in keys:
            r = key[1]
            sys = ctx.system(*key)
            want = _propagated_impulse_reference(sys, 50)
            for horizon in (1, n, 50):
                rows = (ctx.order(r).extend(50) if horizon == 50 else
                        output_rows(ctx.order(r).A, ctx.c_compound(r), horizon))
                got = impulse_response(sys, horizon, rows)
                assert got == want[:horizon], (n, horizon, key)
                assert all(type(x) is Fraction for x in got)
                assert impulse_response(sys, horizon) == got
            # float samples read off the order's shared rows, bit for bit
            fsys = fctx.system(*key)
            shared = impulse_response(fsys, 50, fctx.order(r).extend(50))
            assert [repr(x) for x in shared] == [repr(x) for x in impulse_response(fsys, 50)]
            for context, system in ((ctx, sys), (fctx, fsys)):
                tail = dominant_tail(system, context.tol, context.order(r).modes)
                assert tail == dominant_tail(system, context.tol), (n, key)
                tails += tail[0] is not None
            systems += 1
    assert systems > 500 and tails > 200


def _early_stop_pairs():
    """Seeded pairs at n = 2..4 and the fixtures' pairs (example3 on both
    sides), each in exact and in float arithmetic."""
    rng = random.Random(2710)
    pairs = [observable_pair(rng, n) for n in (2, 2, 3, 3, 4, 4)]
    for name in ("example1", "example2", "example3"):
        sf = load_system_file(fixture_path(name))
        pairs.append((sf.A, sf.c))
    pairs.append((sf.A.transpose(), sf.b))
    for A, c in pairs:
        yield A, c
        yield A.to_float(), tuple(map(float, c))


def _block_end(t, horizon):
    """Where the sampling block holding sample t ends: 8, 64, 512, ... or the horizon."""
    end = 8
    while end < t:
        end *= 8
    return min(end, horizon)


def _without_samples(cert):
    return replace(cert, per_system=[replace(sv, verdict=replace(sv.verdict, samples=None))
                                     for sv in cert.per_system])


@pytest.mark.parametrize("horizon", [5, 50])
def test_analyses_stop_at_the_first_pair_of_opposite_strict_signs(horizon):
    """Every analysis holds a prefix of the full-horizon samples of its
    shifted system, bit for bit: up to t_bad = max(first positive, first
    negative) when both strict signs occur, up to T = min(horizon,
    max(one period of the zero pattern, lead)) when the sign pattern of
    C_r(A) proves the system, up to min(horizon, max(tail start, 10, lead))
    when its exact real modes prove the tail, whose sign every later sample
    has, else up to the horizon.  Exact values and
    signs are those of the system with its input b formed.  Judged strictly
    or not, and folded into every property at every order, it gives what the
    full-horizon analysis gives; an order's shared rows end at the block of
    the last sample taken, read s rows late."""
    stopped = proved = real_modes = short_orders = 0
    for A, c in _early_stop_pairs():
        n, exact = A.rows, A.backend is Backend.EXACT
        ctx, ref = (obsv._OperatorContext(A, c, horizon=horizon) for _ in range(2))
        taken, unproved = {}, set()
        for key in _all_keys(n):
            analysis, (sys, s) = ctx.analysis(*key), ctx.shifted(*key)
            full = impulse_response(sys, horizon, shift=s)
            signs = tuple(sign_of(x, A.backend, ctx.tol) for x in full)
            t = len(analysis.samples)
            if exact:
                assert analysis.samples == full[:t] and analysis.samples.nums == full.nums[:t]
                formed = impulse_response(ctx.system(*key), horizon)
                assert full == formed and signs == tuple(sign_of(x, A.backend) for x in formed)
            else:
                assert list(map(repr, analysis.samples)) == list(map(repr, full[:t]))
            assert analysis.signs == signs[:t] and analysis.horizon == horizon
            pair = ctx.order(key[1])
            proof = pair.pattern and lti._pattern_proof(pair, sys, s, horizon)
            real = analysis.notes[:1] and analysis.notes[0].startswith("tail by exact real modes")
            last = horizon
            if 1 in signs and -1 in signs:
                assert proof is None, (A, key)
                assert t == max(signs.index(1), signs.index(-1)) + 1, (A, key)
                assert analysis.tail is None and analysis.notes == ()
                reference = replace(analysis, samples=full, signs=signs)
                stopped += t < horizon
            elif proof:
                last = min(horizon, max(len(proof.nonzero), obsv._lead(n, *key)))
                assert t == last and analysis.tail.start == 1, (A, key)
                assert analysis.tail.sign == proof.sign and proof.sign in signs
                reference = replace(analysis, samples=full, signs=signs)
                proved += t < horizon
            elif real:
                tail = analysis.tail
                last = min(horizon, max(tail.start, lti._SHOWN, obsv._lead(n, *key)))
                assert t == last and set(signs[tail.start - 1:]) == {tail.sign}, (A, key)
                reference = replace(analysis, samples=full, signs=signs)
                real_modes += t < horizon
            else:
                assert t == horizon, (A, key)
                reference = analysis
            if not (proof or real):
                unproved.add(key[1])
            for strict in (True, False):
                got, want = lti.judge(analysis, strict), lti.judge(reference, strict)
                assert replace(got, samples=None) == replace(want, samples=None)
                assert got.samples == want.samples[:t]
            ref._analyses[key] = reference
            taken.setdefault(key[1], []).append(_block_end(t, last) + s)
        for r, ends in taken.items():
            rows = ctx.order(r).rows
            assert len(rows) == max(ends)
            short_orders += r in unproved and len(rows) < horizon
        for k in range(1, n + 1):
            for prop, strict in (("svb", True), ("vb", True), ("kpos", True), ("kpos", False)):
                got, want = (obsv._certify(context, prop, k, strict) for context in (ctx, ref))
                assert _without_samples(got) == _without_samples(want), (A, prop, k)
            # vd folds the svb or vb certificate of every order j <= k
            got, want = (obsv._order_certificates(context, k) for context in (ctx, ref))
            assert list(map(_without_samples, got)) == list(map(_without_samples, want))
    # a horizon inside the first block leaves no unproved order's rows short of it
    assert stopped > 250 and (short_orders > 10 if horizon > 8 else short_orders == 0)
    assert proved > 10 and (real_modes > 10 if horizon > lti._SHOWN else real_modes == 0)


def _witness_full_scan(rows, forced_sign):
    """(note, index) of the first refuting system of a fully judged list: the
    witness search as it ran before ``_certify`` stopped at the witness."""
    ref = forced_sign
    for at, (sv, signs, _) in enumerate(rows):
        v = sv.verdict
        ref = ref or v.sample_sign
        if ref and -ref in signs:
            t = signs.index(-ref) + 1
            return (f"system {sv.label()}: {v.status.value}, "
                    f"g({t}) = {obsv.scalar_text(v.samples[t - 1])} "
                    f"against the {'forced ' if forced_sign else ''}family sign {ref:+d}"), at
        if v.status is ExtPosStatus.VIOLATED:
            return (f"system {sv.label()}: violated at t={v.first_violation[0]} "
                    f"({v.notes[-1]})"), at
    return None, None


def _certify_full_scan(ctx, prop, k, strict):
    """``_certify`` as it ran before refutations stopped at their witness:
    every required system is analysed and judged before the witness search.
    Returns the certificate, the witness index (None without one) and the
    number of required systems."""
    name, requirements, forced_sign, may_refute = obsv._rules(prop, ctx.n, k, strict)
    rows = []
    for j, r, beta, want_strict, lead in requirements:
        analysis = ctx.analysis(j, r, beta)
        sv = SystemVerdict(r, j, beta, not want_strict, lti.judge(analysis, want_strict))
        rows.append((sv, analysis.signs, lead))
    per = [sv for sv, _, _ in rows]
    witness, at = _witness_full_scan(rows, forced_sign) if may_refute else (None, None)
    if witness:
        return (Certificate(name, "observability", Conclusion.REFUTED, None, per, ctx.horizon,
                            [witness]), at, len(rows))
    eps = forced_sign
    if eps is None:
        eps = next((sv.verdict.sign for sv in per if not sv.relaxed and sv.verdict.sign), None)
    problem = next(filter(None, (obsv._shortfall(sv, signs, lead, eps)
                                 for sv, signs, lead in rows)), None)
    conclusion = Conclusion.INCONCLUSIVE if problem else Conclusion.CERTIFIED
    return (Certificate(name, "observability", conclusion, eps, per, ctx.horizon,
                        [problem] if problem else []), None, len(rows))


def _refute_stop_triples():
    """(A, b, c) with both (A, c) and (A^T, b) observable: seeded exact
    triples at n = 3 and 4 with p/q entries, and the fixtures (b = c on
    example1 and example2), each in exact and in float arithmetic."""
    rng = random.Random(3003)
    triples = []
    for n in (3, 3, 3, 4, 4):
        while True:
            A, c = observable_pair(rng, n)
            b = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
            if rank(observability_matrix(A.transpose(), b, n)) == n:
                break
        triples.append((A, b, c))
    for name in ("example1", "example2", "example3"):
        sf = load_system_file(fixture_path(name))
        triples.append((sf.A, sf.b if sf.b is not None else sf.c, sf.c))
    for A, b, c in triples:
        yield A, b, c
        yield A.to_float(), tuple(map(float, b)), tuple(map(float, c))


def test_refuting_certificates_stop_at_the_full_scan_witness(monkeypatch):
    """Against the full scan, the fold that stops at its witness reaches the
    same conclusion, notes and family sign for svb and kpos (strict and
    non-strict) at every order, on the obsv and ctrb sides and on both
    Hankel factors; ``per_system`` is the full scan's list up to and
    including the witness, and no system after it is analysed."""
    analysed = []
    analyse = obsv.analyse
    monkeypatch.setattr(obsv, "analyse", lambda sys, *args: analysed.append(sys) or
                        analyse(sys, *args))
    seen = {"refuted": 0, "last": 0, "sample sign": 0, "violated": 0, "certified": 0}

    def check(got, A, c, prop, k, strict):
        """The number of systems ``got`` lists, checked against the full scan."""
        want, at, required = _certify_full_scan(obsv._OperatorContext(A, c), prop, k, strict)
        if prop == "kpos" and want.passed():
            want.notes.append("operator is order-preserving variation diminishing "
                              f"of order {k - 1}")
        assert (got.property_name, got.conclusion, got.notes, got.common_sign, got.horizon) == \
            (want.property_name, want.conclusion, want.notes, want.common_sign, want.horizon)
        listed = required if at is None else at + 1
        assert got.per_system == want.per_system[:listed], (A, prop, k, strict)
        if at is not None:
            seen["refuted"] += 1
            seen["last"] += at == required - 1
            seen["sample sign"] += "against the family sign" in got.notes[0]
            seen["violated"] += "violated at t=" in got.notes[0]
        seen["certified"] += got.passed()
        return listed

    for A, b, c in _refute_stop_triples():
        for k in range(1, A.rows + 1):
            for prop, strict in (("svb", True), ("kpos", True), ("kpos", False)):
                for A_side, c_side in ((A, c), (A.transpose(), b)):
                    analysed.clear()
                    cert = certify_observability(A_side, c_side, k, prop, strict=strict)
                    assert len(analysed) == check(cert, A_side, c_side, prop, k, strict)
                analysed.clear()
                obs, ctrb = certify_hankel(A, b, c, k, prop, strict=strict).parts
                assert len(analysed) == (check(obs, A, c, prop, k, strict) + check(
                    replace(ctrb, target="observability"), A.transpose(), b, prop, k, strict))
    assert all(count > 0 for count in seen.values()), seen


def test_shared_eigen_note_lands_on_every_system():
    """A note of an order's shared eigen step reaches each of its systems."""
    cases = [(Matrix.exact([["1e400", "0"], ["1", "0.5"]]), "exceeds float range"),
             (Matrix.exact([["0", "-1"], ["1", "0"]]), "not decisively real positive"),
             (Matrix.exact([["1", "0"], ["0", "-1"]]), "no modulus gap")]
    for A, note in cases:
        ctx = obsv._OperatorContext(A, (Fraction(1), Fraction(1)), horizon=4)
        for key in [(1, 1, e.beta) for e in beta_family(2, 1)] + [(2, 1, None)]:
            system = ctx.system(*key)
            assert note in dominant_tail(system, ctx.tol, ctx.order(1).modes)[1], (A, key)
            assert note in dominant_tail(system, ctx.tol)[1], (A, key)


def _tail_route(analysis):
    """(route, tail_start) of an analysis's tail; (None, None) without one."""
    if analysis.tail is None:
        return None, None
    route = "recurrence" if any("minimal-recurrence" in n for n in analysis.notes) else "eigen"
    return route, analysis.tail.start


def _shift_differential_pairs():
    rng = random.Random(3202)
    return [pair for n in (3, 4, 5)
            for pair in (observable_pair(rng, n), observable_pair(rng, n), _diagonal_pair(rng, n))]


@pytest.mark.parametrize("arith", ["exact", "float"])
def test_shifted_analyses_match_the_systems_with_b_formed(arith):
    """Each analysis of the context reads (C_r(A), w, c_r) s rows late; it
    matches ``analyse`` and ``impulse_response`` of the system with its input
    b formed (``compound_system``, ``full_compound_systems``) at every k, r
    and beta and on the full-order family: equal tail route and
    ``tail_start``; exact, equal sample values, signs and notes; float,
    equal decisive signs and samples within 1e-12 of the system's largest
    |g|.  Both take the sampled route, the formed system's ``Pair`` and the
    context's with their proof routes off; with the proof routes, an exact
    context's analysis holds a prefix of the same samples and signs."""
    systems = routes = 0
    for A, c in _shift_differential_pairs():
        if arith == "float":
            A, c = A.to_float(), tuple(map(float, c))
        n = A.rows
        ctx, routed = _sampled_context(A, c), obsv._OperatorContext(A, c)
        H = ctx.horizon
        cases = [((k, r, beta), compound_system(A, c, k, r, beta)) for k in range(1, n + 1)
                 for r in range(1, k + 1) for beta in lex_tuples(n, k)]
        cases += [((n, r, None), sys) for r, sys in enumerate(full_compound_systems(A, c), 1)]
        for key, sys in cases:
            got, want = ctx.analysis(*key), lti.analyse(sys, H, pair=_sampled_pair(sys))
            full = impulse_response(sys, H)
            t = len(got.samples)
            if arith == "exact":
                assert got.samples == want.samples == full[:t], (A, key)
                assert got.signs == want.signs and got.notes == want.notes, (A, key)
                proved = routed.analysis(*key)
                head = len(proved.samples)
                assert proved.samples == full[:head] and proved.signs == got.signs[:head], (A, key)
            else:
                scale = max(map(abs, full)) or 1.0
                assert max(abs(x - y) for x, y in zip(got.samples, full)) <= 1e-12 * scale
                signs = [sign_of(x, A.backend, ctx.tol) for x in full[:t]]
                assert all(a == b for a, b in zip(got.signs, signs) if a is not None
                           and b is not None), (A, key)
            # the residues of w scaled by lam^s are those of b: the same tail
            assert _tail_route(got) == _tail_route(want), (A, key)
            routes += got.tail is not None
            systems += 1
    assert systems > 400 and routes > 100, (systems, routes)


def test_certificates_form_no_compound_input(monkeypatch):
    """No certifier multiplies by C_r(A): on the fixtures, exact and float,
    every property and target at k = 1..3 (example3 at k = 1) runs without
    ``Matrix.matvec``."""
    def refuse(self, v):
        raise AssertionError("Matrix.matvec called on a certify path")

    monkeypatch.setattr(Matrix, "matvec", refuse)
    runs = 0
    for name, orders in (("example1", (1, 2, 3)), ("example2", (1, 2, 3)), ("example3", (1,))):
        sf = load_system_file(fixture_path(name))
        b = sf.b if sf.b is not None else sf.c
        for A, b_, c in ((sf.A, b, sf.c), (sf.A.to_float(), tuple(map(float, b)),
                                          tuple(map(float, sf.c)))):
            for k in orders:
                for prop in ("svb", "vb", "kpos", "vd"):
                    certify_observability(A, c, k, prop)
                    certify_controllability(A, b_, k, prop)
                    certify_hankel(A, b_, c, k, prop)
                    runs += 3
    assert runs == 2 * 4 * 3 * 7


def test_compound_system_r_equals_k_first_sample(rng):
    A, c = observable_pair(rng, 3)
    for beta in lex_tuples(3, 2):
        cs = compound_system(A, c, 2, 2, beta)
        g = impulse_response(cs, 1)
        assert g[0] == minor(observability_matrix(A, c, 2), (1, 2), beta)


def test_not_observable_raises():
    A = Matrix.exact([[1, 0], [0, 1]])
    with pytest.raises(NotObservableError):
        full_compound_systems(A, (1, 0))
    with pytest.raises(NotObservableError):
        compound_system(A, (1, 0), 1, 1, IndexTuple(2, (1,)))


@pytest.mark.parametrize("k, r, beta, error", [
    (2, 3, (1, 2), RankOutOfRangeError),
    (4, 1, (1, 2), RankOutOfRangeError),
    (0, 0, (1, 2), RankOutOfRangeError),
    (2, 1, (2, 1), IndexOutOfRangeError),
    (2, 1, (1, 4), IndexOutOfRangeError),
    (2, 1, (1,), BadIndicesError),
    (2, 1, IndexTuple(4, (1, 2)), BadIndicesError),
])
def test_compound_system_rejects_bad_orders_and_indices(k, r, beta, error):
    A, c = example2()
    with pytest.raises(error):
        compound_system(A, c, k, r, beta)


def test_compound_system_reads_a_plain_tuple_as_its_index_tuple():
    A, c = example2()
    assert compound_system(A, c, 2, 1, (1, 2)) == compound_system(A, c, 2, 1, IndexTuple(3, (1, 2)))


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


@pytest.mark.parametrize("arith", ["exact", "float"])
def test_certify_vb_relaxed_system_needs_its_first_k_samples_strict(arith):
    """The relaxed system of column set {2} traces (0, 1, 9/10, ...):
    nonnegative, yet its first sample is 0, so vb stays inconclusive on it."""
    A = Matrix.exact([["0.5", "1", "0"], ["0", "0.4", "0"], ["0", "0", "0.3"]])
    c = tuple(map(Fraction, ("1", "0", "1")))
    if arith == "float":
        A, c = A.to_float(), tuple(map(float, c))
    cert = certify_vb(A, c, 1)
    assert cert.conclusion is Conclusion.INCONCLUSIVE and cert.common_sign == 1
    assert cert.notes == ["system (r=1, beta={2}): first 1 samples not strictly signed"]


def test_certify_vb_refutes_only_by_its_exact_section():
    """The systems never refute vb: example2's VB_0 family is mixed, so they
    leave float mode undecided.  In exact mode the section O_4 refutes it
    first: c = (1.1, 0.1, -5.5) has entries of both signs."""
    A, c = example2()
    cert = certify_vb(A, c, 1)
    assert cert.conclusion is Conclusion.REFUTED
    assert cert.per_system == [] and cert.common_sign is None
    assert cert.notes == ["section O_4 is not VB_0 (sign consistency with independent columns): "
                          "conflicting minors ((((1,), (1,)), Fraction(11, 10)), "
                          "(((1,), (3,)), Fraction(-11, 2)))"]
    cert = certify_vb(A.to_float(), tuple(float(x) for x in c), 1)
    assert cert.conclusion is Conclusion.INCONCLUSIVE and cert.per_system


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
    compounds = []

    def counting_compound(X, r):
        compounds.append((X, r))
        return compound(X, r)

    monkeypatch.setattr(obsv, "compound", counting_compound)
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
    # each context builds one compound per (matrix, order)
    assert compounds and len(set(compounds)) == len(compounds)


def _count_modes(monkeypatch):
    """The state matrices of every eigen-decomposition the engine builds."""
    built = []
    dominant_modes = lti.dominant_modes

    def counting(A, c, tol=DEFAULT_TOL):
        built.append(A.data)
        return dominant_modes(A, c, tol)

    monkeypatch.setattr(lti, "dominant_modes", counting)
    return built


@pytest.mark.parametrize("prop", ["svb", "vb", "kpos"])
def test_samples_of_both_signs_build_no_eigen_modes(monkeypatch, prop):
    # A turns by atan(1/3) per step: both inputs of k = 1 give samples that
    # start positive and turn negative at t = 10 and t = 5, so no tail is
    # needed; the rows c, cA, cA^2 are positive, so the section O_3 leaves
    # vb to the systems
    built = _count_modes(monkeypatch)
    A = Matrix.exact([["9/10", "-3/10"], ["3/10", "9/10"]])
    cert = certify_observability(A, (1, 2), 1, prop)
    assert cert.per_system
    assert all(sv.verdict.status is ExtPosStatus.VIOLATED for sv in cert.per_system)
    assert built == []


def test_eigen_modes_are_built_at_most_once_per_order(monkeypatch):
    """Example2's exact real modes prove every system of svb at k = 2 with no
    eigen-decomposition; with that rung off, its systems take the eigen
    route, which builds each order's decomposition at most once."""
    built = _count_modes(monkeypatch)
    A, c = example2()
    assert certify_svb(A, c, 2).passed() and built == []
    monkeypatch.setattr(lti, "_real_mode_tail", lambda *args: None)
    assert certify_svb(A, c, 2).passed()
    assert 0 < len(built) == len(set(built)) <= 2


def _dense_tenths_pair(seed, n):
    rng = random.Random(seed)
    A = Matrix.exact([[Fraction(rng.randint(1, 9), 10) for _ in range(n)] for _ in range(n)])
    return A, tuple(Fraction(rng.randint(1, 9), 10) for _ in range(n))


def _mixed(samples):
    return min(samples) < 0 < max(samples)


def _count_tail_work(monkeypatch):
    """The systems given a tail (an exact real-mode one, or an eigen-tail
    attempt), and the samples given a recurrence fit."""
    tail_calls, fitted = [], []
    tail, fit, real = lti.dominant_tail, lti.minimal_recurrence_system, lti._real_mode_tail

    def counting_tail(*args, **kwargs):
        tail_calls.append(args[0])
        return tail(*args, **kwargs)

    def counting_real(pair, sys, *args):
        proved = real(pair, sys, *args)
        if proved:
            tail_calls.append(sys)
        return proved

    def counting_fit(sys, samples):
        fitted.append(samples)
        return fit(sys, samples)

    monkeypatch.setattr(lti, "dominant_tail", counting_tail)
    monkeypatch.setattr(lti, "minimal_recurrence_system", counting_fit)
    monkeypatch.setattr(lti, "_real_mode_tail", counting_real)
    return tail_calls, fitted


def _vb_engine(A, c, k):
    """What ``certify_vb`` runs when its section refutes nothing."""
    return obsv._certify(obsv._OperatorContext(A, c), "vb", k)


@pytest.mark.parametrize("seed,witness,tails", [(0, 2, 7), (1, 2, 11), (2, 3, 4)])
def test_tail_work_only_on_systems_not_refuted_by_samples(monkeypatch, seed, witness, tails):
    """Samples of both strict signs refute a system without a tail: dense
    pairs at n = 4, k = 3 refute SVB_2 at their 2nd, 2nd and 3rd system,
    analysing none after it, and try the tail of each listed one-signed
    system.  Their section O_5 refutes VB_2 before any system is analysed;
    the systems, which never refute vb, are all 12 analysed and try the tail
    of only the 7, 11 and 4 whose samples are one-signed."""
    tail_calls, fitted = _count_tail_work(monkeypatch)
    cases = ((certify_svb, Conclusion.REFUTED, witness, witness),
             (certify_vb, Conclusion.REFUTED, 0, 0),
             (_vb_engine, Conclusion.INCONCLUSIVE, 12, tails))
    for certifier, conclusion, systems, want in cases:
        tail_calls.clear()
        cert = certifier(*_dense_tenths_pair(seed, 4), 3)
        assert cert.conclusion is conclusion and len(cert.per_system) == systems
        one_signed = [sv for sv in cert.per_system if not _mixed(sv.verdict.samples)]
        assert len(tail_calls) == len(one_signed) == want
    assert not any(_mixed(samples) for samples in fitted)


def test_silent_section_leaves_vb_to_systems_that_tail_only_when_one_signed(monkeypatch):
    """Every 3-minor of this pair's section O_5 is positive, so certify_vb
    analyses all 12 systems of VB_2, as the engine alone does, and tries the
    tail of only the 8 whose samples are one-signed."""
    tail_calls, fitted = _count_tail_work(monkeypatch)
    A = Matrix.exact([[1, 2, -2, 1], [-1, 1, 3, -1], [-1, -1, 3, 1], [1, -1, 2, 1]])
    c = (2, 3, 0, 2)
    cert = certify_vb(A, c, 3)
    assert cert.conclusion is Conclusion.INCONCLUSIVE and len(cert.per_system) == 12
    one_signed = [sv for sv in cert.per_system if not _mixed(sv.verdict.samples)]
    assert len(tail_calls) == len(one_signed) == 8
    assert not any(_mixed(samples) for samples in fitted)
    tail_calls.clear()
    assert _vb_engine(A, c, 3) == cert and len(tail_calls) == 8


def test_example3_hankel_route():
    A, c, barsys = example3_hankel_pair()
    # observability matrix of the constructed pair is the Hankel matrix
    O6 = observability_matrix(A, c, 6)
    g = impulse_response(barsys, 12)
    assert max(abs(O6[i, j] - g[i + j]) for i in range(6) for j in range(5)) < 1e-8
    # the truncated Hankel matrix certifies VD_1 through sign regularity
    H = Matrix.floating([[float(g[i + j]) for j in range(5)] for i in range(6)])
    res = vd_matrix_check(H, 2)
    assert res.status is Conclusion.CERTIFIED
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


def test_impulse_variation_bound_parses_b_before_certifying(monkeypatch):
    """Decimal-string entries of b read as the Fractions they denote, and a
    b of the wrong length is refused before any order is certified."""
    A = Matrix.exact([["0.5", "0"], ["0", "0.25"]])
    c = ("1", "1")
    report = impulse_variation_bound(A, ["1", "-1"], c)
    assert repr(report) == repr(impulse_variation_bound(A, (Fraction(1), Fraction(-1)), c))
    calls = []
    certify = obsv._certify
    monkeypatch.setattr(obsv, "_certify", lambda *args: calls.append(args) or certify(*args))
    with pytest.raises(SizeMismatchError):
        impulse_variation_bound(A, [1], c)
    assert calls == []


def test_impulse_variation_bound_parses_string_b_on_float_backend():
    """On a float A, decimal-string entries of b read as the floats they
    denote, so the report equals the one given those floats."""
    A = Matrix.exact([["0.5", "0"], ["0", "0.25"]]).to_float()
    c = ("1", "1")
    report = impulse_variation_bound(A, ["1.5", "-1"], c)
    assert report.input_variation == 1
    assert repr(report) == repr(impulse_variation_bound(A, (1.5, -1.0), c))


def test_impulse_variation_bound_reads_order_one_rows_and_modes():
    """The report equals one sampled and tail-certified on (A, b, c) apart
    from the context, as before it read C_1(A) = A and c_1 = c off it."""
    rng = random.Random(1408)
    ex3 = load_system_file(fixture_path("example3"))
    cases = [example1() + ((1, -1, -1),), example2() + ((1, 1, -2),), example2() + ((0, 0, 0),),
             (ex3.A, ex3.c, ex3.b)]
    for n in (2, 3, 3, 4):
        A, c = observable_pair(rng, n)
        cases.append((A, c, tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))))
    complete = 0
    for A, c, b in cases:
        for X, cc, bb, tol in ((A, c, b, None), (A.to_float(), c, b, 1e-9)):
            report = impulse_variation_bound(X, bb, cc)
            sys = LtiSystem(X, tuple(bb), tuple(cc))
            tail, _ = dominant_tail(sys)
            want = replace(report, measured=v_minus(impulse_response(sys, report.horizon), tol),
                           measurement_complete=tail is not None and tail.start <= report.horizon)
            assert report == want, (X, bb)
            complete += report.measurement_complete
    assert complete > 0


def test_impulse_variation_bound_reads_the_exact_modal_tail_of_a_diagonal_a():
    """On an exact diagonal A the measurement is complete when the exact
    modal tail of (A, b, c) starts within the horizon, else when the eigen
    tail does: never less often than by the eigen tail alone, and also past
    the float range, where the eigen route gives no tail."""
    A = Matrix.exact([["1e400", "0"], ["0", "0.5"]])
    report = impulse_variation_bound(A, (1, -1), (1, 1))
    assert dominant_tail(LtiSystem(A, (1, -1), (1, 1)))[0] is None
    assert report.measurement_complete and report.measured == 0
    for A, c in _modal_families():
        for b in ((1,) * A.rows, tuple((-1) ** i for i in range(A.rows))):
            report = impulse_variation_bound(A, b, c)
            sys = LtiSystem(A, b, c)
            modal = lti._modal_tail(lti.Pair(A, sys.c), sys, 0, report.horizon)
            eigen, _ = dominant_tail(sys)
            by_eigen = eigen is not None and eigen.start <= report.horizon
            assert report.measurement_complete == (modal is not None or by_eigen), (A, b)


@pytest.mark.parametrize("A, b, c", [
    (Matrix.exact([["1/2", 0, 0], [0, "1/10", "-1/5"], [0, "1/5", "1/10"]]), (1, 0, 0),
     (1, 1, 1)),
    (Matrix.exact([["1/2", "1/10"], ["-1/10", "-1/4"]]), (1, -3), (1, 1)),
], ids=["one-signed", "both signs"])
def test_impulse_variation_bound_drops_a_tail_its_samples_contradict(monkeypatch, A, b, c):
    """A sampled tail whose sign the decisive samples contradict leaves the
    measurement incomplete.  Neither system has a proved tail, so the
    flipped eigen tail is the one offered.  The first A has no signature,
    is not diagonal, and its rotation block gives it a complex pair, which
    no real-mode tail takes: its samples along b = (1, 0, 0), (1/2)^(t-1),
    carry one sign.  The second system's are -, +, -, then + from t = 4,
    the eigen tail's start, on."""

    def flipped(*args, **kwargs):
        tail, note = dominant_tail(*args, **kwargs)
        return (tail and lti.TailCertificate(tail.start, -tail.sign)), note

    assert impulse_variation_bound(A, b, c).measurement_complete
    monkeypatch.setattr(lti, "dominant_tail", flipped)
    assert not impulse_variation_bound(A, b, c).measurement_complete


@pytest.mark.parametrize("entry", [
    lambda A, c: certify_svb(A, c, 1), lambda A, c: certify_vb(A, c, 1),
    lambda A, c: certify_k_positive(A, c, 1), lambda A, c: certify_vd(A, c, 1),
    lambda A, c: impulse_variation_bound(A, c, c),
    lambda A, c: compound_system(A, c, 1, 1, (1,)),
    lambda A, c: full_compound_systems(A, c),
], ids=["svb", "vb", "kpos", "vd", "impulse_variation_bound", "compound_system",
        "full_compound_systems"])
def test_non_square_state_matrix_is_a_non_square_error(entry):
    """The operator entry points refuse a non-square A as ``LtiSystem`` does."""
    with pytest.raises(NonSquareError, match="state matrix must be square"):
        entry(Matrix.exact([[1, 2, 3], [4, 5, 6]]), (1, 1, 1))


@pytest.mark.parametrize("A, b, c, route, levels", [
    ([["1/2", "1/10"], ["0", "1/2"]], (1, 1), (1, 1), "tail by sign pattern", {0: "strict"}),
    ([["-1/2", "1"], ["-1", "3/2"]], (-2, -2), (0, -1),
     "tail bound via exact minimal-recurrence reduction", {}),
], ids=["sign pattern", "recurrence"])
def test_impulse_variation_bound_reads_the_tail_ladder(A, b, c, route, levels):
    """Each A is defective (a double eigenvalue 1/2), so the eigen route of
    (A, b, c) gives no tail; the measurement is complete all the same, by the
    route that ``lti.analyse`` takes: the sign pattern of a nonnegative A, or
    the exact minimal-recurrence reduction.  The certified levels and the
    bound are the operator's."""
    A = Matrix.exact(A)
    sys = LtiSystem(A, b, c)
    assert dominant_tail(sys)[0] is None
    assert lti.analyse(sys).notes[0].startswith(route)
    report = impulse_variation_bound(A, b, c)
    assert report.measurement_complete and report.measured == 0
    assert report.certified_levels == levels
    assert report.bound == (0 if levels else None)


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
    obs, ctrb = cert.parts
    assert (obs.target, ctrb.target) == ("observability", "controllability")
    assert obs.conclusion is ctrb.conclusion is Conclusion.CERTIFIED
    assert cert.target == "hankel" and cert.per_system == []
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


def _ldu_pair(rng, n):
    """A = L D U / 4 with unit bidiagonal L, U (entries in {1/4, .., 1} off
    the diagonal) and a positive diagonal D: a totally nonnegative A, so that
    S = I at every order; c = 1."""
    off = [Fraction(rng.randint(1, 4), 4) for _ in range(2 * (n - 1))]
    L = Matrix.exact([[1 if i == j else off[j] if i == j + 1 else 0 for j in range(n)]
                      for i in range(n)])
    U = Matrix.exact([[1 if i == j else off[n - 1 + i] if j == i + 1 else 0 for j in range(n)]
                      for i in range(n)])
    D = Matrix.exact([[Fraction(rng.randint(1, 8), 2) if i == j else 0 for j in range(n)]
                      for i in range(n)])
    A = L @ D @ U
    return Matrix.exact([[x / 4 for x in row] for row in A.data]), (Fraction(1),) * n


def _sparse_pair(rng, n, upper):
    """A with a positive diagonal and sparse off-diagonal entries of either
    sign, upper-triangular when ``upper``, and a c with zeros, drawn until
    the pair is observable: zeros in c and A leave walks that miss supp(w),
    which gives shifted systems a proof and proofs zeros."""
    while True:
        A = Matrix.exact([[Fraction(rng.randint(1, 7), 8) if i == j
                           else 0 if (upper and j < i) or rng.random() < 0.6
                           else Fraction(rng.choice((-2, -1, 1, 2)), 4) for j in range(n)]
                          for i in range(n)])
        c = tuple(Fraction(rng.choice((0, 0, 1, -1, 2))) for _ in range(n))
        if rank(observability_matrix(A, c, n)) == n:
            return A, c


def _pattern_families():
    """Seeded exact pairs, n = 2..5: diagonal (a decreasing positive spectrum
    with c = 1, as the benchmark draws, and a spectrum of either sign),
    upper-triangular, L D U / 4, sparse, and random dense."""
    rng = random.Random(4242)
    pairs = []
    for n in (2, 3, 3, 4, 4, 5):
        positive = sorted(rng.sample(range(1, 10), n), reverse=True)
        pairs.append((Matrix.exact([[Fraction(positive[i], 10) if i == j else 0
                                     for j in range(n)] for i in range(n)]), (Fraction(1),) * n))
        lam = rng.sample([Fraction(x, 8) for x in (-5, -2, 1, 2, 3, 4, 5, 6, 7)], n)
        pairs.append((Matrix.exact([[lam[i] if i == j else 0 for j in range(n)]
                                    for i in range(n)]),
                      tuple(Fraction(rng.choice((-1, 1, 2, 3))) for _ in range(n))))
        pairs += [_sparse_pair(rng, n, upper) for upper in (True, False, False)]
        pairs += [_ldu_pair(rng, n), observable_pair(rng, n)]
    return pairs


def _sampled_context(A, c, routes=("pattern", "diagonal", "real_spectrum")):
    """A context that takes none of the exact ``routes`` (the sign-pattern,
    the exact modal and the exact real-mode route): with all three off, the
    reference route."""
    ctx = obsv._OperatorContext(A, c)
    for r in range(1, A.rows + 1):
        ctx.order(r).__dict__.update(dict.fromkeys(routes))
    return ctx


def _sampled_pair(sys, routes=("pattern", "diagonal", "real_spectrum")):
    """The ``lti.Pair`` of one system with the exact ``routes`` off."""
    pair = lti.Pair(sys.A, sys.c)
    pair.__dict__.update(dict.fromkeys(routes))
    return pair


def _all_keys(n):
    return [(k, r, e.beta) for k in range(1, n + 1) for r in range(1, k + 1)
            for e in beta_family(n, k)] + [(n, r, None) for r in range(1, n + 1)]


def _proved_nonzero(proof, t):
    """Whether the proof says g(t) != 0, by its period past the samples it holds."""
    held = len(proof.nonzero)
    if t > held:
        t = proof.pre + 1 + (t - 1 - proof.pre) % (held - proof.pre)
    return proof.nonzero[t - 1]


_DECISIVE = (Conclusion.CERTIFIED, Conclusion.REFUTED)


def _assert_decisive_conclusions_stand(A, runs, mine, theirs):
    """Every decisive conclusion and family sign of the sampled route
    (``theirs``) stands, and a refutation names a sample it holds."""
    for run, got, want in zip(runs, mine, theirs):
        if want.conclusion in _DECISIVE:
            assert (got.conclusion, got.common_sign) == (
                want.conclusion, want.common_sign), (A, run)
        if got.conclusion is Conclusion.REFUTED and got.per_system:
            t = re.match(r"system .*?(?:g\((\d+)\) = |violated at t=(\d+))", got.notes[0])
            assert 1 <= int(t[1] or t[2]) <= len(got.per_system[-1].verdict.samples), got.notes


def test_sign_pattern_proofs_agree_with_long_samples_and_the_sampled_route():
    """Differential test against the sampled route on seeded diagonal,
    triangular, totally nonnegative and dense pairs: every proof's sign and
    zeros hold for exact samples to t = 400; an unproved system's analysis
    is the sampled route's; every decisive verdict and conclusion of the
    sampled route stands; and a refutation names a sample it holds."""
    proved = shifted = full_order = with_zeros = upgraded = 0
    for A, c in _pattern_families():
        n = A.rows
        ctx, ref = _sampled_context(A, c, ("diagonal", "real_spectrum")), _sampled_context(A, c)
        for key in _all_keys(n):
            k, r, beta = key
            sys, s = ctx.shifted(*key)
            got, want = ctx.analysis(*key), ref.analysis(*key)
            pair = ctx.order(r)
            proof = pair.pattern and lti._pattern_proof(pair, sys, s, ctx.horizon)
            if not proof:
                assert got == want, (A, key)
                continue
            proved += 1
            shifted += s > 0
            full_order += beta is None
            with_zeros += not all(proof.nonzero)
            g = impulse_response(sys, 400, shift=s)
            for t, num in enumerate(g.nums, 1):
                assert sign_of(num, Backend.EXACT) == (proof.sign if _proved_nonzero(proof, t)
                                                       else 0), (A, key, t)
            assert got.samples == g[:len(got.samples)] and got.tail.sign == proof.sign
            for strict in (True, False):
                mine, theirs = lti.judge(got, strict), lti.judge(want, strict)
                if theirs.status is ExtPosStatus.HORIZON_ONLY:
                    upgraded += mine.status is not ExtPosStatus.HORIZON_ONLY
                    continue
                assert (mine.status, mine.first_violation, mine.sample_sign) == (
                    theirs.status, theirs.first_violation, theirs.sample_sign), (A, key, strict)
        runs = [(prop, k) for k in range(1, n + 1) for prop in ("svb", "vb", "kpos", "vd")]
        mine = [certify_observability(A, c, k, prop) for prop, k in runs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lti, "_proved_tail", lambda *args: None)
            theirs = [certify_observability(A, c, k, prop) for prop, k in runs]
        _assert_decisive_conclusions_stand(A, runs, mine, theirs)
    assert proved > 200 and shifted > 5 and full_order > 20 and with_zeros > 5, (
        proved, shifted, full_order, with_zeros)
    assert upgraded > 0


def _diagonal_matrix(entries):
    n = len(entries)
    return Matrix.exact([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def _modal_families():
    """Seeded exact diagonal pairs, n = 2..6: a decreasing positive spectrum
    with c = 1 (as the benchmark draws), spectra with repeated products
    (6/10 * 2/10 = 4/10 * 3/10) or with a zero and a negative entry, and c
    of mixed signs (c has no zero: a diagonal pair with one is not
    observable)."""
    rng = random.Random(4545)
    pairs = []
    for n in (2, 3, 4, 5, 6):
        spectra = [sorted(rng.sample(range(1, 10), n), reverse=True),
                   rng.sample([6, 4, 3, 2, 1, 8][:n] if n >= 4 else [6, 4, 3, 2], n),
                   [0, -rng.choice((3, 5, 7))] + rng.sample([1, 2, 4, 6, 8, 9], n - 2)]
        for i, lam in enumerate(spectra):
            c = ((Fraction(1),) * n if i == 0
                 else tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(n)))
            pairs.append((_diagonal_matrix([Fraction(x, 10) for x in lam]), c))
    return pairs


def _modal_systems():
    """Seeded diagonal systems (A, b, c) with zeros and mixed signs in b and
    c, and repeated, zero and negative modes, each with a shift of 0..2."""
    rng = random.Random(4546)
    out = []
    for n in (2, 3, 4, 5, 6):
        for _ in range(12):
            lam = [Fraction(rng.choice((-6, -3, 0, 1, 2, 3, 4, 6, 6, 8, 9)), 10) for _ in range(n)]
            vec = lambda: tuple(Fraction(rng.choice((0, 0, -2, -1, 1, 2, 3))) for _ in range(n))
            out.append((LtiSystem(_diagonal_matrix(lam), vec(), vec()), rng.randint(0, 2)))
    return out


def _check_modal_analysis(sys, s, got, want):
    """Checks one analysis that took the exact modal route against the
    sampled route's ``want``; returns (upgraded verdicts, earlier start)."""
    tail = got.tail
    g = impulse_response(sys, 400, shift=s)
    assert all(sign_of(num, Backend.EXACT) == tail.sign for num in g.nums[tail.start - 1:]), (
        sys, s, tail)
    held = len(got.samples)
    assert got.samples == want.samples[:held] and got.signs == want.signs[:held], (sys, s)
    upgraded = 0
    for strict in (True, False):
        mine, theirs = lti.judge(got, strict), lti.judge(want, strict)
        if theirs.status is ExtPosStatus.HORIZON_ONLY:
            upgraded += mine.status is not ExtPosStatus.HORIZON_ONLY
            continue
        assert (mine.status, mine.first_violation, mine.sample_sign) == (
            theirs.status, theirs.first_violation, theirs.sample_sign), (sys, s, strict)
    route, start = _tail_route(want)
    if route == "eigen":
        assert tail.start <= start, (sys, s, tail.start, start)
    return upgraded, route == "eigen" and tail.start < start


def test_exact_modal_tails_agree_with_long_samples_and_the_sampled_route():
    """Differential test of the exact modal route against the sampled route
    (both exact routes off) on seeded diagonal pairs and systems: every
    modal tail's sign holds for exact samples from its start to t = 400; the
    held samples are a prefix of the sampled route's; every decisive
    verdict, ``first_violation`` and ``sample_sign`` of the sampled route
    stands, and so does every decisive conclusion of the certifiers; no
    start is later than the eigen route's; a system neither route proves
    gets the sampled route's analysis.  Contexts run with and without the
    sign-pattern route, which goes first when on."""
    modal = shifted = full_order = upgraded = earlier = 0
    for A, c in _modal_families():
        n = A.rows
        ref = _sampled_context(A, c)
        for off in ((), ("pattern",)):
            ctx = _sampled_context(A, c, off)
            for key in _all_keys(n):
                k, r, beta = key
                sys, s = ctx.shifted(*key)
                got, want = ctx.analysis(*key), ref.analysis(*key)
                if got.notes and got.notes[0].startswith("tail by sign pattern"):
                    continue
                if not (got.notes and got.notes[0].startswith("tail by exact diagonal modes")):
                    assert got == want, (A, key)
                    continue
                modal += 1
                shifted += s > 0 and beta is not None
                full_order += beta is None
                up, moved = _check_modal_analysis(sys, s, got, want)
                upgraded, earlier = upgraded + up, earlier + moved
        runs = [(prop, k) for k in range(1, n + 1) for prop in ("svb", "vb", "kpos", "vd")]
        mine = [certify_observability(A, c, k, prop) for prop, k in runs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lti, "_proved_tail", lambda *args: None)
            theirs = [certify_observability(A, c, k, prop) for prop, k in runs]
        _assert_decisive_conclusions_stand(A, runs, mine, theirs)
    for sys, s in _modal_systems():
        modal_only = _sampled_pair(sys, ("pattern",))
        assert modal_only.diagonal == _reference_diagonal(sys.A) is not None
        got = lti.analyse(sys, 50, pair=modal_only, shift=s)
        want = lti.analyse(sys, 50, pair=_sampled_pair(sys), shift=s)
        if got.tail is None or not got.notes[0].startswith("tail by exact diagonal modes"):
            assert got == want, (sys, s)
            continue
        modal += 1
        up, moved = _check_modal_analysis(sys, s, got, want)
        upgraded, earlier = upgraded + up, earlier + moved
    assert modal > 1000 and shifted > 600 and full_order > 60, (modal, shifted, full_order)
    assert upgraded > 0 and earlier > 200, (upgraded, earlier)


def test_exact_modal_tails_fall_back_to_the_sampled_route():
    """No active mode, a dominant negative mode, a dominant +-M pair, and a
    start past the horizon each leave the system to the sampled route."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [(_diagonal_matrix([half, third]), (1, 1), (0, 0), 50),
             (_diagonal_matrix([-half, third]), (1, 1), (1, 1), 50),
             (_diagonal_matrix([half, -half, third]), (1, 1, 1), (1, 1, 5), 50),
             (_diagonal_matrix([half, Fraction(49, 100)]), (1, 1), (1, -100), 3)]
    for A, b, c, horizon in cases:
        sys = LtiSystem(A, b, c)
        assert lti._modal_tail(lti.Pair(A, sys.c), sys, 0, horizon) is None
        got = lti.analyse(sys, horizon)
        assert got == lti.analyse(sys, horizon, pair=_sampled_pair(sys)), (A, b, c)
    # repeated modes merge (6/10 * 2/10 = 4/10 * 3/10): a merged residue of 0
    # leaves 1/10 the one active mode, so g(t) = -(1/10)^(t-1)
    A = _diagonal_matrix([Fraction(12, 100), Fraction(12, 100), Fraction(1, 10)])
    sys = LtiSystem(A, (1, 1, 1), (1, -1, -1))
    tail = lti._modal_tail(lti.Pair(A, sys.c), sys, 0, 50)
    assert (tail.start, tail.sign) == (1, -1)
    sys = LtiSystem(A, (1, 2, 1), (1, -1, -3))
    tail = lti._modal_tail(lti.Pair(A, sys.c), sys, 0, 50)
    # the merged residue -1 of 12/100 outweighs 3 (10/12)^(t-1) from t = 8
    assert (tail.start, tail.sign) == (8, -1)
    assert lti.Pair(Matrix.exact([[1, 0], [1, 1]]), (1, 1)).diagonal is None


def _transforms(A, c):
    """(alpha A, beta c) for two positive pairs (alpha, beta), and
    (D^-1 A D, c D) with D = diag(1, 2, .., n)."""
    n = A.rows
    for alpha, beta in ((Fraction(2), Fraction(3)), (Fraction(1, 3), Fraction(1, 1000))):
        yield (Matrix.exact([[alpha * x for x in row] for row in A.data]),
               tuple(beta * x for x in c))
    d = [Fraction(i + 1) for i in range(n)]
    yield (Matrix.exact([[A.data[i][j] * d[j] / d[i] for j in range(n)] for i in range(n)]),
           tuple(x * di for x, di in zip(c, d)))


def test_sign_pattern_route_and_status_survive_scaling_and_diagonal_similarity():
    """(alpha A, beta c) with alpha, beta > 0 and (D^-1 A D, c D) with D > 0
    diagonal scale every compound entry, c_r and w by positive factors: each
    system keeps its route, its sample signs and, when proved, its status."""
    proved = 0
    for A, c in _pattern_families():
        n = A.rows
        base = obsv._OperatorContext(A, c)
        for A2, c2 in _transforms(A, c):
            other = obsv._OperatorContext(A2, c2)
            for key in _all_keys(n):
                r = key[1]
                routes = []
                for ctx in (base, other):
                    sys, s = ctx.shifted(*key)
                    pair = ctx.order(r)
                    routes.append(bool(pair.pattern and lti._pattern_proof(pair, sys, s,
                                                                           ctx.horizon)))
                assert routes[0] == routes[1], (A, key)
                one, two = base.analysis(*key), other.analysis(*key)
                assert one.signs == two.signs, (A, key)
                if routes[0]:
                    proved += 1
                    for strict in (True, False):
                        assert lti.judge(one, strict).status is lti.judge(two, strict).status
    assert proved > 400


@pytest.mark.parametrize("certifier", [certify_svb, certify_vd], ids=["svb", "vd"])
def test_exact_diagonal_n9_certifies_at_k4_by_sign_patterns(certifier):
    """Exact diag(9/10, .., 1/10), c = 1, at k = 4 and the default horizon:
    the systems the eigen route leaves at "verified up to horizon only" are
    proved by the sign pattern of their C_r(A), so the operator certifies."""
    n = 9
    A = Matrix.exact([[Fraction(9 - i, 10) if i == j else 0 for j in range(n)] for i in range(n)])
    cert = certifier(A, (1,) * n, 4)
    assert cert.conclusion is Conclusion.CERTIFIED, cert.notes
    assert cert.horizon == 90
    proved = [sv for sv in cert.per_system if sv.verdict.tail_start == 1 and sv.verdict.notes
              and sv.verdict.notes[0].startswith("tail by sign pattern")]
    assert len(proved) >= 20


def _real_spectrum_pairs():
    """Seeded observable exact pairs (T^-1 L T, c), n = 3: L diagonal with a
    positive spectrum whose pairwise products differ, so that C_1(A) and
    C_2(A) have real simple spectra, and T unimodular (integer T^-1)."""
    rng = random.Random(2049)
    pairs = []
    while len(pairs) < 4:
        lam = rng.sample(range(1, 10), 3)
        if len({lam[0] * lam[1], lam[0] * lam[2], lam[1] * lam[2]}) < 3:
            continue
        T = Matrix.exact([[1, 0, 0], [rng.randint(-2, 2), 1, 0], [rng.randint(-2, 2), 1, 1]]) @ \
            Matrix.exact([[1, rng.randint(-2, 2), rng.randint(-1, 1)], [0, 1, 1], [0, 0, 1]])
        L = Matrix.exact([[Fraction(lam[i], 10) if i == j else 0 for j in range(3)]
                          for i in range(3)])
        A = inverse(T) @ L @ T
        c = tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(3))
        if lti.Pair(A, c).diagonal is None and rank(observability_matrix(A, c, 3)) == 3:
            pairs.append((A, c))
    return pairs


_METAMORPHIC_PAIRS = [example1(), example2()] + _real_spectrum_pairs()


@settings(max_examples=20, deadline=None)
@given(index=st.integers(0, len(_METAMORPHIC_PAIRS) - 1), k=st.integers(1, 3),
       alpha=st.fractions(min_value=Fraction(1, 16), max_value=16, max_denominator=16),
       beta=st.one_of(st.just(Fraction(1, 10**6)),
                      st.fractions(min_value=Fraction(1, 1000), max_value=1000,
                                   max_denominator=1000)),
       d=st.lists(st.integers(1, 12), min_size=3, max_size=3))
@example(index=0, k=2, alpha=Fraction(1), beta=Fraction(1, 10**6), d=[1, 2, 3])
@example(index=1, k=2, alpha=Fraction(1), beta=Fraction(1, 10**6), d=[1, 2, 3])
@example(index=0, k=2, alpha=Fraction(97, 9), beta=Fraction(1, 10**6), d=[1, 1, 1])
def test_exact_conclusions_survive_positive_scaling_and_diagonal_similarity(index, k, alpha,
                                                                            beta, d):
    """Exact svb, vb, kpos and vd conclusions and family signs on example1,
    example2 and seeded real-spectrum pairs do not change under (alpha A,
    beta c) with rational alpha, beta > 0 (beta = 10^-6 included), nor under
    (D^-1 A D, c D) with a positive integer diagonal D: each scales every
    sample of every system by a positive factor, and the exact routes decide
    in integers, with no absolute gate."""
    A, c = _METAMORPHIC_PAIRS[index]
    n = A.rows
    twins = [(Matrix.exact([[alpha * x for x in row] for row in A.data]),
              tuple(beta * x for x in c)),
             (Matrix.exact([[A.data[i][j] * d[j] / d[i] for j in range(n)] for i in range(n)]),
              tuple(x * di for x, di in zip(c, d)))]
    for prop in ("svb", "vb", "kpos", "vd"):
        want = certify_observability(A, c, k, prop)
        for A2, c2 in twins:
            got = certify_observability(A2, c2, k, prop)
            assert (got.conclusion, got.common_sign) == (want.conclusion, want.common_sign), (
                index, k, prop, alpha, beta, d)
