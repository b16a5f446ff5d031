"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime against the stated budget."""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from varsign.cli import main
from varsign.fixtures import path as fixture_path
from varsign.linalg import Matrix, compound, det, inverse, lex_tuples, minor, rank
from varsign.lti import LtiSystem, impulse_response, observability_matrix
from varsign.obsv import compound_system, eigen_necessary_check
from varsign.oracle import falsify_matrix_vb
from varsign.signcons import (
    PreconditionError,
    SignVerdict,
    consecutive_certificate,
    reduced_check,
    sign_consistent,
    sign_regular,
)
from varsign.variation import gauss_smoother

from conftest import observable_pair, random_exact, reverse_columns, trace_blocks


def _report(num, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num} ({elapsed:.2f}s < {limit}s) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def _round2(x: Fraction) -> Fraction:
    # round half away from zero to two decimals, exactly
    sign = -1 if x < 0 else 1
    return sign * Fraction((abs(x) * 100 + Fraction(1, 2)).__floor__(), 100)


def test_criterion_1_example2_observability_matrix():
    start = time.perf_counter()
    A = Matrix.exact([["0.7", "0.6", "-2"], ["0.15", "0.15", "-0.25"], ["0", "0.03", "0.1"]])
    c = (Fraction("1.1"), Fraction("0.1"), Fraction("-5.5"))
    O3 = observability_matrix(A, c, 3)
    ok = O3.row(1) == (Fraction("0.785"), Fraction("0.51"), Fraction("-2.775"))
    printed = [["1.10", "0.10", "-5.50"], ["0.79", "0.51", "-2.78"], ["0.63", "0.46", "-1.98"]]
    for i in range(3):
        for j in range(3):
            ok = ok and _round2(O3[i, j]) == Fraction(printed[i][j])
    _report(1, ok, time.perf_counter() - start, 1, "printed observability matrix reproduced")


def test_criterion_2_example1_two_positive(tmp_path, capsys):
    start = time.perf_counter()
    out = tmp_path / "ex1"
    code = main(["certify", str(fixture_path("example1")), "--property", "kpos",
                 "--k", "2", "--out", str(out)])
    capsys.readouterr()
    ok = code == 0
    expected = {("observability", 1, "1"), ("observability", 1, "2"), ("observability", 1, "3"),
                ("observability", 2, "1 2"), ("observability", 2, "1 3"),
                ("observability", 2, "2 3")}
    blocks = trace_blocks(out / "traces.csv")
    ok = ok and set(blocks) == expected
    for label in expected:
        rows = blocks.get(label, [])[:10]
        ok = ok and len(rows) == 10
        ok = ok and all(Fraction(g) > 0 for _, g in rows)
    _report(2, ok, time.perf_counter() - start, 5,
            "certified 2-positive; all six traces strictly positive for t <= 10")


def test_criterion_3_example2_svb(tmp_path, capsys):
    start = time.perf_counter()
    out_a = tmp_path / "a"
    code2 = main(["certify", str(fixture_path("example2")), "--property", "svb",
                  "--k", "2", "--out", str(out_a)])
    capsys.readouterr()
    report = json.loads((out_a / "report.json").read_text())
    ok = code2 == 0
    ok = ok and report["certificate"]["property"] == "SVB_1"
    ok = ok and report["certificate"]["common_sign"] == 1
    code1 = main(["certify", str(fixture_path("example2")), "--property", "svb",
                  "--k", "1", "--out", str(tmp_path / "b")])
    capsys.readouterr()
    ok = ok and code1 == 1
    _report(3, ok, time.perf_counter() - start, 5,
            "SVB_1 certified with common sign, order 1 refuted")


def test_criterion_4_example3_pipeline():
    start = time.perf_counter()
    th = math.pi / math.sqrt(2)
    Abar = Matrix.floating([
        [1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [0, 1, 1, 0, 0],
        [0, 0, 0, math.cos(th), -math.sin(th)], [0, 0, 0, math.sin(th), math.cos(th)]])
    bbar = (1.0,) * 5
    cbar = (1.0, 1.0, 1.0, 0.001, 0.001)
    g = impulse_response(LtiSystem(Abar, bbar, cbar), 22)
    ok = True
    for t in range(1, 21):
        closed = t / 2 + 0.002 * math.cos(th * (t - 1)) + t * t / 2 + 2
        ok = ok and abs(g[t - 1] - closed) <= 1e-9
    for t in range(2, 21):
        g2 = g[t - 2] * g[t] - g[t - 1] ** 2
        ok = ok and g2 < 0
    hankel = Matrix.floating([[g[i + j] for j in range(5)] for i in range(6)])
    reversed_h = reverse_columns(hankel)
    ok = ok and consecutive_certificate(reversed_h, 2, strict_top=True).passed
    ok = ok and sign_regular(reversed_h, 2, strict=True).passed
    screen = eigen_necessary_check(Abar, 2)
    ok = ok and not screen.passed
    _report(4, ok, time.perf_counter() - start, 5,
            "closed form, negative consecutive 2-minors, SR_2 of reversed Hankel, eigen screen")


def test_criterion_5_defining_identity_exact():
    start = time.perf_counter()
    rng = random.Random(404)
    ok = True
    checks = 0
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        A, c = observable_pair(rng, n)
        ON = observability_matrix(A, c, n + 6)
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                for beta in lex_tuples(n, k):
                    cs = compound_system(A, c, k, r, beta)
                    g = impulse_response(cs, 6)
                    for t in range(1, 7):
                        alpha = tuple(range(1, k - r + 1)) + tuple(range(k - r + t, k + t))
                        checks += 1
                        if g[t - 1] != minor(ON, alpha, beta):
                            ok = False
    _report(5, ok, time.perf_counter() - start, 60,
            f"{checks} exact identities on 50 observable pairs")


def test_criterion_6_pena_equivalence():
    start = time.perf_counter()
    rng = random.Random(606)
    ok = True
    from conftest import cauchy_exact

    for trial in range(200):
        X = cauchy_exact(rng, 6, 3) if trial % 4 == 0 else random_exact(rng, 6, 3)
        for k in (1, 2, 3):
            full = sign_consistent(X, k)
            red = reduced_check(X, k, strict=True)
            if red.certified != full.passes(strict=True):
                ok = False
            if red.certified and red.epsilon != full.epsilon:
                ok = False
    # non-strict shape preconditions: order 2 on 6x3 is rejected
    try:
        reduced_check(random_exact(rng, 6, 3), 2, strict=False)
        ok = False
    except PreconditionError:
        pass
    # non-strict soundness where the shapes allow it
    passes = 0
    for trial in range(200):
        shape_pick = trial % 4
        if shape_pick == 0:
            X, k = cauchy_exact(rng, 8, 4), 2
        elif shape_pick == 1:
            X, k = random_exact(rng, 8, 4), 2
        elif shape_pick == 2:
            X, k = cauchy_exact(rng, 6, 3), 3
        else:
            X, k = random_exact(rng, 6, 3), 1
        red = reduced_check(X, k, strict=False)
        if red.certified:
            passes += 1
            if not sign_consistent(X, k).passes(strict=False):
                ok = False
    ok = ok and passes > 0
    _report(6, ok, time.perf_counter() - start, 30,
            f"strict equivalence on 200 matrices; {passes} non-strict passes all sound")


def _bidiagonal_product(rng, n, m, factors=4):
    X = Matrix.exact([[Fraction(1) if i == j else Fraction(0) for j in range(m)]
                      for i in range(n)])
    for f in range(factors):
        lower = f % 2 == 0
        B = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            B[i][i] = Fraction(rng.randint(1, 3))
            j = i - 1 if lower else i + 1
            if 0 <= j < n:
                B[i][j] = Fraction(rng.randint(0, 2))
        X = Matrix.exact(B) @ X
    return X


def test_criterion_7_ssc_svb_oracle_suite():
    start = time.perf_counter()
    rng = random.Random(707)
    ok = True
    # strictly sign-consistent matrices from smoothing nonnegative full-rank
    # products; the oracle must find nothing
    built = 0
    while built < 5:
        P = _bidiagonal_product(rng, 6, 3)
        if rank(P) < 3:
            continue
        X = gauss_smoother(6, 1.0) @ P.to_float()
        for k in (1, 2, 3):
            if sign_consistent(X, k, tol=1e-12).verdict is not SignVerdict.STRICTLY_POSITIVE:
                continue
            report = falsify_matrix_vb(X, k, trials=1000, seed=700 + built)
            if not report.clean:
                ok = False
        built += 1
    # mixed matrices: a violation should surface within the trial budget
    found = 0
    attempts = 20
    npr = np.random.default_rng(71)
    for i in range(attempts):
        X = Matrix.floating(npr.normal(size=(5, 3)))
        if sign_consistent(X, 1).verdict is not SignVerdict.MIXED:
            continue
        report = falsify_matrix_vb(X, 1, trials=1000, seed=i)
        if not report.clean:
            found += 1
    ok = ok and found >= 0.95 * attempts
    _report(7, ok, time.perf_counter() - start, 60,
            f"clean on SSC matrices; {found}/{attempts} mixed matrices falsified")


def test_criterion_8_kernel_identities():
    start = time.perf_counter()
    rng = random.Random(808)
    ok = True
    # multiplicativity across every small shape
    for n in range(1, 6):
        for p in range(1, 6):
            for m in range(1, 6):
                F = random_exact(rng, n, p, -2, 2, 2)
                G = random_exact(rng, p, m, -2, 2, 2)
                for r in range(1, min(n, p, m) + 1):
                    if compound(F @ G, r) != compound(F, r) @ compound(G, r):
                        ok = False
    # compound spectra are eigenvalue products
    npr = np.random.default_rng(88)
    lams = np.array([1.5, 0.75, -0.5, 0.2])
    V = npr.normal(size=(4, 4))
    A = Matrix.floating(V @ np.diag(lams) @ np.linalg.inv(V))
    import itertools

    for r in (2, 3):
        got = sorted(np.linalg.eigvals(np.array(compound(A, r).data)).real)
        want = sorted(float(np.prod(lams[list(I)])) for I in itertools.combinations(range(4), r))
        if not np.allclose(got, want, atol=1e-8):
            ok = False
    # compound of the inverse
    while True:
        X = random_exact(rng, 4, 4)
        if det(X) != 0:
            break
    ok = ok and compound(inverse(X), 2) == inverse(compound(X, 2))
    # rank collapse
    for k in (1, 2, 3):
        F = random_exact(rng, 4, k, 1, 3, 1)
        G = random_exact(rng, k, 5, 1, 3, 1)
        X = F @ G
        if rank(X) == k and rank(compound(X, k)) != 1:
            ok = False
    # determinant identity on the interior block
    done = 0
    while done < 10:
        X = random_exact(rng, 4, 4)
        if minor(X, (2, 3), (2, 3)) == 0:
            continue
        done += 1
        lhs = det(X) * minor(X, (2, 3), (2, 3))
        rhs = (minor(X, (1, 2, 3), (1, 2, 3)) * minor(X, (2, 3, 4), (2, 3, 4))
               - minor(X, (1, 2, 3), (2, 3, 4)) * minor(X, (2, 3, 4), (1, 2, 3)))
        if lhs != rhs:
            ok = False
    _report(8, ok, time.perf_counter() - start, 30, "kernel identity suites")
