"""The section O_(n+1) that exact vb and vd judge before any compound system.

A VB_(k-1) refutation of the section is one of the operator (obsv module
docstring).  These tests check each refutation on a seeded corpus against an
explicit input, exactly; that no certified fixture case and no certifiable
diagonal pair has a refuted section; that positive scalings leave the
section's verdicts alone; and that the context reads O_n and the section off
one ``Minors`` of its integer output rows, with the values the ``Fraction``
matrices gave.
"""

import json
import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import varsign.linalg as linalg
import varsign.lti as lti
import varsign.obsv as obsv
from varsign.fixtures import path as fixture_path
from varsign.io import load_system_file
from varsign.linalg import Matrix, Minors, det, index_sets, inverse
from varsign.lti import observability_matrix, output_rows
from varsign.obsv import Conclusion, certify_vb, certify_vd
from varsign.variation import v_minus

from conftest import observable_pair, random_exact

GOLDEN = Path(__file__).with_name("golden_reports.json")


def _section(A, c):
    """O_(n+1) as Fractions, the reference form."""
    return observability_matrix(A, c, A.rows + 1)


def _refutation(A, c, k):
    """The note of vb's section refutation at order k, or None."""
    cert = obsv._section_refutation(obsv._OperatorContext(A, c), "VB", [k])
    return cert.notes[0] if cert else None


def _alternating_input(X, R, J):
    """u on the columns J such that X[R, J] u alternates in sign over the k + 1
    rows R, when the k-minors of that block carry both strict signs.

    With d_i the minor without the i-th row of R, z_i = (-1)^i d_i has
    z X[R, J] = 0, so y_i = (-1)^i w_i lies in the block's range when the
    weights w > 0 have sum d_i w_i = 0."""
    d = [det(X.submatrix(R[:i] + R[i + 1:], J)) for i in range(len(R))]
    if not (min(d) < 0 < max(d)):
        return None
    w = [Fraction(1)] * len(R)
    total = sum(d)
    if total:
        j = next(i for i, x in enumerate(d) if x * total < 0)
        w[j] -= total / d[j]
    y = [(-1) ** i * x for i, x in enumerate(w)]
    i0 = next(i for i, x in enumerate(d) if x)
    v = inverse(X.submatrix(R[:i0] + R[i0 + 1:], J)).matvec(y[:i0] + y[i0 + 1:])
    u = [Fraction(0)] * X.cols
    for j, x in zip(J, v):
        u[j - 1] = x
    return u


def _s_minus_rows(Y):
    """S- of each row of the float array Y, entries within 1e-9 of the row's
    largest modulus read as zeros."""
    scale = np.abs(Y).max(axis=1, keepdims=True)
    s = np.sign(np.where(np.abs(Y) > 1e-9 * scale, Y, 0.0))
    last, count = np.zeros(len(Y)), np.zeros(len(Y), dtype=int)
    for col in s.T:
        count += (col != 0) & (last != 0) & (col != last)
        last = np.where(col != 0, col, last)
    return count


def _searched_input(X, k, draws=200_000, seed=0):
    """A float search for u with S-(u) <= k-1 < S-(Xu), each hit replayed in
    Fractions: random sign patterns with at most k - 1 changes, a quarter of
    the entries zero, moduli spread over six decades."""
    rng = np.random.default_rng(seed)
    Xf = np.array(X.to_float().data)
    m, batch = X.cols, 20_000
    for _ in range(draws // batch):
        flips = np.zeros((batch, m - 1), dtype=bool)
        where = np.argsort(rng.random((batch, m - 1)), axis=1)
        changes = rng.integers(0, k, size=batch)
        for t in range(min(k - 1, m - 1)):
            rows = np.nonzero(changes > t)[0]
            flips[rows, where[rows, t]] = True
        signs = rng.choice([-1.0, 1.0], size=(batch, 1)) * (-1.0) ** np.concatenate(
            [np.zeros((batch, 1)), np.cumsum(flips, axis=1)], axis=1)
        U = signs * 10.0 ** rng.uniform(-3, 3, size=(batch, m)) * (rng.random((batch, m)) > 0.25)
        for h in np.nonzero(_s_minus_rows(U @ Xf.T) >= k)[0]:
            u = [Fraction(float(x)) for x in U[h]]
            if v_minus(u) <= k - 1 < v_minus(X.matvec(u)):
                return u
    return None


def _witness(X, k):
    """(u, built): an exact u with S-(u) <= k-1 < S-(Xu), built from a
    (k + 1) x k block with minors of both signs, else searched for."""
    for J in index_sets(X.cols, k):
        for R in combinations(range(1, X.rows + 1), k + 1):
            u = _alternating_input(X, R, J)
            if u is not None:
                return u, True
    return _searched_input(X, k), False


def test_every_section_refutation_has_an_exact_witness():
    """On seeded exact n = 3 pairs (the exact_refute benchmark's generator) at
    k = 1..3, each section refutation comes with an input u, checked in
    Fractions, that O_(n+1) maps from S-(u) <= k-1 to S-(O_(n+1) u) >= k."""
    rng = random.Random(3101)
    refuted = built = 0
    for _ in range(150):
        A, c = observable_pair(rng, 3)
        X = _section(A, c)
        for k in (1, 2, 3):
            if _refutation(A, c, k) is None:
                continue
            refuted += 1
            u, was_built = _witness(X, k)
            assert u is not None, (A, c, k)
            assert v_minus(u) <= k - 1 < v_minus(X.matvec(u)), (A, c, k, u)
            built += was_built
    assert refuted >= 400 and 0 < built < refuted


def _golden_pairs(name, target):
    sf = load_system_file(fixture_path(name))
    obs, ctrb = (sf.A, sf.c), (sf.A.transpose(), sf.b)
    return {"obsv": [obs], "ctrb": [ctrb], "hankel": [obs, ctrb]}[target]


def _certified_orders(prop, k):
    """The orders j whose VB_(j-1) a certified ``prop`` at order k implies."""
    return range(1, k + 1) if prop in ("kpos", "vd") else [k]


def test_no_certified_case_has_a_refuted_section():
    """Every certified golden case, and every certifiable diagonal pair, keeps
    a section that refutes none of the orders its certificate covers."""
    checked = 0
    for case_id, record in json.loads(GOLDEN.read_text()).items():
        if record["exit"] != 0:
            continue
        name, target, prop, k = case_id.split("/")
        for A, c in _golden_pairs(name, target):
            for j in _certified_orders(prop, int(k[1:])):
                assert _refutation(A, c, j) is None, (case_id, j)
                checked += 1
    rng = random.Random(3102)
    for n in (2, 3, 4, 5):
        for _ in range(3):
            lams = sorted({Fraction(rng.randint(1, 19), 20) for _ in range(n)}, reverse=True)
            while len(lams) < n:
                lams.append(lams[-1] / 2)
            A = Matrix.exact([[lams[i] if i == j else 0 for j in range(n)] for i in range(n)])
            for k in range(1, n + 1):
                assert _refutation(A, (1,) * n, k) is None, (lams, k)
                checked += 1
    assert checked >= 50


_LABELS = re.compile(r"\(\(\(([\d, ]*)\), \(([\d, ]*)\)\)")


def _section_verdicts(A, c):
    """Per order k: whether the section refutes, its rule, and the (I, J) of
    its witness minors, whose values a scaling moves."""
    out = []
    for k in range(1, A.rows + 1):
        note = _refutation(A, c, k)
        out.append(None if note is None else (note.split(":")[0], _LABELS.findall(note)))
    return out


def _twins(A, c):
    """(alpha A, beta c) and (D^-1 A D, c D) for positive alpha, beta and D."""
    n = A.rows
    D = [Fraction(i + 1, 2) for i in range(n)]
    yield Matrix.exact([[2 * x for x in row] for row in A.data]), tuple(3 * x for x in c)
    yield (Matrix.exact([[x / 2 for x in row] for row in A.data]),
           tuple(x / 1000 for x in c))
    yield A, tuple(x * Fraction(1, 10 ** 6) for x in c)
    yield (Matrix.exact([[A[i, j] * D[j] / D[i] for j in range(n)] for i in range(n)]),
           tuple(x * d for x, d in zip(c, D)))


def test_section_verdicts_ignore_positive_scalings():
    """(alpha A, beta c) has the section diag(beta alpha^(t-1)) O_(n+1), and
    (D^-1 A D, c D) has O_(n+1) D: positive diagonal factors keep the sign of
    every minor, so each order's section verdict, rule and witness (I, J)
    stay the same, on seeded pairs and on example1 and example2."""
    rng = random.Random(3103)
    pairs = [(sf.A, sf.c) for sf in map(load_system_file, map(fixture_path,
                                                              ("example1", "example2")))]
    pairs += [observable_pair(rng, n) for n in (2, 3, 3, 3, 4)]
    refuted = 0
    for A, c in pairs:
        want = _section_verdicts(A, c)
        refuted += sum(v is not None for v in want)
        for twin in _twins(A, c):
            assert _section_verdicts(*twin) == want, (A, c, twin)
    assert refuted >= 5


def test_section_refutation_ends_vb_and_vd_before_any_system(monkeypatch):
    """A refuted section leaves vb and vd with no systems, no family sign and
    one note naming O_(n+1); nothing is analysed.  vd takes the first order
    j <= k whose section refutes."""
    analysed = []
    monkeypatch.setattr(obsv, "analyse", lambda *args, **kwargs: analysed.append(args))
    sf = load_system_file(fixture_path("example2"))
    A, c = sf.A, sf.c
    for cert in (certify_vb(A, c, 3), certify_vd(A, c, 3)):
        assert cert.conclusion is Conclusion.REFUTED and cert.per_system == []
        assert cert.common_sign is None and len(cert.notes) == 1
        assert cert.notes[0].startswith("section O_4 is not VB_")
    assert cert.property_name == "VD_2" and cert.notes[0].startswith("section O_4 is not VB_0 ")
    assert analysed == []


def _mixed_denominator_pairs():
    rng = random.Random(3104)
    for n in (2, 3, 4, 5):
        for _ in range(3):
            A = random_exact(rng, n, n, -5, 5, 7)
            c = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 9)) for _ in range(n))
            yield A, c


def test_context_reads_o_n_and_the_section_off_the_integer_rows():
    """Rank, det O_n, each c_r and every minor of the section equal what
    ``Minors`` of the ``Fraction`` matrices O_n and O_(n+1) gives, exact and
    float, on pairs whose entries have mixed denominators."""
    checked = 0
    for A, c in _mixed_denominator_pairs():
        n = A.rows
        for pair in ((A, c), (A.to_float(), tuple(float(x) for x in c))):
            old = Minors(observability_matrix(*pair, n))
            if old.rank() < n:
                continue
            ctx = obsv._OperatorContext(*pair)
            full = tuple(range(1, n + 1))
            assert ctx._minors.rank() == n
            assert ctx.det_n == old.value((full, full))
            for r in range(1, n + 1):
                want = tuple(old.value((tuple(range(1, r + 1)), J)) for J in index_sets(n, r))
                assert ctx.c_compound(r) == want
            if pair[0] is A:  # exact: the section is the context's own Minors
                assert ctx._minors.shape == (n + 1, n)
                section = ctx._minors
            else:
                assert ctx._minors.shape == (n, n)
                rows = output_rows(*pair, n + 1)
                section = Minors(Matrix.floating(rows.rows))
            reference = Minors(observability_matrix(*pair, n + 1))
            for r in range(1, n + 1):
                # the two lift their rows by different scales: compare values
                sets = (index_sets(n + 1, r), index_sets(n, r))
                got = [(key, section.value(key)) for key, _ in section.stream(*sets)]
                assert got == [(key, reference.value(key)) for key, _ in reference.stream(*sets)]
            checked += 1
    assert checked >= 20


def test_each_exact_pair_reads_one_minors(monkeypatch):
    """An exact context reads rank, det O_n, each c_r and the section off one
    ``Minors`` of its n + 1 order-1 output rows: besides the one ``compound``
    builds per C_r(A) of a non-diagonal A (a diagonal A's compounds build
    none), certify_vb and certify_vd build one ``Minors`` per context,
    whether the section refutes or not, and ``_section_refutation`` builds
    and extends no rows."""
    built, compounds, contexts = [], [], []
    new, compound, init = linalg.Minors.__init__, obsv.compound, obsv._OperatorContext.__init__
    monkeypatch.setattr(linalg.Minors, "__init__",
                        lambda self, *args: (built.append(self), new(self, *args))[1])
    monkeypatch.setattr(obsv, "compound",
                        lambda *args: (compounds.append(args), compound(*args))[1])
    monkeypatch.setattr(obsv._OperatorContext, "__init__",
                        lambda self, *args: (contexts.append(self), init(self, *args))[1])
    sf = load_system_file(fixture_path("example2"))
    diagonal = Matrix.exact([["0.9", 0, 0], [0, "0.5", 0], [0, 0, "0.2"]])
    pairs = [(sf.A, sf.c), (diagonal, (1, 1, 1)), observable_pair(random.Random(3105), 3)]
    refuted = runs = 0
    for A, c in pairs:
        for k in (1, 2, 3):
            for certify in (certify_vb, certify_vd):
                del built[:], compounds[:], contexts[:]
                refuted += certify(A, c, k).conclusion is Conclusion.REFUTED
                assert len(contexts) == 1
                eliminated = sum(X is not diagonal for X, _ in compounds)
                assert len(built) == eliminated + 1, (A, c, k, certify)
                runs += 1
    assert runs == 18 and 0 < refuted < runs

    def unreachable(*args, **kwargs):
        raise AssertionError("the section builds no rows and no Minors")

    for A, c in pairs:
        ctx = obsv._OperatorContext(A, c)
        monkeypatch.setattr(lti.Pair, "__init__", unreachable)
        monkeypatch.setattr(lti.Pair, "extend", unreachable)
        monkeypatch.setattr(lti, "output_rows", unreachable)
        monkeypatch.setattr(linalg.Minors, "__init__", unreachable)
        obsv._section_refutation(ctx, "VD_2", [1, 2, 3])
        monkeypatch.undo()


def test_exact_pairs_eliminate_no_rank(monkeypatch):
    """An exact context proves O_n full rank by det O_n != 0 and the section
    takes rank n from it, so exact certify_vb and certify_vd eliminate no rank
    on observable pairs; a float context runs one rank elimination, and an
    unobservable exact pair one, for its rank r < n text."""
    rng = random.Random(4021)
    pairs = [pair for n in (3, 4, 5) for pair in [
        (Matrix.exact([[Fraction(9 - 2 * i, 10) if i == j else 0 for j in range(n)]
                       for i in range(n)]), (1,) * n),
        observable_pair(rng, n)]]
    shapes = []
    rank = linalg.Minors.rank
    monkeypatch.setattr(linalg.Minors, "rank",
                        lambda self, *args: (shapes.append(self.shape), rank(self, *args))[1])
    for A, c in pairs:
        n = A.rows
        for k in range(1, n + 1):
            for certify in (certify_vb, certify_vd):
                certify(A, c, k)
                assert shapes == [], (A, c, k, certify)
        obsv._OperatorContext(A.to_float(), tuple(map(float, c)))
        assert shapes == [(n, n)]
        del shapes[:]
    A = Matrix.exact([["0.5", 0, 0], [0, "0.5", 0], [0, 0, "0.25"]])
    with pytest.raises(obsv.NotObservableError, match=r"^observability matrix has rank 2 < 3$"):
        certify_vd(A, (1, 1, 1), 2)
    assert shapes == [(4, 3)]
