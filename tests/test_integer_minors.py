"""Exact minors read as integers.

An exact ``Minors.stream`` read is the Bareiss integer of the minor: the minor
times the positive product of its rows' scales, so it has the minor's sign.
``Minors.value`` turns a streamed minor into its ``Fraction`` from what the
stream kept.  The sign checks read signs off the integers and turn only the
witness minors they return or report into values.  The reference below is the
reader as it was before: every exact minor streamed as its reduced
``Fraction``.
"""

import json
import random
import sys
from fractions import Fraction
from itertools import zip_longest

import pytest

import varsign.signcons as signcons
from varsign import linalg
from varsign.cli import main
from varsign.linalg import Matrix, Minors, compound, index_sets, lift, minor, scalar_text
from varsign.lti import observability_matrix
from varsign.signcons import (
    _witness_text,
    consecutive_certificate,
    k_positive,
    reduced_check,
    sign_consistent,
    sign_regular,
    vb_matrix_check,
    vd_matrix_check,
)

from conftest import cauchy_exact, random_exact, streamed_minor

#: entries of this size give 2-minors longer than the int-string digit limit
_BIG = 10 ** 2500


class _FractionMinors(Minors):
    """The reader before signs were read off integers: every exact minor
    streams as its reduced ``Fraction``, built as it is read."""

    __slots__ = ()

    def stream(self, row_sets, col_sets):
        for key, _ in super().stream(row_sets, col_sets):
            yield key, self.value(key)


def _with_zeros(rng, n, m):
    entry = lambda: 0 if rng.random() < 0.4 else Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    return Matrix.exact([[entry() for _ in range(m)] for _ in range(n)])


def _rank_deficient(rng, n, m):
    two = random_exact(rng, n, 2, -4, 4, 5)
    return Matrix.exact([[a, b] + [a - b * j for j in range(1, m - 1)] for a, b in two.data])


def _huge(rng, n, m):
    """Entries of about 10^2500 over small denominators, both signs."""
    entry = lambda: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9) * _BIG, rng.randint(1, 7))
    return Matrix.exact([[entry() for _ in range(m)] for _ in range(n)])


def _corpus():
    """(kind, exact matrix) pairs of every kind the reader must handle."""
    rng = random.Random(3505)
    corpus = [("1x1", Matrix.exact([[Fraction(-3, 7)]])), ("1x1", Matrix.exact([[0]])),
              ("1x1", Matrix.exact([[Fraction(5, 2)]]))]
    for n, m in [(2, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (6, 4)]:
        corpus += [("mixed", random_exact(rng, n, m, -5, 5, 9)),
                   ("cauchy", cauchy_exact(rng, n, m)),
                   ("zeros", _with_zeros(rng, n, m))]
        if m > 2:
            corpus.append(("rank-deficient", _rank_deficient(rng, n, m)))
    corpus += [("huge", _huge(rng, n, m)) for n, m in [(3, 2), (4, 3), (2, 2)]]
    # one-signed in every order-1 and order-2 column, mixed across columns
    corpus.append(("huge", Matrix.exact([[_BIG, 1], [1, _BIG], [_BIG, -_BIG]])))
    return corpus


CORPUS = _corpus()
IDS = [f"{kind}-{i}" for i, (kind, _) in enumerate(CORPUS)]


def test_corpus_holds_minors_past_the_int_string_limit():
    big = minor(CORPUS[-1][1], (1, 3), (1, 2))
    assert len(linalg.int_text(abs(big.numerator))) > sys.get_int_max_str_digits()


@pytest.mark.parametrize("kind, X", CORPUS, ids=IDS)
def test_exact_stream_reads_are_minors_times_row_scales(kind, X):
    """Two streams and ``value`` reads in turn on one ``Minors``: every
    streamed read is an int, the minor times the product of the row scales
    of I; every ``value`` read is the minor as a ``Fraction``."""
    minors = Minors(X)
    for r in range(1, min(X.shape) + 1):
        rows, cols = index_sets(X.rows, r), index_sets(X.cols, r)
        both = zip_longest(minors.stream(rows[::-1], cols), minors.stream(rows, cols[::2]))
        for n, pair in enumerate(both):
            for (I, J), v in filter(None, pair):
                assert type(v) is int and v == streamed_minor(X, I, J), (I, J)
            I = rows[n % len(rows)]
            got = [minors.value((I, J)) for J in cols[::-1]]
            assert got == [minor(X, I, J) for J in cols[::-1]]
            assert all(type(x) is Fraction for x in got)


@pytest.mark.parametrize("kind, X", CORPUS, ids=IDS)
def test_value_of_a_streamed_minor_runs_no_elimination(monkeypatch, kind, X):
    orders = [(index_sets(X.rows, r), index_sets(X.cols, r)) for r in range(1, min(X.shape) + 1)]
    want = {(I, J): minor(X, I, J) for rows, cols in orders for I in rows for J in cols}
    minors = Minors(X)
    for rows, cols in orders:
        list(minors.stream(rows, cols))
    calls = []
    bareiss = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda m: calls.append(len(m)) or bareiss(m))
    for key, value in want.items():
        got = minors.value(key)
        assert got == value and type(got) is Fraction, key
    assert calls == []


def _floats(xs):
    """Each entry as the hex of its nearest double, or None past float range."""
    out = []
    for x in xs:
        try:
            out.append(float(x).hex())
        except OverflowError:
            out.append(None)
    return out


def _repr(M):
    """``repr(M)``, or the error of an entry past the int-string digit limit."""
    try:
        return repr(M)
    except ValueError as exc:
        return str(exc)


def _assert_one_form(build):
    """The exact matrix ``build()`` is built with no ``Fraction`` and no call
    of ``linalg.parse_scalar``, and holds each row as ``lift`` of its entries
    gives it; it equals, hashes and reprs like the matrix of its entries, and
    rounds to floats as ``float`` of each entry does."""
    built, parsed = [], []
    new, parse = Fraction.__new__, linalg.parse_scalar
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__new__",
                      lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
        patch.setattr(linalg, "parse_scalar", lambda *args: parsed.append(args) or parse(*args))
        M = build()
    assert (built, parsed) == ([], [])
    assert all((M.dens[i], M.ints[i]) == lift(row) for i, row in enumerate(M.data))
    twin = Matrix.exact(M.data)
    assert M == twin and hash(M) == hash(twin) and _repr(M) == _repr(twin)
    want = [_floats(row) for row in M.data]
    if any(None in row for row in want):
        with pytest.raises(OverflowError):
            M.to_float()
    else:
        assert [[x.hex() for x in row] for row in M.to_float().data] == want


@pytest.mark.parametrize("kind, X", CORPUS, ids=IDS)
def test_compound_keeps_the_one_integer_form(kind, X):
    for r in range(1, min(X.shape) + 1):
        _assert_one_form(lambda: compound(X, r))


def test_observability_matrix_keeps_the_one_integer_form():
    rng = random.Random(4301)
    pairs = [(X, tuple(X.data[0])) for kind, X in CORPUS if X.rows == X.cols]
    pairs += [(random_exact(rng, n, n, -5, 5, 9),
               tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 9)) for _ in range(n)))
              for n in (1, 2, 3, 4, 5) for _ in range(3)]
    pairs.append((Matrix.exact([["1e400", 0], [0, "1/2"]]), (Fraction(1), Fraction(1))))
    assert any(kind == "huge" and X.rows == X.cols for kind, X in CORPUS)
    for A, c in pairs:
        for t in (1, A.rows, A.rows + 2):
            _assert_one_form(lambda: observability_matrix(A, c, t))


def _entry_texts(rng, x):
    """``x`` in one of the forms a file may give it: p/q, p/q scaled by k,
    p followed by k zeros then e-k, or a bare JSON integer."""
    p, q = x.numerator, x.denominator
    k = rng.randint(1, 9)
    forms = [f"{p}/{q}", f" {k * p}/{k * q} "]
    if q == 1:
        forms += [f"{p}{'0' * k}e-{k}", f"{p}.{'0' * k}", p]
    return rng.choice(forms)


def test_loaded_matrices_keep_the_one_integer_form(tmp_path):
    """A bare matrix read from a file, each entry written as p/q, as an
    unreduced multiple of it, or for an integer with an exponent, a
    fractional part or bare, holds each row as ``lift`` gives it, with no
    ``Fraction`` built and no ``parse_scalar`` call."""
    from varsign.io import load_system_file

    rng = random.Random(5002)
    for i, (kind, X) in enumerate(CORPUS):
        f = tmp_path / f"m{i}.json"
        f.write_text(json.dumps({"matrix": [[_entry_texts(rng, x) for x in row]
                                            for row in X.data]}))
        _assert_one_form(lambda: load_system_file(f).matrix)
        assert load_system_file(f).matrix == X, kind


@pytest.mark.parametrize("kind, X", CORPUS, ids=IDS)
def test_value_of_an_unstreamed_minor_is_kept_for_stream(monkeypatch, kind, X):
    """``value`` of a minor no read has computed runs one elimination, zero
    rows on its columns included; a later ``stream`` or ``value`` of that
    minor runs none."""
    calls = []
    bareiss = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda m: calls.append(len(m)) or bareiss(m))
    minors = Minors(X)
    for r in range(1, min(X.shape) + 1):
        for I in index_sets(X.rows, r):
            for J in index_sets(X.cols, r):
                want, read = minor(X, I, J), streamed_minor(X, I, J)
                calls.clear()
                assert minors.value((I, J)) == want
                assert calls == [r], (I, J)
                calls.clear()
                assert list(minors.stream([I], [J])) == [((I, J), read)]
                assert minors.value((I, J)) == want and calls == [], (I, J)


def _bareiss_reference(m):
    """Rank and determinant by the general fraction-free elimination loop."""
    nr, nc = len(m), len(m[0])
    sign, prev, r = 1, 1, 0
    for j in range(nc):
        if not m[r][j]:
            for i in range(r + 1, nr):
                if m[i][j]:
                    m[r], m[i] = m[i], m[r]
                    sign = -sign
                    break
            else:
                continue
        for i in range(r + 1, nr):
            factor = m[i][j]
            for jj in range(j + 1, nc):
                m[i][jj] = (m[i][jj] * m[r][j] - factor * m[r][jj]) // prev
        prev = m[r][j]
        r += 1
        if r == nr:
            break
    return r, sign * prev if r == nr == nc else 0


def test_small_blocks_read_off_as_the_elimination_gives():
    """A 1 x 1 block is its entry and a 2 x 2 block ad - bc, with the rank the
    elimination gives, on every block with entries in -2..2 and on big ones."""
    rng = random.Random(35)
    small = range(-2, 3)
    blocks = [[[a]] for a in small] + [[[a, b], [c, d]] for a in small for b in small
                                       for c in small for d in small]
    big = lambda: rng.choice([0, 1, -1]) * rng.randint(1, 9) * _BIG
    blocks += [[[big() for _ in range(n)] for _ in range(n)] for n in (1, 2) for _ in range(50)]
    for m in blocks:
        assert linalg._bareiss([row[:] for row in m]) == _bareiss_reference([row[:] for row in m]), m


def _check_matrix(args, out_dir, capsys):
    code = main(["check-matrix", *args, "--out", str(out_dir)])
    return code, capsys.readouterr(), (out_dir / "report.json").read_bytes()


def test_check_matrix_outputs_match_the_fraction_reader(tmp_path, monkeypatch, capsys):
    """``check-matrix`` stdout, stderr, exit code and ``report.json`` at
    every property and order equal those of the checks reading every minor as
    a ``Fraction``, witness texts included, on one input file per matrix."""
    refuted = []
    for i, (kind, X) in enumerate(CORPUS):
        f = tmp_path / f"m{i}.json"
        f.write_text(json.dumps({"matrix": [[scalar_text(x) for x in row] for row in X.data]}))
        for prop in ("sc", "ssc", "sr", "tp", "stp", "vb", "vd"):
            for k in range(1, X.cols + 1):
                args = [str(f), "--property", prop, "--k", str(k)]
                got = _check_matrix(args, tmp_path / "got", capsys)
                with monkeypatch.context() as patch:
                    patch.setattr(signcons, "Minors", _FractionMinors)
                    want = _check_matrix(args, tmp_path / "want", capsys)
                assert got == want, (kind, i, prop, k)
                if got[0] == 1 and prop in ("vb", "vd"):
                    refuted.append(json.loads(got[1].out)["detail"])
    assert len(refuted) >= 10
    assert any(len(detail) > sys.get_int_max_str_digits() for detail in refuted)


def _outcome(check, *args):
    try:
        return check(*args)
    except linalg.LinalgError as exc:  # an order or shape outside the check's hypotheses
        return type(exc), str(exc)


def _public_results(X):
    calls = [(sign_consistent,), (sign_regular, False), (k_positive, True),
             (consecutive_certificate, False), (reduced_check, True), (reduced_check, False),
             (vb_matrix_check,), (vd_matrix_check,)]
    return [_outcome(check, X, k, *rest) for k in range(1, min(X.shape) + 1)
            for check, *rest in calls]


def _witness_values(result):
    summaries = result.orders.values() if hasattr(result, "orders") else [result]
    return [value for s in summaries for _, value in getattr(s, "witness", ())]


def test_public_results_match_the_fraction_reader(monkeypatch):
    """Every summary, certificate and check equals the Fraction reader's, and
    every witness minor a result returns is a ``Fraction``."""
    witnesses = 0
    for kind, X in CORPUS:
        got = _public_results(X)
        with monkeypatch.context() as patch:
            patch.setattr(signcons, "Minors", _FractionMinors)
            assert got == _public_results(X), kind
        values = [v for result in got for v in _witness_values(result)]
        assert all(type(v) is Fraction for v in values), kind
        witnesses += len(values)
    assert witnesses >= 20


class _CountingFraction(Fraction):
    built = 0

    def __new__(cls, *args, **kwargs):
        _CountingFraction.built += 1
        return Fraction(*args, **kwargs)


@pytest.mark.parametrize("check", [sign_consistent, vb_matrix_check, vd_matrix_check])
def test_sign_only_checks_build_no_fraction(monkeypatch, check):
    """On a strictly totally positive 8 x 6 Cauchy matrix at k = 3 the checks
    certify from signs alone: no ``Fraction`` is built in ``linalg``."""
    X = cauchy_exact(random.Random(35), 8, 6)
    want = check(X, 3)
    monkeypatch.setattr(linalg, "Fraction", _CountingFraction)
    _CountingFraction.built = 0
    assert check(X, 3) == want
    assert _CountingFraction.built == 0


def test_checks_value_only_the_witness_minors_they_render(monkeypatch):
    """The ``Minors.value`` calls of a VB or VD check are the witness minors
    its detail renders: none unless it refutes."""
    value = Minors.value
    keys = []

    def recording(self, key):
        keys.append(key)
        return value(self, key)

    monkeypatch.setattr(Minors, "value", recording)
    refuted = 0
    for kind, X in CORPUS:
        for k in range(1, X.cols + 1):
            for check in (vb_matrix_check, vd_matrix_check):
                keys.clear()
                try:
                    result = check(X, k)
                except linalg.LinalgError:
                    assert keys == []
                    continue
                if result.status is signcons.Conclusion.REFUTED:
                    refuted += 1
                    # ``minor`` reads through ``Minors.value`` too: copy the keys first
                    recorded = list(keys)
                    witness = tuple((key, minor(X, *key)) for key in recorded)
                    assert len(recorded) == 2 and result.detail.endswith(_witness_text(witness))
                else:
                    assert keys == [], (kind, k, check.__name__)
    assert refuted >= 10
