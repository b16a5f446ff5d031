import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varsign.linalg as linalg
from varsign.linalg import (
    Backend, Matrix, Minors, RankOutOfRangeError, _bareiss, compound, consecutive_sets,
    lex_tuples, minor, rank, sign_of,
)
from varsign.fixtures import path as fixture_path
from varsign.io import load_system_file
from varsign.lti import observability_matrix
from varsign.obsv import _OperatorContext, certify_observability
import varsign.signcons as signcons
from varsign.signcons import (
    Conclusion,
    MatrixPropertyCheck,
    PreconditionError,
    SignSummary,
    SignVerdict,
    classify_family,
    consecutive_certificate,
    k_positive,
    reduced_check,
    reduced_family,
    sign_conclusion,
    sign_consistent,
    sign_regular,
    vb_matrix_check,
    vd_matrix_check,
)

from conftest import cauchy_exact, random_exact, reverse_columns, tn_band, vd_of_vb
from test_check_matrix_golden import MATRICES

PENA = Matrix.exact([[1, 1], [1, 2], [1, 3], [1, 4]])


def example2_obs3():
    A = Matrix.exact([["0.7", "0.6", "-2"], ["0.15", "0.15", "-0.25"], ["0", "0.03", "0.1"]])
    c = (Fraction("1.1"), Fraction("0.1"), Fraction("-5.5"))
    return observability_matrix(A, c, 3)


def test_sign_consistent_examples():
    assert sign_consistent(PENA, 2).verdict is SignVerdict.STRICTLY_POSITIVE
    assert sign_consistent(example2_obs3(), 1).verdict is SignVerdict.MIXED
    assert sign_consistent(Matrix.identity(3), 1).verdict is SignVerdict.NONNEGATIVE


def test_sign_regular_examples():
    assert sign_regular(PENA, 2, strict=True).passed
    assert not sign_regular(example2_obs3(), 1, strict=False).passed
    rep = sign_regular(Matrix.identity(2), 2, strict=False)
    assert rep.passed and rep.orders[1].verdict is SignVerdict.NONNEGATIVE


def test_k_positive_examples():
    assert k_positive(PENA, 2, strict=True).passed
    assert not k_positive(Matrix.exact([[1, -1], [1, 1]]), 1, strict=False).passed
    assert k_positive(Matrix.identity(3), 3, strict=False).passed
    assert not k_positive(Matrix.identity(3), 3, strict=True).passed
    # an all-zero top order is nonnegative
    ones = Matrix.exact([[1, 1], [1, 1], [1, 1]])
    assert k_positive(ones, 2, strict=False).passed
    assert vd_matrix_check(ones, 2).rule == "total positivity"


def test_sign_regular_allows_per_order_signs(rng):
    # columns reversed: order-1 minors positive, order-2 minors negative
    X = reverse_columns(cauchy_exact(rng, 5, 3))
    rep = sign_regular(X, 2, strict=True)
    assert rep.passed
    assert rep.orders[1].epsilon == 1
    assert rep.orders[2].epsilon == -1
    assert not k_positive(X, 2, strict=False).passed


@pytest.mark.parametrize("check", [
    sign_regular, k_positive,
    pytest.param(lambda X, k, strict: sign_consistent(X, k), id="sign_consistent")])
@pytest.mark.parametrize("k", [0, -2, 3, 5])
def test_ordered_checks_reject_orders_outside_the_shape(check, k):
    # PENA is 4 x 2, so the orders run over 1..2; an empty range must not pass
    with pytest.raises(RankOutOfRangeError, match=f"k={k} lies outside 1..2"):
        check(PENA, k, strict=False)


def test_sign_conclusion_folds_the_summaries():
    positive = sign_consistent(PENA, 2)
    mixed = sign_consistent(example2_obs3(), 1)
    unsure = classify_family([("tiny", 1e-12)], Backend.FLOAT)
    assert unsure.verdict is SignVerdict.INCONCLUSIVE
    assert sign_conclusion(True, [unsure]) is Conclusion.CERTIFIED
    assert sign_conclusion(False, [mixed, unsure]) is Conclusion.INCONCLUSIVE
    assert sign_conclusion(False, [positive, mixed]) is Conclusion.REFUTED


def test_consecutive_certificate():
    assert consecutive_certificate(PENA, 2).passed
    assert not consecutive_certificate(Matrix.exact([[1, -1], [1, 1]]), 1).passed
    # non-strict top order tolerates a zero consecutive top minor
    X = Matrix.exact([[1, 1, 1], [1, 2, 2], [1, 3, 3]])
    assert not consecutive_certificate(X, 2, strict_top=True).passed
    assert consecutive_certificate(X, 2, strict_top=False).passed


def test_consecutive_certificate_certifies_total_positivity(rng):
    X = cauchy_exact(rng, 5, 4)
    res = consecutive_certificate(X, 3, strict_top=True)
    assert res.passed
    for r in range(1, 4):
        assert sign_consistent(X, r).verdict is SignVerdict.STRICTLY_POSITIVE


def test_reduced_family_pena_shape():
    fam = reduced_family(4, 2, 2, strict=True)
    alphas = {p.alpha.elems for p in fam}
    # the paper's six-entry worked list covers five distinct row sets
    assert alphas == {(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)}
    assert {p.beta.elems for p in fam} == {(1, 2)}
    assert all(p.strict_required for p in fam)


def test_reduced_family_k1_is_all_entries():
    fam = reduced_family(3, 2, 1, strict=True)
    assert {(p.alpha.elems, p.beta.elems) for p in fam} == {
        ((i,), (j,)) for i in (1, 2, 3) for j in (1, 2)}


def test_reduced_family_nonstrict_flags():
    fam = reduced_family(8, 4, 2, strict=False)
    relaxed = {(p.alpha.elems, p.beta.elems) for p in fam if not p.strict_required}
    expect_alphas = {(t, t + 1) for t in range(3, 8)}
    assert relaxed == {(a, (3, 4)) for a in expect_alphas}
    # full-width route: beta is the whole column set, alpha tails are relaxed
    fam_full = reduced_family(8, 4, 4, strict=False)
    relaxed_full = {p.alpha.elems for p in fam_full if not p.strict_required}
    assert relaxed_full == {tuple(range(t, t + 4)) for t in range(5, 6)}


def test_reduced_family_preconditions():
    with pytest.raises(PreconditionError):
        reduced_family(6, 3, 2, strict=False)  # needs 2k <= m
    with pytest.raises(PreconditionError):
        reduced_family(5, 3, 3, strict=False)  # needs n >= 2m
    with pytest.raises(PreconditionError):
        reduced_family(3, 3, 2, strict=True)  # needs n > m


def test_reduced_check_examples():
    res = reduced_check(PENA, 2, strict=True)
    assert res.certified and res.verdict is SignVerdict.STRICTLY_POSITIVE and res.epsilon == 1
    # reduced families need more rows than columns, so stack one more power row
    A = Matrix.exact([["0.7", "0.6", "-2"], ["0.15", "0.15", "-0.25"], ["0", "0.03", "0.1"]])
    c = (Fraction("1.1"), Fraction("0.1"), Fraction("-5.5"))
    res = reduced_check(observability_matrix(A, c, 4), 1, strict=True)
    assert res.verdict is SignVerdict.MIXED and not res.certified


def test_reduced_check_agrees_with_full_compound(rng):
    # strict equivalence on random and on structured matrices
    for trial in range(60):
        X = cauchy_exact(rng, 6, 3) if trial % 3 == 0 else random_exact(rng, 6, 3)
        for k in (1, 2, 3):
            full = sign_consistent(X, k)
            red = reduced_check(X, k, strict=True)
            assert red.certified == full.passes(strict=True), (trial, k)
            if red.certified:
                assert red.epsilon == full.epsilon


def test_reduced_check_nonstrict_sound(rng):
    hits = 0
    for trial in range(40):
        if trial % 2 == 0:
            X = cauchy_exact(rng, 8, 4)
        else:
            X = random_exact(rng, 8, 4)
        red = reduced_check(X, 2, strict=False)
        if red.certified:
            hits += 1
            assert sign_consistent(X, 2).passes(strict=False)
    assert hits > 0  # the structured draws must actually exercise the pass path


def test_reduced_check_nonstrict_with_exact_zero(rng):
    # make one interior row the average of its neighbours: the only vanishing
    # 3-minor is the fully consecutive tail (6,7,8), which is a relaxed pair,
    # while every anchored pair stays strictly positive
    parent = cauchy_exact(rng, 8, 3)
    rows = [list(r) for r in parent.data]
    rows[6] = [(a + b) / 2 for a, b in zip(rows[5], rows[7])]
    X = Matrix.exact(rows)
    assert minor(X, (6, 7, 8), (1, 2, 3)) == 0
    red = reduced_check(X, 3, strict=False)
    assert red.certified
    assert red.verdict is SignVerdict.NONNEGATIVE
    full = sign_consistent(X, 3)
    assert full.passes(strict=False)


def test_vb_matrix_check_rank_k_column_test():
    X = Matrix.exact([[1, -1], [2, -2], [3, -3]])
    res = vb_matrix_check(X, 1)
    assert res.status is Conclusion.CERTIFIED
    assert "column" in res.rule
    bad = Matrix.exact([[1, -1], [-1, 1], [1, -1]])
    res = vb_matrix_check(bad, 1)
    assert res.status is Conclusion.REFUTED


def test_vb_matrix_check_full_width():
    res = vb_matrix_check(PENA, 2)
    assert res.status is Conclusion.CERTIFIED and res.strict


def test_vb_matrix_check_full_width_inside_tolerance_at_full_rank():
    # full column rank, but of the 2-minors 1e-12, 2 and 2 - 1e-12 the first lies
    # inside the float tolerance: the full-width rule applies and cannot decide
    X = Matrix.floating([[1, 1], [1, 1 + 1e-12], [1, 3]])
    assert rank(X) == 2
    res = vb_matrix_check(X, 2)
    assert res.status is Conclusion.INCONCLUSIVE
    assert res.rule == "full-width sign consistency at full column rank"
    assert res.detail == "compound entries inside tolerance"
    # below full rank the rule still names the missing hypothesis
    flat = vb_matrix_check(Matrix.floating([[1, 1], [1, 1 + 1e-12], [1, 1 - 1e-12]]), 2)
    assert flat.status is Conclusion.INCONCLUSIVE
    assert flat.rule == "full-width test needs full column rank"


def test_vb_matrix_check_independent_columns_route(rng):
    X = cauchy_exact(rng, 6, 4)
    res = vb_matrix_check(X, 2)
    assert res.status is Conclusion.CERTIFIED
    mixed = Matrix.exact([[1, 2, 1], [1, -1, 2], [2, 1, -1], [1, 1, 1]])
    assert rank(mixed) == 3
    res = vb_matrix_check(mixed, 1)
    assert res.status is Conclusion.REFUTED


def test_vb_matrix_check_undecidable_on_dependent_columns():
    # k = 1 below the rank with a zero column: no characterization applies
    X = Matrix.exact([[1, 0, 2], [2, 0, 3], [1, 0, 1], [3, 0, 5], [1, 0, 2]])
    assert rank(X) == 2
    res = vb_matrix_check(X, 1)
    assert res.status is Conclusion.INCONCLUSIVE
    assert "dependent" in res.rule


def test_vd_matrix_check_examples(rng):
    res = vd_matrix_check(PENA, 2)
    assert res.status is Conclusion.CERTIFIED
    assert res.rule == "total positivity"
    # mixed entries refute VD_0 as they refute VB_0
    mixed = Matrix.exact([[1, 2], [-1, 1], [2, 1]])
    res = vd_matrix_check(mixed, 1)
    assert res.status is Conclusion.REFUTED
    assert res.rule == "VB_0: sign consistency with independent columns"
    # sign-regular but not positive: certified as VB_0 and VB_1
    X = reverse_columns(cauchy_exact(rng, 6, 4))
    res = vd_matrix_check(X, 2)
    assert res.status is Conclusion.CERTIFIED
    assert res.rule == "VB_(j-1) at every order j <= k"
    # square: example2's state matrix has entries of both signs, so it is not
    # VB_0 and not VD_2 (an order the old route left undecided)
    res = vd_matrix_check(Matrix.exact([["0.7", "0.6", "-2"], ["0.15", "0.15", "-0.25"],
                                        ["0", "0.03", "0.1"]]), 3)
    assert res.status is Conclusion.REFUTED
    assert res.rule == "VB_0: sign consistency with independent columns"


def test_vd_matrix_check_is_the_vb_fold_on_tall_matrices():
    """On seeded tall matrices, exact and float: vd_matrix_check is total
    positivity (k_positive, non-strict), else the fold of vb_matrix_check over
    the orders j <= k, field for field.  So a decisive vd refutes exactly when
    some order refutes, and certifies past total positivity only when every
    order certifies; a totally positive X has no refuting order."""
    rng = random.Random(8101)
    corpus = []
    for n, m in [(3, 2), (4, 2), (4, 3), (5, 3), (6, 4), (7, 5)]:
        for _ in range(6):
            corpus += [random_exact(rng, n, m), random_exact(rng, n, m, 0, 3, 2),
                       cauchy_exact(rng, n, m), reverse_columns(cauchy_exact(rng, n, m)),
                       reverse_columns(tn_band(rng, n, m))]
    corpus += [X.to_float() for X in corpus[::3]]
    assert len(corpus) >= 200
    outcomes = set()
    for X in corpus:
        for k in range(1, X.cols + 1):
            got = vd_matrix_check(X, k)
            vbs = [vb_matrix_check(X, j) for j in range(1, k + 1)]
            if k_positive(X, k, strict=False).passed:
                assert got == MatrixPropertyCheck(
                    f"VD_{k - 1}", Conclusion.CERTIFIED, "total positivity",
                    f"order-preserving VD_{k - 1} established"), (X, k)
            else:
                assert got == vd_of_vb(k, vbs), (X, k)
            statuses = {c.status for c in vbs}
            if got.status is not Conclusion.INCONCLUSIVE:
                assert (got.status is Conclusion.REFUTED) == (Conclusion.REFUTED in statuses)
            if got.rule == "VB_(j-1) at every order j <= k":
                assert statuses == {Conclusion.CERTIFIED}
            outcomes.add((got.status, got.rule.partition(":")[0]))
    for outcome in [(Conclusion.CERTIFIED, "total positivity"),
                    (Conclusion.CERTIFIED, "VB_(j-1) at every order j <= k"),
                    (Conclusion.REFUTED, "VB_0"), (Conclusion.REFUTED, "VB_1"),
                    (Conclusion.INCONCLUSIVE, "VB_0")]:
        assert outcome in outcomes, outcome
    # sign regular with exact zero minors: certified only under the non-strict judgement
    banded = reverse_columns(tn_band(rng, 5, 3))
    assert vd_matrix_check(banded, 2) == MatrixPropertyCheck(
        "VD_1", Conclusion.CERTIFIED, "VB_(j-1) at every order j <= k")


def test_vb_check_decides_square_x_as_x_over_a_zero_row():
    """In exact arithmetic ``_vb_check``, and so ``vb_matrix_check``, gives a
    square X, at every order j, the conclusion that ``vb_matrix_check`` gives
    [X; 0]: a zero row adds no sign change to any output, so both have the
    same VB verdicts, and [X; 0] has a shape with more rows than columns,
    which the check's routes are proven for.  On the golden table's square
    matrices and seeded random, rank-deficient, Cauchy, column-reversed and
    banded ones."""
    rng = random.Random(4404)
    square = [Matrix.exact(rows) for rows in MATRICES.values() if len(rows) == len(rows[0])]
    assert len(square) >= 5
    for n in (2, 3, 4, 5):
        for _ in range(2):
            two = random_exact(rng, n, 2)
            square += [random_exact(rng, n, n), random_exact(rng, n, n, 0, 3, 2),
                       cauchy_exact(rng, n, n), reverse_columns(cauchy_exact(rng, n, n)),
                       reverse_columns(tn_band(rng, n, n)),
                       Matrix.exact([list(r) + [r[0] - r[1]] * (n - 2) for r in two.data])]
    assert len(square) >= 35
    conclusions = set()
    for X in square:
        padded = Matrix.exact([*X.data, [0] * X.cols])
        for j in range(1, X.cols + 1):
            got = signcons._vb_check(Minors(X), j, rank(X))
            assert got.status is vb_matrix_check(padded, j).status, (X, j)
            assert vb_matrix_check(X, j) == got, (X, j)
            conclusions.add(got.status)
    assert conclusions == set(Conclusion)


@pytest.mark.parametrize("check", [vb_matrix_check, vd_matrix_check])
def test_vb_and_vd_checks_share_one_shape_guard(check):
    """Both checks take rows >= cols and 1 <= k <= cols, with one message."""
    wide = Matrix.exact([[1, 2, 3], [1, 3, 5]])
    with pytest.raises(RankOutOfRangeError, match=r"need rows >= cols, got shape \(2, 3\)"):
        check(wide, 1)
    for k in (0, 3):
        with pytest.raises(RankOutOfRangeError, match=f"k={k} lies outside 1..2"):
            check(Matrix.exact([[1, 2], [3, 4]]), k)


class _Divisor(int):
    """A divisor of ``linalg._condense`` that notes, in ``quotients``, the
    place of each minor divided by it."""

    def __new__(cls, value, place, quotients):
        self = super().__new__(cls, value)
        self.place, self.quotients = place, quotients
        return self

    def __rfloordiv__(self, other):
        self.quotients.append(self.place)
        return int(other) // int(self)


def _count_computed_minors(monkeypatch) -> list:
    """A list that gets (instance, r, I, J) for every minor a ``Minors``
    computes from now on: by the reader of its row set, as an entry of
    layer 1, or by a division in a condensed layer."""
    evaluated = []
    reader, positive_order, condense = Minors._reader, Minors.positive_order, linalg._condense
    condensed = []  # per condensed layer, the places (i, j) of its divisions, 0-based

    def counting_reader(self, I):
        read = reader(self, I)

        def counted(J):
            evaluated.append((self, len(I), I, J))
            return read(J)
        return counted

    def counting_condense(above, below):
        places = []
        condensed.append(places)
        # below[i][j] divides the minor at (i - 1, j - 1) of the new layer
        marked = [[_Divisor(v, (i - 1, j - 1), places) for j, v in enumerate(row)]
                  for i, row in enumerate(below)]
        return condense(above, marked)

    def counting_order(self, k):
        done = len(self._layers)
        p = positive_order(self, k)
        if done <= 1 < len(self._layers):  # layer 1, the entries
            rows, cols = self.shape
            evaluated.extend((self, 1, (i,), (j,)) for i in range(1, rows + 1)
                             for j in range(1, cols + 1))
        for r, places in zip(range(max(done, 2), len(self._layers)), condensed):
            evaluated.extend((self, r, tuple(range(i + 1, i + r + 1)),
                              tuple(range(j + 1, j + r + 1))) for i, j in places)
        condensed.clear()
        return p

    monkeypatch.setattr(Minors, "_reader", counting_reader)
    monkeypatch.setattr(Minors, "positive_order", counting_order)
    monkeypatch.setattr(linalg, "_condense", counting_condense)
    return evaluated


@pytest.mark.parametrize("check", [vb_matrix_check, vd_matrix_check])
def test_vb_and_vd_checks_evaluate_each_minor_once(monkeypatch, check):
    evaluated = _count_computed_minors(monkeypatch)
    rng = random.Random(3)
    cases = [(random_exact(rng, 8, 6), 3), (reverse_columns(cauchy_exact(rng, 6, 4)), 2),
             (cauchy_exact(rng, 7, 5), 3)]
    rules = []
    for X, k in cases:
        evaluated.clear()
        res = check(X, k)
        assert k < rank(X)
        rules.append(res.rule)
        assert evaluated and len(evaluated) == len(set(evaluated)), (check.__name__, evaluated)
    # the first two have every k columns independent and are not totally positive
    assert rules[:2] == (["sign consistency with independent columns"] * 2
                         if check is vb_matrix_check else
                         ["VB_0: sign consistency with independent columns",
                          "VB_(j-1) at every order j <= k"])
    # the Cauchy matrix is strictly totally positive: only consecutive minors are read
    assert rules[2] in ("sign consistency with independent columns", "total positivity")
    assert all(I[-1] - I[0] == J[-1] - J[0] == r - 1 for _, r, I, J in evaluated)


def test_certify_computes_each_minor_once(monkeypatch):
    """Over ``certify`` of example1 and example2 at svb, vb and vd, k = 1..3,
    each ``Minors`` computes each minor once.  The operator context scans
    its section before it reads det O_n, the leading consecutive n-minor;
    on example1 the scan reaches order n and det O_n is read off layer n."""
    evaluated = _count_computed_minors(monkeypatch)
    took_det = set()
    for name in ("example1", "example2"):
        system = load_system_file(fixture_path(name))
        n = system.A.rows
        full = tuple(range(1, n + 1))
        for prop in ("svb", "vb", "vd"):
            for k in (1, 2, 3):
                evaluated.clear()
                certify_observability(system.A, system.c, k, prop)
                assert len(evaluated) == len(set(evaluated)), (name, prop, k)
                if any(len(m._layers) > n and (full, full) in m._known for m, *_ in evaluated):
                    took_det.add(name)
    assert took_det == {"example1"}


def test_operator_context_reads_its_section_off_the_layers(monkeypatch):
    """The section O_4 of diag(1/2, 7/10, 9/10) with c = 1, rows c A^(t-1),
    is strictly totally positive up to order n = 3.  The context scans it
    before it reads, so det O_n and each consecutive entry of every c_r come
    off the layers: the consecutive minors computed are the layers' entries,
    each once, and a row reader computes only c_2's one non-consecutive
    entry.  A float context builds no layer."""
    evaluated = _count_computed_minors(monkeypatch)
    n, lams = 3, (Fraction(1, 2), Fraction(7, 10), Fraction(9, 10))
    A = Matrix.exact([[lam if i == j else 0 for j, _ in enumerate(lams)]
                      for i, lam in enumerate(lams)])
    ctx = _OperatorContext(A, (1,) * n)
    c_r = [ctx.c_compound(r) for r in range(1, n + 1)]
    assert ctx._minors.positive_order(n) == n
    computed = [(r, I, J) for _, r, I, J in evaluated]
    consecutive = sorted((r, I, J) for r, I, J in computed
                         if I[-1] - I[0] == r - 1 == J[-1] - J[0])
    assert consecutive == sorted((r, I, J) for r in range(1, n + 1)
                                 for I in consecutive_sets(n + 1, r)
                                 for J in consecutive_sets(n, r))
    assert [m for m in computed if m not in consecutive] == [(2, (1, 2), (1, 3))]
    # the Vandermonde determinant prod_(i < j) (lam_j - lam_i)
    assert ctx.det_n == Fraction(2, 125)
    section = observability_matrix(A, (1,) * n, n + 1)
    assert c_r == [tuple(minor(section, range(1, r + 1), J) for J in lex_tuples(n, r))
                   for r in range(1, n + 1)]
    floating = _OperatorContext(A.to_float(), (1.0,) * n)
    assert floating._minors.positive_order(n) == 0 and floating._minors._layers == []


def test_vb_and_vd_checks_build_one_reader_per_row_set(monkeypatch):
    """On seeded exact 8 x 6 matrices at k = 2..4, a ``Minors`` builds the
    reader of each row set once, however many streams read it; verdicts,
    rules, witness texts and strict flags equal those of checks whose every
    read builds its reader afresh, as ``stream`` did once per row."""
    reader = Minors._reader
    handed = []  # (instance, I, reader) of every reader handed out, kept alive

    def recording(self, I):
        read = reader(self, I)
        handed.append((self, I, read))
        return read

    def afresh(self, I):
        self._readers.pop(I, None)
        return recording(self, I)

    rng = random.Random(1604)
    counts = {"afresh": 0, "kept": 0, "row sets": 0}
    for _ in range(20):
        X = random_exact(rng, 8, 6)
        for k in (2, 3, 4):
            for check in (vb_matrix_check, vd_matrix_check):
                monkeypatch.setattr(Minors, "_reader", afresh)
                handed.clear()
                want = check(X, k)
                counts["afresh"] += len({id(read) for _, _, read in handed})
                monkeypatch.setattr(Minors, "_reader", recording)
                handed.clear()
                got = check(X, k)
                assert got == want, (X, k, check.__name__)
                row_sets = {(id(m), I) for m, I, _ in handed}
                built = len({id(read) for _, _, read in handed})
                assert built == len(row_sets), (X, k, check.__name__)
                counts["kept"] += built
                counts["row sets"] += len(row_sets)
    # the column-wise reads of the independence scan once built a reader per minor
    assert counts["afresh"] > 2 * counts["kept"], counts


def test_witness_text_is_str_at_any_size():
    """Witness details read as ``str(witness)``, also where ``str`` refuses
    the digits of a minor."""
    rng = random.Random(1409)
    witnesses = []
    for n, m in [(4, 3), (5, 3), (6, 4)]:
        for X in (random_exact(rng, n, m), random_exact(rng, n, m).to_float(),
                  reverse_columns(cauchy_exact(rng, n, m))):
            witnesses += [sign_consistent(X, k).witness for k in range(1, m + 1)]
    # a zero and a float entry inside tolerance: one-element witnesses
    witnesses += [sign_consistent(X, 1).witness for X in (PENA, Matrix.identity(3),
                                                           Matrix.identity(3).to_float())]
    big = Fraction(10 ** 5000 + 1, 3)
    witnesses.append(((((1, 2), (1, 3)), big), (((2, 3), (1, 2)), -big)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = [str(w) for w in witnesses]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [signcons._witness_text(w) for w in witnesses] == want
    assert {len(w) for w in witnesses} == {0, 1, 2}


# ---------------------------------------------------------------------------
# Reference: the full-compound checks, which build every minor of every order
# before judging one sign.  The lazy checks must agree with them on verdict,
# epsilon, witness, rule, detail and the strict flag.

_REF_STRICT = {SignVerdict.STRICTLY_POSITIVE, SignVerdict.STRICTLY_NEGATIVE}
_REF_POSITIVE = {SignVerdict.STRICTLY_POSITIVE, SignVerdict.NONNEGATIVE, SignVerdict.ZERO}


def _ref_classify(labeled_values, backend, tol=1e-9):
    pos = neg = zero = unk = 0
    first = {}
    for label, value in labeled_values:
        s = sign_of(value, backend, tol)
        if s == 1:
            pos += 1
            first.setdefault("pos", (label, value))
        elif s == -1:
            neg += 1
            first.setdefault("neg", (label, value))
        elif s == 0:
            zero += 1
            first.setdefault("zero", (label, value))
        else:
            unk += 1
            first.setdefault("unk", (label, value))
    if pos and neg:
        return SignSummary(SignVerdict.MIXED, None, (first["pos"], first["neg"]))
    if unk:
        return SignSummary(SignVerdict.INCONCLUSIVE, None, (first["unk"],))
    if pos and zero:
        return SignSummary(SignVerdict.NONNEGATIVE, 1, (first["zero"],))
    if neg and zero:
        return SignSummary(SignVerdict.NONPOSITIVE, -1, (first["zero"],))
    if pos:
        return SignSummary(SignVerdict.STRICTLY_POSITIVE, 1)
    if neg:
        return SignSummary(SignVerdict.STRICTLY_NEGATIVE, -1)
    return SignSummary(SignVerdict.ZERO, None)


def _ref_compound_summary(X, C, k, tol=1e-9):
    cols = [J.elems for J in lex_tuples(X.cols, k)]
    labels = [((I.elems, J), v)
              for I, row in zip(lex_tuples(X.rows, k), C.data) for J, v in zip(cols, row)]
    return _ref_classify(labels, X.backend, tol)


def _ref_orders(X, k, tol=1e-9):
    return {j: _ref_compound_summary(X, compound(X, j), j, tol) for j in range(1, k + 1)}


def _ref_columns_independent(X, C, k, tol):
    for j in range(C.cols):
        if all(sign_of(v, X.backend, tol) in (0, None) for v in C.col(j)):
            return False
    for J in lex_tuples(X.cols, k):
        if rank(X.submatrix(range(1, X.rows + 1), J), tol) != k:
            return False
    return True


def _ref_vb(X, k, tol=1e-9):
    n, m = X.rows, X.cols
    name = f"VB_{k - 1}"
    rk = rank(X, tol)
    text = signcons._witness_text
    if k == m:
        s = _ref_compound_summary(X, compound(X, m), m, tol)
        if s.verdict in _REF_STRICT:
            return MatrixPropertyCheck(
                name, Conclusion.CERTIFIED, "strict full-width sign consistency",
                f"epsilon={s.epsilon:+d}; also strictly variation bounding", strict=True)
        if rk == m:
            if s.verdict in (SignVerdict.NONNEGATIVE, SignVerdict.NONPOSITIVE, SignVerdict.ZERO):
                return MatrixPropertyCheck(
                    name, Conclusion.CERTIFIED, "full-width sign consistency at full column rank")
            if s.verdict is SignVerdict.MIXED:
                return MatrixPropertyCheck(
                    name, Conclusion.REFUTED, "full-width sign consistency at full column rank",
                    f"conflicting minors {text(s.witness)}")
            return MatrixPropertyCheck(
                name, Conclusion.INCONCLUSIVE, "full-width sign consistency at full column rank",
                "compound entries inside tolerance")
        return MatrixPropertyCheck(
            name, Conclusion.INCONCLUSIVE, "full-width test needs full column rank",
            f"rank={rk}, verdict={s.verdict.value}")
    if rk == k:
        C = compound(X, k)
        rows = [I.elems for I in lex_tuples(n, k)]
        for j, J in enumerate(lex_tuples(m, k)):
            col = _ref_classify((((I, J.elems), C[i, j]) for i, I in enumerate(rows)),
                                X.backend, tol)
            if col.verdict is SignVerdict.MIXED:
                return MatrixPropertyCheck(
                    name, Conclusion.REFUTED, "rank-k compound column sign test",
                    f"column {J} mixed: {text(col.witness)}")
            if col.verdict is SignVerdict.INCONCLUSIVE:
                return MatrixPropertyCheck(
                    name, Conclusion.INCONCLUSIVE, "rank-k compound column sign test",
                    f"column {J} has values inside tolerance")
        return MatrixPropertyCheck(
            name, Conclusion.CERTIFIED, "rank-k compound column sign test",
            "every compound column is one-signed; bound holds for every input")
    if k < rk:
        C = compound(X, k)
        if _ref_columns_independent(X, C, k, tol):
            s = _ref_compound_summary(X, C, k, tol)
            if s.passes(strict=False):
                return MatrixPropertyCheck(
                    name, Conclusion.CERTIFIED, "sign consistency with independent columns",
                    f"epsilon={s.epsilon:+d}" if s.epsilon else "",
                    strict=s.verdict in _REF_STRICT)
            if s.verdict is SignVerdict.MIXED:
                return MatrixPropertyCheck(
                    name, Conclusion.REFUTED, "sign consistency with independent columns",
                    f"conflicting minors {text(s.witness)}")
            return MatrixPropertyCheck(
                name, Conclusion.INCONCLUSIVE, "sign consistency with independent columns",
                "compound entries inside tolerance")
        return MatrixPropertyCheck(
            name, Conclusion.INCONCLUSIVE, "dependent k-column subset",
            "no characterization applies; defer to the sampling oracle")
    return MatrixPropertyCheck(
        name, Conclusion.INCONCLUSIVE, "rank below tested order", f"rank={rk} < k={k}")


def _ref_vd(X, k, tol=1e-9):
    name = f"VD_{k - 1}"
    orders = _ref_orders(X, k, tol)
    if all(s.verdict in _REF_POSITIVE for s in orders.values()):
        return MatrixPropertyCheck(
            name, Conclusion.CERTIFIED, "total positivity",
            f"order-preserving VD_{k - 1} established")
    return vd_of_vb(k, (_ref_vb(X, j, tol) for j in range(1, k + 1)))


def _consecutive_positive(X, r):
    return all(minor(X, I, J) > 0 for I in lex_tuples(X.rows, r) for J in lex_tuples(X.cols, r)
               if I.is_consecutive() and J.is_consecutive())


def _almost_stp(rng, n, m, k, negative):
    """Cauchy matrix whose trailing k x k consecutive minor is made 0 (or negative)
    by lowering its corner entry; None unless every consecutive minor of the
    orders below k stays positive."""
    X = cauchy_exact(rng, n, m)
    rows = [list(r) for r in X.data]
    I, J = tuple(range(n - k + 1, n + 1)), tuple(range(m - k + 1, m + 1))
    inner = minor(X, I[:-1], J[:-1]) if k > 1 else 1
    # the minor is affine in the corner entry with slope `inner` > 0
    rows[-1][-1] -= minor(X, I, J) / inner * (Fraction(11, 10) if negative else 1)
    Y = Matrix.exact(rows)
    assert (minor(Y, I, J) < 0) if negative else (minor(Y, I, J) == 0)
    return Y if all(_consecutive_positive(Y, r) for r in range(1, k)) else None


def _differential_corpus():
    """(family, matrix) pairs: exact matrices of every family, then their float copies."""
    rng = random.Random(2211)
    corpus = []
    for n, m in [(4, 2), (4, 3), (5, 3), (5, 4), (6, 3), (6, 4), (7, 4)]:
        corpus.append(("cauchy", cauchy_exact(rng, n, m)))
        corpus.append(("band", tn_band(rng, n, m)))
        corpus.append(("reversed", reverse_columns(cauchy_exact(rng, n, m))))
        corpus.append(("random", random_exact(rng, n, m)))
        corpus.append(("random", random_exact(rng, n, m, 0, 3, 2)))
        two = random_exact(rng, n, 2)
        corpus.append(("rankdef", Matrix.exact(
            [list(r) + [r[0] + r[1]] * (m - 2) for r in two.data])))
        cols = [list(r) for r in random_exact(rng, n, m).data]
        z = rng.randrange(m)
        corpus.append(("zerocol", Matrix.exact([r[:z] + [0] + r[z + 1:] for r in cols])))
        for k in range(2, m + 1):
            for negative in (False, True):
                Y = _almost_stp(rng, n, m, k, negative)
                if Y is not None:
                    corpus.append(("almost", Y))
    return corpus + [(family, X.to_float()) for family, X in corpus]


def _summary_key(s):
    return (s.verdict, s.epsilon, s.witness)


def test_lazy_checks_match_the_full_compound_reference():
    """sc/ssc, sr/tp/stp, vb and vd against the full-compound reference on
    seeded exact and float matrices: Cauchy, banded totally nonnegative with
    zero minors, almost strictly totally positive (Fekete's scan passes the
    orders below k and finds a zero or negative minor at k), column-reversed
    Cauchy, random, rank-deficient and zero-column."""
    cases = 0
    families = set()
    outcomes = set()
    for family, X in _differential_corpus():
        for k in range(1, X.cols + 1):
            cases += 1
            families.add((family, X.backend))
            ref = _ref_orders(X, k)
            assert _summary_key(sign_consistent(X, k)) == _summary_key(ref[k]), (X, k)
            want = {j: _summary_key(s) for j, s in ref.items()}
            strict = k % 2 == 1  # sr strict and tp at odd k, sr and stp at even k
            sr = sign_regular(X, k, strict)
            assert {j: _summary_key(s) for j, s in sr.orders.items()} == want, (X, k)
            assert sr.passed == all(s.passes(strict) for s in ref.values())
            kp = k_positive(X, k, not strict)
            assert {j: _summary_key(s) for j, s in kp.orders.items()} == want, (X, k)
            ok = _REF_POSITIVE if strict else {SignVerdict.STRICTLY_POSITIVE}
            assert kp.passed == all(s.verdict in ok for s in ref.values())
            for check, reference in ((vb_matrix_check, _ref_vb), (vd_matrix_check, _ref_vd)):
                got = check(X, k)
                assert got == reference(X, k), (check.__name__, X, k)
                outcomes.add((check.__name__, got.status, got.rule))
            outcomes.add(("sc", ref[k].verdict))
    assert cases >= 400
    assert {f for f, _ in families} == {"cauchy", "band", "reversed", "random", "rankdef",
                                        "zerocol", "almost"}
    assert {b for _, b in families} == {Backend.EXACT, Backend.FLOAT}
    for outcome in [("sc", SignVerdict.STRICTLY_POSITIVE), ("sc", SignVerdict.NONNEGATIVE),
                    ("sc", SignVerdict.MIXED), ("sc", SignVerdict.INCONCLUSIVE),
                    ("sc", SignVerdict.STRICTLY_NEGATIVE), ("sc", SignVerdict.ZERO),
                    ("vb_matrix_check", Conclusion.CERTIFIED, "rank-k compound column sign test"),
                    ("vb_matrix_check", Conclusion.REFUTED,
                     "sign consistency with independent columns"),
                    ("vb_matrix_check", Conclusion.INCONCLUSIVE, "dependent k-column subset"),
                    ("vd_matrix_check", Conclusion.CERTIFIED, "total positivity"),
                    ("vd_matrix_check", Conclusion.CERTIFIED, "VB_(j-1) at every order j <= k"),
                    ("vd_matrix_check", Conclusion.REFUTED,
                     "VB_1: sign consistency with independent columns"),
                    ("vd_matrix_check", Conclusion.REFUTED,
                     "VB_2: full-width sign consistency at full column rank")]:
        assert outcome in outcomes, outcome


# ---- Fekete's scan by condensation ----------------------------------------

def _block(X, r, i, j):
    """The integer block of the consecutive r-minor at rows i.., columns j..
    (0-based) of X's integer rows, a fresh list for ``_bareiss``."""
    return [list(row[j:j + r]) for row in X.ints[i:i + r]]


def _reference_fekete(X, k):
    """Fekete's scan as one Bareiss elimination per consecutive minor, up to
    the first minor <= 0."""
    for r in range(1, k + 1):
        for i in range(X.rows - r + 1):
            for j in range(X.cols - r + 1):
                if _bareiss(_block(X, r, i, j))[1] <= 0:
                    return r - 1
    return k


def _reference_certificate(X, k, strict_top):
    """``consecutive_certificate`` reading each order's consecutive minors
    from a stream of a ``Minors`` that never scans, so each is a Bareiss."""
    minors = Minors(X)
    for r in range(1, k + 1):
        family = minors.stream(consecutive_sets(X.rows, r), consecutive_sets(X.cols, r))
        summary = classify_family(family, X.backend)
        want_strict = strict_top or r < k
        ok = {SignVerdict.STRICTLY_POSITIVE} if want_strict else signcons._POSITIVE_OK
        if summary.verdict not in ok:
            return signcons.CertificateResult(
                False,
                f"consecutive {r}-minors are not {'positive' if want_strict else 'nonnegative'}",
                signcons._valued(minors, summary.witness))
    qualifier = "strictly " if strict_top else ""
    return signcons.CertificateResult(True, f"{qualifier}{k}-positive via consecutive minors")


def _assert_scan_matches_bareiss(X):
    """At every k the condensed order equals the reference, a scan resumed
    order by order gives the same, every stored layer holds the Bareiss
    integers of its blocks, and the certificate equals its reference."""
    top = min(X.shape)
    resumed = Minors(X)
    for k in range(1, top + 1):
        minors = Minors(X)
        p = minors.positive_order(k)
        assert p == _reference_fekete(X, k) == resumed.positive_order(k), (X, k)
        for strict_top in (True, False):
            assert (consecutive_certificate(X, k, strict_top)
                    == _reference_certificate(X, k, strict_top)), (X, k, strict_top)
    for minors in (Minors(X), resumed):
        p = minors.positive_order(top)
        layers = minors._layers
        # layers 0..p, and layer p + 1, the first with a minor <= 0, when p < top
        assert len(layers) == min(p + 1, top) + 1, (X, p)
        for r, layer in enumerate(layers[1:], 1):
            assert len(layer) == X.rows - r + 1 and len(layer[0]) == X.cols - r + 1
            for i, row in enumerate(layer):
                for j, v in enumerate(row):
                    assert v == _bareiss(_block(X, r, i, j))[1], (X, r, i, j)
    return _reference_fekete(X, top)


def _vandermonde(nodes, powers):
    """x_i^a_j: strictly totally positive for increasing positive nodes and
    increasing powers."""
    return Matrix.exact([[x ** a for a in powers] for x in nodes])


def _lowered_corner(X, by):
    """Square X with its last entry lowered by (1 + ``by``) det(X) / (its
    leading (n-1)-minor): det(X) is affine in that entry with that minor for
    slope, so the determinant becomes -``by`` det(X)."""
    n = X.rows
    lead = minor(X, range(1, n), range(1, n)) if n > 1 else 1
    rows = [list(row) for row in X.data]
    rows[-1][-1] -= minor(X, range(1, n + 1), range(1, n + 1)) / lead * (1 + by)
    return Matrix.exact(rows)


def _pinned_scans():
    rng = random.Random(5301)
    big = 10 ** 200
    yield "cauchy 6x4", cauchy_exact(rng, 6, 4), 4
    yield "cauchy 5x5", cauchy_exact(rng, 5, 5), 5
    yield "vandermonde 5x5", _vandermonde([1, 2, 3, 5, 7], range(5)), 5
    yield "vandermonde 4x6", _vandermonde([Fraction(1, 2), 1, 3, 4], range(6)), 4
    for n in (2, 3, 4, 5):
        V = _vandermonde([Fraction(i + 1, 2) for i in range(n)], range(n))
        C = cauchy_exact(rng, n, n)
        yield f"vandermonde {n}x{n}, top minor zero", _lowered_corner(V, 0), n - 1
        yield f"cauchy {n}x{n}, top minor negative", _lowered_corner(C, Fraction(1, 7)), n - 1
    yield "row 1x5", Matrix.exact([[1, 2, Fraction(1, 3), 4, 5]]), 1
    yield "row 1x4 with a zero", Matrix.exact([[1, 2, 0, 4]]), 0
    yield "column 5x1", Matrix.exact([[3], [1], [Fraction(2, 5)], [4], [9]]), 1
    yield "column 3x1 negative", Matrix.exact([[3], [-1], [2]]), 0
    yield "cauchy 5x4 times 1e200", Matrix.exact(
        [[x * big for x in row] for row in cauchy_exact(rng, 5, 4).data]), 4
    yield "vandermonde at 1e200 + i", _vandermonde([big + i for i in range(4)], range(4)), 4
    yield "1e200 + small", Matrix.exact(
        [[big + rng.randint(-9, 9) for _ in range(4)] for _ in range(5)]), None
    yield "1e200 over 10^k", Matrix.exact(
        [[Fraction("1e200") / 10 ** (i * j) for j in range(4)] for i in range(4)]), None


_PINNED_SCANS = list(_pinned_scans())


@pytest.mark.parametrize("name, X, order", _PINNED_SCANS, ids=[c[0] for c in _PINNED_SCANS])
def test_condensed_fekete_scan_matches_a_bareiss_scan(name, X, order):
    p = _assert_scan_matches_bareiss(X)
    if order is not None:
        assert p == order, name


@st.composite
def _stp_or_perturbed(draw):
    """A Vandermonde matrix of increasing positive rational nodes and
    increasing powers, strictly totally positive, most often with the last
    entry of one consecutive r-block lowered until that r-minor is zero or
    negative (``_lowered_corner``), so that scans end at every order; or,
    one time in three, a random small exact matrix."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.integers(0, 2)) == 0:
        entries = st.fractions(-3, 3, max_denominator=3)
        return Matrix.exact([[draw(entries) for _ in range(m)] for _ in range(n)])
    nodes = st.fractions(Fraction(1, 5), 4, max_denominator=5)
    xs = sorted(draw(st.lists(nodes, min_size=n, max_size=n, unique=True)))
    powers = sorted(draw(st.lists(st.integers(0, 7), min_size=m, max_size=m, unique=True)))
    rows = [[x ** a for a in powers] for x in xs]
    if draw(st.integers(0, 3)):
        r = draw(st.integers(1, min(n, m)).map(lambda r: min(n, m) + 1 - r))  # high first
        i, j = draw(st.integers(0, n - r)), draw(st.integers(0, m - r))
        block = _lowered_corner(Matrix.exact([row[j:j + r] for row in rows[i:i + r]]),
                                draw(st.sampled_from([0, Fraction(1, 64)])))
        rows[i + r - 1][j + r - 1] = block[r - 1, r - 1]
    return Matrix.exact(rows)


@settings(max_examples=150, deadline=None)
@given(_stp_or_perturbed())
def test_condensed_fekete_scan_matches_a_bareiss_scan_on_drawn_matrices(X):
    _assert_scan_matches_bareiss(X)


def test_fekete_scan_of_a_strictly_totally_positive_12x10_runs_no_elimination(monkeypatch):
    X = cauchy_exact(random.Random(1210), 12, 10)

    def no_elimination(self, I):
        raise AssertionError(f"an elimination on rows {I}")

    monkeypatch.setattr(Minors, "_reader", no_elimination)
    assert Minors(X).positive_order(10) == 10
    check = vd_matrix_check(X, 10)
    assert (check.status, check.rule) == (Conclusion.CERTIFIED, "total positivity")
    assert consecutive_certificate(X, 10).passed


def test_float_scan_stays_empty():
    X = cauchy_exact(random.Random(7), 5, 4).to_float()
    minors = Minors(X)
    assert minors.positive_order(4) == 0 and minors._layers == []
