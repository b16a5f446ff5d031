"""Verdict ledger and reference checks.

Every job ends in an *outcome*: a certify conclusion (``certified``,
``refuted``, ``inconclusive``), a check-matrix result (``pass``, ``fail``,
``inconclusive``), an oracle result (``clean``, ``violation``), an
``impulse_variation_bound`` summary (``bound=...``), ``exit3`` for the
"malformed input" exit on a valid generated file, or ``exception``.

A job *fails* when any of these holds, and each reason is listed:

* ``exception`` / ``exit3``: the program did not give a verdict;
* ``twin``: a scaled or similar twin of a fixture got another certify
  verdict;
* ``exact-vs-float``: both modes are decisive on one system and disagree;
* ``oracle-vs-certified``: the oracle found a violation of a property that
  exact mode certified at the same order;
* ``reference``: an independent computation in this file contradicts a
  decisive verdict (finite minors, or a closed-form fact);
* ``ledger``: a decisive outcome differs from the checked-in one.

A move to or from a non-decisive outcome (``inconclusive``, ``clean``,
``exit3``, ``exception``, an ``impulse_variation_bound`` summary) against
the ledger is reported, never counted.  The run is *correct* when no decisive verdict is contradicted
(reasons ``exact-vs-float``, ``oracle-vs-certified``, ``reference``,
``ledger``, or a twin disagreement between two decisive verdicts).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from workloads import Job, observability_rows

LEDGER_NAME = "expected_verdicts.json"
# an oracle that finds nothing decides nothing, so "clean" is not decisive
DECISIVE = {"certified", "refuted", "pass", "fail", "violation"}
NO_VERDICT = {"exception", "exit3"}
# reasons that mean some decisive verdict is wrong
WRONG = {"exact-vs-float", "oracle-vs-certified", "reference", "ledger", "twin-decisive"}


@dataclass
class Result:
    job: Job
    outcome: str
    exit_code: int | None
    payload: dict = field(default_factory=dict)  # the JSON line the CLI printed
    seconds: float = 0.0                         # wall time of the call
    cpu_s: float = 0.0                           # CPU time of the process during the call


def outcome_of(job: Job, code: int, payload: dict) -> str:
    if code == 3:
        return "exit3"
    if job.kind == "certify":
        return payload.get("conclusion", f"exit{code}")
    if job.kind == "check-matrix":
        return {0: "pass", 1: "fail", 2: "inconclusive"}.get(code, f"exit{code}")
    if job.kind == "oracle":
        return {0: "clean", 1: "violation"}.get(code, f"exit{code}")
    return f"exit{code}"


def ivb_outcome(report) -> str:
    levels = ",".join(f"{lvl}:{kind}" for lvl, kind in sorted(report.certified_levels.items()))
    return f"bound={report.bound} levels={levels}"


# ------------------------------------------------------------------ ledger

def load_ledger(path: Path) -> dict:
    if not path.exists():
        return {"jobs": {}, "classes": {}}
    return json.loads(path.read_text())


def ledger_diff(results: list[Result], ledger: dict) -> tuple[list[str], set[str]]:
    """Diff lines against the ledger, and the keys of jobs whose decisive
    outcome changed.  Fixture jobs compare one by one; seeded jobs compare
    with the usual outcome of their class, and only report."""
    lines, counted = [], set()
    seen = set()
    class_moves: Counter = Counter()
    for res in results:
        job = res.job
        if job.key in seen:
            continue
        seen.add(job.key)
        if not job.seeded:
            expected = ledger["jobs"].get(job.key)
            if expected is None:
                lines.append(f"  new      {job.key}: {res.outcome}")
            elif expected != res.outcome:
                weak = expected not in DECISIVE or res.outcome not in DECISIVE
                tag = "reported" if weak else "COUNTED"
                lines.append(f"  {tag:8} {job.key}: {expected} -> {res.outcome}")
                if not weak:
                    counted.add(job.key)
            continue
        expected = ledger["classes"].get(job.class_key())
        if expected is not None and expected != res.outcome:
            class_moves[(job.class_key(), expected, res.outcome)] += 1
    for (key, expected, got), count in sorted(class_moves.items()):
        lines.append(f"  class    {key}: usually {expected}, {count} x {got}")
    return lines, counted


def ledger_entries(results: list[Result]) -> dict:
    """Ledger content observed in a run: fixture outcomes and, per seeded
    class, the most common outcome."""
    jobs = {}
    classes: dict[str, Counter] = defaultdict(Counter)
    for res in results:
        if res.job.seeded:
            classes[res.job.class_key()][res.outcome] += 1
        else:
            jobs.setdefault(res.job.key, res.outcome)
    return {"jobs": jobs,
            "classes": {key: c.most_common(1)[0][0] for key, c in classes.items()}}


def merge_ledger(path: Path, entries: dict) -> None:
    ledger = load_ledger(path)
    for part in ("jobs", "classes"):
        ledger[part].update(entries[part])
        ledger[part] = dict(sorted(ledger[part].items()))
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------- reference arithmetic

def ref_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions with row swaps
    (independent of varsign's Bareiss code)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, d = 1, Fraction(1)
    for j in range(n):
        p = next((i for i in range(j, n) if m[i][j] != 0), None)
        if p is None:
            return Fraction(0)
        if p != j:
            m[j], m[p] = m[p], m[j]
            sign = -sign
        d *= m[j][j]
        for i in range(j + 1, n):
            if m[i][j] != 0:
                f = m[i][j] / m[j][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[j])]
    return sign * d


def minor_signs(M, order: int) -> Counter:
    """Counts of +1 / 0 / -1 over all minors of the given order."""
    rows, cols = len(M), len(M[0])
    out: Counter = Counter()
    for I in combinations(range(rows), order):
        sub = [M[i] for i in I]
        for J in combinations(range(cols), order):
            d = ref_det([[r[j] for j in J] for r in sub])
            out[(d > 0) - (d < 0)] += 1
    return out


def classify(signs: Counter) -> str:
    pos, zero, neg = signs[1], signs[0], signs[-1]
    if pos and neg:
        return "mixed"
    if zero:
        return "nonneg" if pos else ("nonpos" if neg else "zero")
    return "pos" if pos else "neg"


def _parse(payload: dict, key: str):
    return [[Fraction(x) for x in row] for row in payload[key]]


def diag_outcome(job: Job) -> str:
    """Exact verdict on a diagonal pair with distinct positive spectrum and
    unit output.  O is a generalized Vandermonde matrix: every k-minor has
    the strict sign (-1)^(k(k-1)/2), so the pair is SVB, VB and VD at every
    order, 1-positive, and not k-positive for k >= 2."""
    if job.prop == "kpos":
        return "certified" if job.k == 1 else "refuted"
    return "certified"


class References:
    """Independent expectations, cached per input."""

    def __init__(self, inputs: dict[str, dict]):
        self.inputs = inputs
        self._orders: dict[tuple[str, int], str] = {}

    def order_class(self, pair: str, order: int) -> str:
        """Sign class of the order-``order`` minors of a matrix file, or of
        the first 12 rows of the observability matrix of a system file."""
        key = (pair, order)
        if key not in self._orders:
            payload = self.inputs[pair]
            if "matrix" in payload:
                M = _parse(payload, "matrix")
            else:
                A = _parse(payload, "A")
                c = [Fraction(x) for x in payload["c"]]
                M = observability_rows(A, c, 12)
            self._orders[key] = classify(minor_signs(M, order))
        return self._orders[key]

    def expected(self, job: Job) -> tuple[set[str], set[str]]:
        """(outcomes that would be wrong, outcomes it should be) for a job;
        empty sets when no independent expectation applies."""
        if job.kind == "check-matrix":
            return self._matrix(job)
        if job.kind == "certify" and job.family == "diag" and job.arith == "exact":
            return self._diag(job)
        if job.kind == "certify" and job.family == "rand":
            return self._random_pair(job)
        if job.kind == "oracle" and job.family in ("diag", "cauchy"):
            # certified VB (diagonal, closed form) and totally positive
            # matrices bound variation: a violation is wrong
            return {"violation"}, {"clean"}
        return set(), set()

    def _diag(self, job: Job):
        want = diag_outcome(job)
        return DECISIVE - {want}, {want}

    def _random_pair(self, job: Job):
        cls = self.order_class(job.pair, job.k)
        if job.prop == "svb":
            if cls == "mixed" or cls in ("zero", "nonneg", "nonpos"):
                return {"certified"}, {"refuted"}
            return set(), set()
        if job.prop == "kpos":
            lower = [self.order_class(job.pair, j) for j in range(1, job.k + 1)]
            if any(c != "pos" for c in lower):
                return {"certified"}, {"refuted"}
            return set(), set()
        return set(), set()

    def _matrix(self, job: Job):
        k = job.k
        orders = [self.order_class(job.pair, j) for j in range(1, k + 1)]
        top = orders[-1]
        consistent = {"pos", "neg", "nonneg", "nonpos", "zero"}
        if job.prop == "sc":
            ok = top in consistent
        elif job.prop == "ssc":
            ok = top in ("pos", "neg")
        elif job.prop == "sr":
            ok = all(c in consistent for c in orders)
        elif job.prop == "tp":
            ok = all(c in ("pos", "nonneg", "zero") for c in orders)
        elif job.prop == "stp":
            ok = all(c == "pos" for c in orders)
        elif job.family == "cauchy" and all(c == "pos" for c in orders):
            ok = True  # strictly totally positive: VB and VD at every order
        else:
            return set(), set()
        want = "pass" if ok else "fail"
        return {"pass", "fail"} - {want}, {want}


# ------------------------------------------------------------- the checks

@dataclass
class Verdicts:
    failures: dict[str, list[str]]     # job key -> reasons
    notes: list[str]                   # reported, not counted
    ledger_lines: list[str]

    def correct(self) -> bool:
        return not any(WRONG & set(r) for r in self.failures.values())


def _exact_key(job: Job) -> str:
    return job.key.replace("/float/", "/exact/")


def check_results(results: list[Result], ledger: dict, refs: References) -> Verdicts:
    failures: dict[str, list[str]] = defaultdict(list)
    notes: list[str] = []
    first: dict[str, Result] = {}
    for res in results:
        prior = first.setdefault(res.job.key, res)
        if prior.outcome != res.outcome:
            notes.append(f"nondeterministic {res.job.key}: {prior.outcome} then {res.outcome}")
    for res in first.values():
        job = res.job
        if res.outcome in NO_VERDICT:
            failures[job.key].append(res.outcome)
        wrong, want = refs.expected(job)
        if res.outcome in wrong:
            failures[job.key].append("reference")
        elif want and res.outcome not in want and res.outcome not in NO_VERDICT:
            notes.append(f"unconfirmed {job.key}: {res.outcome}, reference expects "
                         f"{'/'.join(sorted(want))}")
        if job.arith == "float" and job.kind == "certify":
            if job.family == "diag":
                exact = diag_outcome(job)
            else:
                exact = None if job.seeded else ledger["jobs"].get(_exact_key(job))
            if exact in DECISIVE and res.outcome in DECISIVE and exact != res.outcome:
                failures[job.key].append("exact-vs-float")
        if job.kind == "oracle" and not job.seeded and res.outcome == "violation":
            base = f"{job.pair}/certify/exact/obsv/%s/k{job.k}"
            svb = ledger["jobs"].get(base % "svb")
            vb = ledger["jobs"].get(base % "vb")
            nonstrict = any(not v.get("strict_only") for v in res.payload.get("violations", []))
            if svb == "certified" or (vb == "certified" and nonstrict):
                failures[job.key].append("oracle-vs-certified")
    _twins(first, failures)
    _ivb_consistency(first, notes, failures)
    lines, counted = ledger_diff(list(first.values()), ledger)
    for key in counted:
        failures[key].append("ledger")
    return Verdicts(dict(failures), notes, lines)


def _twins(first: dict[str, Result], failures) -> None:
    by_call: dict[tuple, dict[str, str]] = defaultdict(dict)
    for res in first.values():
        job = res.job
        if job.twin and job.kind == "certify":
            call = (job.family, job.kind, job.arith, job.target, job.prop, job.k)
            by_call[call][job.twin] = res.outcome
    for call, outcomes in by_call.items():
        orig = outcomes.get("orig")
        if orig is None:
            continue
        for twin, got in outcomes.items():
            if twin == "orig" or got == orig or got in NO_VERDICT:
                continue
            family, kind, arith, target, prop, k = call
            key = f"{family}/{twin}/{kind}/{arith}/{target}/{prop}/k{k}"
            both = orig in DECISIVE and got in DECISIVE
            failures[key].append("twin-decisive" if both else "twin")


def _ivb_consistency(first: dict[str, Result], notes, failures) -> None:
    """impulse_variation_bound's certified levels must match the svb / vb
    verdicts of the same pair at the orders that ran; on a diagonal pair
    every level is strict (see ``diag_outcome``) and b = c = 1 gives bound 0."""
    for res in first.values():
        job = res.job
        if job.kind != "ivb" or not res.payload:
            continue
        levels = res.payload.get("levels", {})
        if job.family == "diag" and (res.payload.get("bound") != 0 or levels != {
                level: "strict" for level in range(job.k)}):
            failures[job.key].append("reference")
            notes.append(f"ivb {job.pair}: {res.outcome}, every level should be strict")
        for k in range(1, job.k + 1):
            svb = first.get(f"{job.pair}/certify/exact/obsv/svb/k{k}")
            vb = first.get(f"{job.pair}/certify/exact/obsv/vb/k{k}")
            if svb is None or vb is None:
                continue
            want = ("strict" if svb.outcome == "certified"
                    else "nonstrict" if vb.outcome == "certified" else None)
            if levels.get(k - 1) != want:
                failures[job.key].append("reference")
                notes.append(f"ivb {job.pair}: level {k - 1} is {levels.get(k - 1)}, "
                             f"svb/vb say {want}")
