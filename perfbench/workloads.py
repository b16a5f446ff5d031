"""Seeded inputs and job lists for the four benchmark workloads.

Everything here is plain Python: the generators mirror the ones in
``tests/conftest.py`` (``random_exact``, ``cauchy_exact``,
``observable_pair``) and ``tests/test_obsv.py::_random_certifiable_pair``,
re-implemented from ``random.Random(seed)`` so that the program under test
sees only the JSON files written here.

A workload is a list of jobs.  Jobs drawn from the seed come block by block
(one block is one pair or matrix with the jobs on it); the seed-independent
fixture jobs are interleaved with them one by one at a fixed ratio, in a
fixed shuffled order, which keeps the mix of any prefix of the list close to
the mix of the whole list.  A run goes on until every fixture job has run
once, so the cross-job checks (twins, ledger) always find their partners.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("exact_refute", "exact_certify", "float_oracle", "matrix_exact")

CERTIFY_PROPS = ("svb", "vb", "kpos", "vd")
REFUTE_PROPS = ("svb", "vb", "kpos")
MATRIX_PROPS = ("sc", "ssc", "sr", "tp", "stp", "vb", "vd")
ORACLE_TRIALS = 1000
SEEDED_PER_BLOCK = 8

# (alpha, beta, D): (alpha A, beta c) when D is None, else (D^-1 A D, c D).
# beta = 1e-3 and 1e-6 are the scalings at which float (exit 3) and exact
# (certified -> inconclusive) verdicts were measured to break.
TWINS = {
    "orig": (1, 1, None),
    "a2_b3": (2, 3, None),
    "a0.5_b1e-3": (Fraction(1, 2), Fraction(1, 1000), None),
    "b1e-6": (1, Fraction(1, 10**6), None),
    "dsim123": (1, 1, (1, 2, 3)),
}

# seed-independent fixtures, kept here so that the benchmark carries its own
# copy of the published example systems
EXAMPLES = {
    "example1": {
        "A": [["-1.20", "-1.50", "-1.88"], ["1.51", "1.75", "1.88"], ["-0.16", "-0.01", "0.40"]],
        "c": ["1.16", "1.8", "3"],
    },
    "example2": {
        "A": [["0.7", "0.6", "-2"], ["0.15", "0.15", "-0.25"], ["0", "0.03", "0.1"]],
        "c": ["1.1", "0.1", "-5.5"],
    },
    "example3": {
        "A": [["1", "0", "0", "0", "0"], ["1", "1", "0", "0", "0"], ["0", "1", "1", "0", "0"],
              ["0", "0", "0", "-0.6056998670788134", "-0.7956932015674809"],
              ["0", "0", "0", "0.7956932015674809", "-0.6056998670788134"]],
        "b": ["1", "1", "1", "1", "1"],
        "c": ["1", "1", "1", "0.001", "0.001"],
    },
}


@dataclass(frozen=True)
class Job:
    """One closed-loop call into varsign.

    ``pair`` names the input system or matrix; ``key`` names the whole call
    and is stable across seeds for fixture jobs.  ``kind`` is a CLI
    subcommand, or ``ivb`` for the API-only ``impulse_variation_bound``.
    """

    key: str
    family: str
    pair: str
    kind: str
    k: int
    prop: str = ""
    arith: str = "exact"
    target: str = "obsv"
    seeded: bool = True

    @property
    def twin(self) -> str:
        """Variant tag of a fixture twin ("orig", "a2_b3", ...), else ""."""
        return self.pair.split("/", 1)[1] if not self.seeded and "/" in self.pair else ""

    def class_key(self) -> str:
        """Ledger key shared by every seeded job of the same kind and order."""
        return f"{self.family}/{self.kind}/{self.arith}/{self.target}/{self.prop}/k{self.k}"

    def argv(self, inputs: Path, out: Path) -> list[str]:
        path = str(inputs / input_name(self.pair))
        if self.kind == "certify":
            return ["certify", path, "--k", str(self.k), "--property", self.prop,
                    "--arith", self.arith, "--target", self.target, "--out", str(out)]
        if self.kind == "check-matrix":
            return ["check-matrix", path, "--k", str(self.k), "--property", self.prop,
                    "--out", str(out)]
        if self.kind == "oracle":
            return ["oracle", path, "--k", str(self.k), "--trials", str(ORACLE_TRIALS),
                    "--seed", "0", "--out", str(out)]
        raise ValueError(f"job kind {self.kind} has no command line")


def input_name(pair: str) -> str:
    return pair.replace("/", "__").replace("#", "_") + ".json"


def _make_job(family, pair, kind, k, prop="", arith="exact", target="obsv", seeded=True) -> Job:
    key = f"{pair}/{kind}/{arith}/{target}/{prop}/k{k}"
    return Job(key, family, pair, kind, k, prop, arith, target, seeded)


# ---------------------------------------------------------------- generators

def _rank(rows) -> int:
    m = [list(r) for r in rows]
    r = 0
    for j in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][j] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][j] / m[r][j]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def observability_rows(A, c, t: int):
    """Rows c, cA, ..., cA^(t-1)."""
    n = len(A)
    row = list(c)
    out = [row]
    for _ in range(t - 1):
        row = [sum(row[i] * A[i][j] for i in range(n)) for j in range(n)]
        out.append(row)
    return out


def random_exact(rng, n, m, lo=-3, hi=3, max_den=3):
    return [[Fraction(rng.randint(lo, hi), rng.randint(1, max_den)) for _ in range(m)]
            for _ in range(n)]


def cauchy_exact(rng, n, m):
    """Strictly totally positive matrix 1/(x_i + y_j) with increasing nodes."""
    x, acc = [], Fraction(0)
    for _ in range(n):
        acc += Fraction(rng.randint(1, 4), rng.randint(1, 3))
        x.append(acc)
    y, acc = [], Fraction(1)
    for _ in range(m):
        acc += Fraction(rng.randint(1, 4), rng.randint(1, 3))
        y.append(acc)
    return [[1 / (xi + yj) for yj in y] for xi in x]


def observable_pair(rng, n, lo=-3, hi=3, max_den=2):
    while True:
        A = random_exact(rng, n, n, lo, hi, max_den)
        c = [Fraction(rng.randint(lo, hi)) for _ in range(n)]
        if _rank(observability_rows(A, c, n)) == n:
            return A, c


def certifiable_pair(rng, n):
    """Diagonal, distinct positive spectrum, unit output: certifiable at every order."""
    lams = sorted({Fraction(rng.randint(1, 9), 10) for _ in range(n)}, reverse=True)
    while len(lams) < n:
        lams.append(lams[-1] / 2)
    A = [[lams[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return A, [Fraction(1)] * n


def twin_system(name: str, variant: str) -> dict:
    A = [[Fraction(x) for x in row] for row in EXAMPLES[name]["A"]]
    c = [Fraction(x) for x in EXAMPLES[name]["c"]]
    alpha, beta, D = TWINS[variant]
    if D is None:
        return system_payload([[alpha * x for x in row] for row in A], [beta * x for x in c])
    n = len(A)
    return system_payload([[A[i][j] * D[j] / D[i] for j in range(n)] for i in range(n)],
                          [c[j] * D[j] for j in range(n)])


def system_payload(A, c, b=None) -> dict:
    out = {"A": [[str(x) for x in row] for row in A], "c": [str(x) for x in c]}
    if b is not None:
        out["b"] = [str(x) for x in b]
    return out


def matrix_payload(M) -> dict:
    return {"matrix": [[str(x) for x in row] for row in M]}


# ---------------------------------------------------------------- workloads

class Plan:
    """Inputs (file name -> JSON payload) and the ordered jobs."""

    def __init__(self):
        self.inputs: dict[str, dict] = {}
        self.jobs: list[Job] = []
        self.fixture_keys: set[str] = set()

    def add_input(self, pair: str, payload: dict) -> None:
        self.inputs[pair] = payload

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for pair, payload in self.inputs.items():
            (directory / input_name(pair)).write_text(json.dumps(payload))


def _interleave(plan: Plan, fixture_blocks, seeded_block, rounds: int, per_seeded: int):
    """Append ``rounds`` seeded blocks, each seeded job preceded by
    ``per_seeded`` fixture jobs.  The fixture jobs come in one fixed shuffled
    order and start over once all have been used, so that where a run's
    deadline falls does not change its mix."""
    fixed = [job for block in fixture_blocks for job in block]
    random.Random(0).shuffle(fixed)
    plan.fixture_keys.update(job.key for job in fixed)
    i = 0
    for r in range(rounds):
        for job in seeded_block(r):
            for _ in range(per_seeded):
                plan.jobs.append(fixed[i % len(fixed)])
                i += 1
            plan.jobs.append(job)


def _example_blocks(plan: Plan, arith: str, with_oracle: bool) -> list[list[Job]]:
    blocks = []
    for name in ("example1", "example2"):
        for variant in TWINS:
            plan.add_input(f"{name}/{variant}", twin_system(name, variant))
        for k in (1, 2, 3):
            block = [_make_job(name, f"{name}/{variant}", "certify", k, prop, arith, seeded=False)
                     for variant in TWINS for prop in CERTIFY_PROPS]
            if with_oracle:
                block += [_make_job(name, f"{name}/{variant}", "oracle", k, arith="float",
                                    seeded=False) for variant in TWINS]
            blocks.append(block)
    plan.add_input("example3/orig", EXAMPLES["example3"])
    blocks.append([_make_job("example3", "example3/orig", "certify", 1, prop, arith, target,
                             seeded=False)
                   for target in ("ctrb", "hankel") for prop in CERTIFY_PROPS])
    return blocks


def _diag_pair(plan: Plan, rng, n: int, index: int) -> str:
    A, c = certifiable_pair(rng, n)
    pair = f"diag/n{n}#{index}"
    plan.add_input(pair, system_payload(A, c, b=c))
    return pair


def plan_exact_refute(seed: int, rounds: int) -> Plan:
    """Random observable pairs, n = 3: the exact tail (minimal recurrence) route."""
    plan = Plan()
    rng = random.Random(seed)

    def block(r):
        n = 3
        A, c = observable_pair(rng, n)
        pair = f"rand/n{n}#{r}"
        plan.add_input(pair, system_payload(A, c))
        return [_make_job("rand", pair, "certify", k, prop)
                for k in range(2, n) for prop in REFUTE_PROPS]

    _interleave(plan, [], block, rounds, 0)
    return plan


def plan_exact_certify(seed: int, rounds: int) -> Plan:
    """Certifiable pairs: fixtures with twins, diagonal pairs, example3, and
    impulse_variation_bound, which rebuilds the context at every order."""
    plan = Plan()
    rng = random.Random(seed)
    fixtures = _example_blocks(plan, "exact", with_oracle=False)
    fixtures.append([_make_job(name, f"{name}/orig", "ivb", 3, seeded=False)
                     for name in ("example1", "example2")])

    # every seeded job gets a diagonal pair of its own: many pairs per run,
    # so the draw of spectra does not decide the figures
    calls = [(n, k, prop) for n, k in ((3, 2), (4, 2), (3, 3), (4, 3), (5, 2), (4, 4))
             for prop in CERTIFY_PROPS] + [(4, 4, "ivb")] * 2

    def block(r):
        jobs = []
        for i in range(r * SEEDED_PER_BLOCK, (r + 1) * SEEDED_PER_BLOCK):
            n, k, prop = calls[i % len(calls)]
            pair = _diag_pair(plan, rng, n, i)
            jobs.append(_make_job("diag", pair, "ivb", n) if prop == "ivb"
                        else _make_job("diag", pair, "certify", k, prop))
        return jobs

    _interleave(plan, fixtures, block, rounds, 1)
    return plan


def plan_float_oracle(seed: int, rounds: int) -> Plan:
    """The certify families in float mode, plus the sampling oracle on
    operators and on bare matrices; no Fraction arithmetic in the hot path."""
    plan = Plan()
    rng = random.Random(seed)
    fixtures = _example_blocks(plan, "float", with_oracle=True)
    # n = 6 diagonal pairs: closely spaced spectrum (det O_n inside the float
    # tolerance: exit 3) and the spread spectrum that float leaves inconclusive.
    # Seeded diagonal pairs stop at n = 5, where exit 3 does not depend on the seed.
    diag6 = []
    for variant, lams in (("dense", (9, 8, 7, 6, 5, 4)), ("spread", (9, 7, 5, 3, 2, 1))):
        pair = f"diag/{variant}"
        A = [[Fraction(lams[i], 10) if i == j else Fraction(0) for j in range(6)]
             for i in range(6)]
        plan.add_input(pair, system_payload(A, [Fraction(1)] * 6))
        diag6 += [_make_job("diag", pair, "certify", k, prop, "float", seeded=False)
                  for k in (2, 6) for prop in (CERTIFY_PROPS if k == 2 else REFUTE_PROPS)]
    fixtures.append(diag6)
    shapes = ((5, 3), (6, 4), (7, 5), (8, 6))
    # every seeded job gets an input of its own, as in exact_certify
    calls = []
    for i, call in enumerate((n, k, prop) for n in (3, 4, 5) for k in range(2, n + 1)
                             for prop in (CERTIFY_PROPS if n <= 4 or k == 2 else REFUTE_PROPS)):
        calls += [call, ("oracle",)] if i % 4 == 3 else [call]

    def block(r):
        jobs = []
        for i in range(r * SEEDED_PER_BLOCK, (r + 1) * SEEDED_PER_BLOCK):
            call = calls[i % len(calls)]
            if call[0] != "oracle":
                n, k, prop = call
                jobs.append(_make_job("diag", _diag_pair(plan, rng, n, i), "certify", k, prop,
                                      "float"))
            elif i % 2:
                n = 3 + i % 3
                jobs.append(_make_job("diag", _diag_pair(plan, rng, n, i), "oracle", 1 + i % n,
                                      arith="float"))
            else:
                rows, cols = shapes[i % len(shapes)]
                family = "cauchy" if i % 4 else "randmat"
                mat = f"{family}/{rows}x{cols}#{i}"
                M = cauchy_exact(rng, rows, cols) if i % 4 else random_exact(rng, rows, cols)
                plan.add_input(mat, matrix_payload(M))
                jobs.append(_make_job(family, mat, "oracle", 1 + i % cols, arith="float"))
        return jobs

    _interleave(plan, fixtures, block, rounds, 3)
    return plan


def plan_matrix_exact(seed: int, rounds: int) -> Plan:
    """Exact rectangular and Cauchy matrices: signcons and Bareiss; no lti."""
    plan = Plan()
    rng = random.Random(seed)
    # one matrix per block at a single order: many distinct matrices per run
    shapes = ((5, 3), (6, 4), (7, 5), (8, 6), (6, 3), (7, 4))
    orders = [(rows, cols, k) for rows, cols in shapes
              for k in (range(2, cols + 1) if cols < 6 else (2, 3))]

    def block(r):
        rows, cols, k = orders[r % len(orders)]
        cauchy = (r // len(orders) + r) % 2 == 1
        family = "cauchy" if cauchy else "randmat"
        mat = f"{family}/{rows}x{cols}#{r}"
        M = cauchy_exact(rng, rows, cols) if cauchy else random_exact(rng, rows, cols)
        plan.add_input(mat, matrix_payload(M))
        return [_make_job(family, mat, "check-matrix", k, prop) for prop in MATRIX_PROPS]

    _interleave(plan, [], block, rounds, 0)
    return plan


PLANNERS = {
    "exact_refute": plan_exact_refute,
    "exact_certify": plan_exact_certify,
    "float_oracle": plan_float_oracle,
    "matrix_exact": plan_matrix_exact,
}
