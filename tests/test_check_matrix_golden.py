"""Golden records of `varsign check-matrix` on fixed matrices.

Every property (sc, ssc, sr, tp, stp, vb, vd) runs at each order k = 1..cols,
in exact and in float arithmetic; sc, sr and tp also run with `--strict`.
Each run records its exit code, its stdout line and the sha256 digest of its
`report.json` (None when the run wrote none), with the temporary directory
that holds the input file replaced by `<tmp>`.  The matrices are the fixtures'
state matrices plus seeded random, Cauchy, rank-deficient, mixed-sign,
near-singular and wide ones, so the table holds certified, refuted,
"undecidable", "mixed" and "inconclusive" outcomes alike.

Regenerate the table with `python tests/test_check_matrix_golden.py --write`.
"""

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from varsign.cli import main
from varsign.fixtures import path as fixture_path
from varsign.linalg import Matrix
from varsign.oracle import falsify_matrix_vb
from varsign.variation import v_minus

TABLE = Path(__file__).with_name("golden_check_matrix.json")
PROPERTIES = ("sc", "ssc", "sr", "tp", "stp", "vb", "vd")
STRICT_FLAG = ("sc", "sr", "tp")  # --strict changes these; ssc/stp imply it


def _text(rows):
    return [[str(Fraction(x)) for x in row] for row in rows]


def _matrices() -> dict[str, list[list[str]]]:
    rng = random.Random(1806)

    def rand(n, m):
        return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
                for _ in range(n)]

    def cauchy(n, m):
        x = [sum(Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(i + 1))
             for i in range(n)]
        y = [1 + sum(Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(j + 1))
             for j in range(m)]
        return [[1 / (xi + yj) for yj in y] for xi in x]

    mats = {name: json.loads(fixture_path(name).read_text())["A"]
            for name in ("example1", "example2", "example3")}
    mats["pena42"] = [["1", "1"], ["1", "2"], ["1", "3"], ["1", "4"]]
    mats["mixed33"] = [["1.1", "0.1", "-5.5"], ["0.785", "0.51", "-2.775"],
                       ["0.626", "0.46425", "-1.975"]]
    for n, m in ((3, 2), (4, 3), (5, 3), (4, 4)):
        mats[f"random{n}{m}"] = _text(rand(n, m))
    for n, m in ((4, 3), (5, 2), (3, 3)):
        mats[f"cauchy{n}{m}"] = _text(cauchy(n, m))
    # rank 2: the third column is the sum of the first two
    two = rand(4, 2)
    mats["rank2_43"] = _text([row + [row[0] + row[1]] for row in two])
    # rank 1: an outer product with positive factors
    u = [Fraction(rng.randint(1, 4)) for _ in range(5)]
    v = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(3)]
    mats["rank1_53"] = _text([[a * b for b in v] for a in u])
    # a zero column: some single column is dependent while the rank exceeds 1
    mats["zerocol43"] = _text([[1, 0, 2], [2, 0, 1], [1, 0, 1], [3, 0, 2]])
    # 2-minors near 1e-12: positive in exact, inside the float tolerance
    mats["nearsing42"] = [["1", "1"], ["1", "1.000000000001"],
                          ["1", "1.000000000002"], ["1", "1.000000000003"]]
    mats["wide23"] = [["1", "2", "3"], ["1", "3", "5"]]
    return mats


MATRICES = _matrices()
GROUPS = [(name, arith) for name in MATRICES for arith in ("exact", "float")]


def _argvs(cols: int):
    for prop in PROPERTIES:
        for k in range(1, cols + 1):
            yield f"{prop}/k{k}", ["--property", prop, "--k", str(k)]
            if prop in STRICT_FLAG:
                yield f"{prop}/k{k}/strict", ["--property", prop, "--k", str(k), "--strict"]


def run_group(tmp: Path, name: str, arith: str) -> dict:
    """Records of every check-matrix run on one matrix in one arithmetic."""
    f = tmp / f"{name}.json"
    f.write_text(json.dumps({"matrix": MATRICES[name]}))
    records = {}
    for i, (case, options) in enumerate(_argvs(len(MATRICES[name][0]))):
        out_dir = tmp / f"out{i}"
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = main(["check-matrix", str(f), *options, "--arith", arith,
                         "--out", str(out_dir)])
        report = out_dir / "report.json"
        digest = (hashlib.sha256(report.read_text().replace(str(tmp), "<tmp>").encode())
                  .hexdigest() if report.exists() else None)
        records[case] = {"exit": code, "stdout": stdout.getvalue().replace(str(tmp), "<tmp>"),
                         "report": digest}
    return records


@pytest.mark.parametrize("name,arith", GROUPS, ids=[f"{n}/{a}" for n, a in GROUPS])
def test_check_matrix_matches_golden(tmp_path, name, arith):
    expected = json.loads(TABLE.read_text())[f"{name}/{arith}"]
    assert run_group(tmp_path, name, arith) == expected


# The vd runs that the VB fold moved from "undecidable" to refuted: the
# sign-regularity route they took before needed rank > k with every k columns
# independent, which these runs do not have (twelve of them are on the square
# example1, example2, example3, mixed33 and random44).
FOLD_REFUTED = [
    (name, arith, case) for name, cases in [
        ("cauchy43", ["vd/k3"]), ("cauchy52", ["vd/k2"]), ("example1", ["vd/k3"]),
        ("example2", ["vd/k3"]), ("example3", ["vd/k5"]), ("mixed33", ["vd/k3"]),
        ("random32", ["vd/k2"]), ("random43", ["vd/k3"]), ("random44", ["vd/k3", "vd/k4"]),
        ("random53", ["vd/k3"]), ("rank2_43", ["vd/k2", "vd/k3"]),
        ("zerocol43", ["vd/k2", "vd/k3"])]
    for arith in ("exact", "float") for case in cases
    if (name, arith) != ("zerocol43", "float")]


# The vb runs on square matrices that went from exit 3 (the old rows > cols
# guard) to refuted, deciding X as [X; 0] as vd does.
SQUARE_VB_REFUTED = [
    (name, arith, f"vb/k{k}") for name, orders in [
        ("example1", (1, 2)), ("example2", (1,)), ("example3", (1, 2, 3, 4)), ("mixed33", (1,)),
        ("random44", (1, 2, 3))]
    for arith in ("exact", "float") for k in orders]


def _replay_exact_witness(name, j):
    """Whether a ``falsify_matrix_vb`` input u of the exact X, its doubles read
    as Fractions, has v-(u) <= j - 1 and v-(X u) >= j in exact arithmetic:
    then X is not VB_(j-1)."""
    X = Matrix.exact(MATRICES[name])
    report = falsify_matrix_vb(X, j, trials=2000, seed=0)
    witnesses = [u for u in (tuple(map(Fraction, v.u)) for v in report.violations)
                 if v_minus(u) <= j - 1 and v_minus(X.matvec(u)) >= j]
    assert witnesses, (name, j, len(report.violations))


@pytest.mark.parametrize("name,arith,case", FOLD_REFUTED,
                         ids=[f"{n}/{a}/{c}" for n, a, c in FOLD_REFUTED])
def test_fold_refutations_replay_an_exact_witness(name, arith, case):
    """The order j that a refuted vd run's rule names (VB_(j-1)) has an exact
    witness (``_replay_exact_witness``): X is not VB_(j-1), so not VD_(k-1)."""
    line = json.loads(json.loads(TABLE.read_text())[f"{name}/{arith}"][case]["stdout"])
    assert line["verdict"] == "refuted"
    _replay_exact_witness(name, int(line["rule"].removeprefix("VB_").partition(":")[0]) + 1)


@pytest.mark.parametrize("name,arith,case", SQUARE_VB_REFUTED,
                         ids=[f"{n}/{a}/{c}" for n, a, c in SQUARE_VB_REFUTED])
def test_square_vb_refutations_replay_an_exact_witness(name, arith, case):
    """A square matrix's refuted vb run at order k has an exact witness
    (``_replay_exact_witness``) at j = k: X is not VB_(k-1)."""
    line = json.loads(json.loads(TABLE.read_text())[f"{name}/{arith}"][case]["stdout"])
    assert line["verdict"] == "refuted" and len(MATRICES[name]) == len(MATRICES[name][0])
    _replay_exact_witness(name, int(case.removeprefix("vb/k")))


def test_every_square_vb_refutation_is_replayed():
    table = json.loads(TABLE.read_text())
    refuted = {(name, arith, case) for name, arith in GROUPS
               if len(MATRICES[name]) == len(MATRICES[name][0])
               for case, rec in table[f"{name}/{arith}"].items()
               if case.startswith("vb/") and rec["exit"] == 1}
    assert refuted == set(SQUARE_VB_REFUTED)


def test_golden_table_covers_every_outcome():
    lines = [json.loads(rec["stdout"]) for group in json.loads(TABLE.read_text()).values()
             for rec in group.values() if rec["stdout"]]
    verdicts = {line.get("verdict") for line in lines}
    verdicts |= {v for line in lines for v in line.get("orders", {}).values()}
    assert {"undecidable", "mixed", "inconclusive", "certified", "refuted"} <= verdicts


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_check_matrix_golden.py --write")
    table = {}
    for name, arith in GROUPS:
        with tempfile.TemporaryDirectory() as tmp:
            table[f"{name}/{arith}"] = run_group(Path(tmp), name, arith)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    runs = sum(len(group) for group in table.values())
    print(f"wrote {runs} runs in {len(table)} groups to {TABLE}")
