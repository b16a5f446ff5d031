"""A cold call loads numpy only where an eigen route or the oracle runs.

One fresh interpreter, with ``src`` on ``PYTHONPATH``, imports varsign,
resolves every public name and runs exact and float ``check-matrix``, and
an exact ``certify`` whose every system the sign pattern of C_r(A) proves,
exact ``certify`` runs of a diagonal pair at k = 2..n, whose systems that no
sign pattern proves take an exact modal tail, exact ``certify`` runs on
1 x 1 pairs, and every exact ``certify`` of example1 and example2 at
k = 1..3, whose systems that no sign pattern proves take exact real-mode
tails or end at samples of both signs, without loading numpy; the same
process then runs an exact ``certify`` of example3's controllability
operator, whose rotation block leaves its systems to the eigen route, and
an ``oracle`` search, which load it and must give what they give in this
process.  A library ``external_positivity`` takes the tail routes
``certify`` takes, so on a system that its sign pattern or its exact
diagonal modes prove it loads no numpy either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from varsign.cli import main
from varsign.fixtures import path as fixture_path

from test_public_api import PUBLIC_NAMES

SRC = Path(__file__).resolve().parents[1] / "src"

CHECK_MATRIX = [
    ["check-matrix", str(fixture_path(name)), "--property", prop, "--k", "2", "--arith", arith]
    for name, props in (("pena", ("ssc", "vb", "vd")), ("example2", ("sc", "sr", "tp")))
    for prop in props for arith in ("exact", "float")
]
# the diagonal pair's order-1 systems at k = 1 are all pattern-proved
DIAGONAL = {"A": [["0.5", "0", "0"], ["0", "0.25", "0"], ["0", "0", "0.125"]],
            "c": ["1", "1", "1"]}
PROVED = [["certify", "diagonal.json", "--property", prop, "--k", "1"] for prop in ("svb", "vd")]
# at k = 2..4 the shifted systems of this diagonal pair escape the sign
# pattern, and its diagonal C_r(A) give them exact modal tails
DIAGONAL4 = {"A": [["0.9", "0", "0", "0"], ["0", "0.7", "0", "0"], ["0", "0", "0.5", "0"],
                   ["0", "0", "0", "0.3"]], "c": ["1", "1", "1", "1"]}
MODAL = [["certify", "diagonal4.json", "--property", prop, "--k", str(k)]
         for prop in ("svb", "vb", "vd", "kpos") for k in (2, 3, 4)]
# 1 x 1 pairs: the sign pattern of A = [1/2] proves its system, and the
# samples of A = [-1/2] alternate by t = 2, so neither takes an eigen tail
SCALARS = {"half.json": {"A": [["1/2"]], "c": ["1"]},
           "minus_half.json": {"A": [["-1/2"]], "c": ["1"]}}
SCALAR = [["certify", name, "--property", prop, "--k", "1"]
          for name in SCALARS for prop in ("svb", "vb", "kpos", "vd")]
# example1 and example2 with every property at k = 1..3
REAL = [["certify", str(fixture_path(name)), "--property", prop, "--k", str(k)]
        for name in ("example1", "example2") for k in (1, 2, 3)
        for prop in ("svb", "vb", "kpos", "vd")]
# example3's ctrb svb at k = 1 is refuted after eigen and recurrence tails on
# the complex spectrum of its rotation block; the oracle refutes example2 at k = 1
LOADING = [
    ["certify", str(fixture_path("example3")), "--target", "ctrb", "--property", "svb",
     "--k", "1"],
    ["oracle", str(fixture_path("example2")), "--k", "1", "--trials", "1000", "--seed", "0"],
]

_SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
from pathlib import Path

names, check_matrix, proved, modal, scalar, real, loading, out = json.loads(sys.argv[1])
loaded = {}

def step(label):
    loaded[label] = "numpy" in sys.modules

def run(argv, i):
    target = str(Path(out) / str(i))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = varsign.cli.main(argv + ["--out", target])
    report = (Path(target) / "report.json").read_text()
    return [code, buf.getvalue(), report]

import varsign
step("import varsign")
for name in names:
    getattr(varsign, name)
step("public names")
import varsign.cli
step("import varsign.cli")
cold = [run(argv, i) for i, argv in enumerate(check_matrix)]
step("check-matrix")
cold += [run(argv, len(cold) + i) for i, argv in enumerate(proved)]
step("proved certify")
cold += [run(argv, len(cold) + i) for i, argv in enumerate(modal)]
step("modal certify")
cold += [run(argv, len(cold) + i) for i, argv in enumerate(scalar)]
step("1 x 1 certify")
cold += [run(argv, len(cold) + i) for i, argv in enumerate(real)]
step("real-mode certify")
warm = []
for i, argv in enumerate(loading):
    warm.append(run(argv, len(cold) + i))
    step(argv[0])
print(json.dumps({"loaded": loaded, "cold": cold, "warm": warm}))
"""


def _in_process(argv, out, capsys):
    capsys.readouterr()
    code = main(argv + ["--out", str(out)])
    return [code, capsys.readouterr().out, (out / "report.json").read_text()]


def test_cold_path_loads_no_numpy(tmp_path, capsys):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    (tmp_path / "diagonal.json").write_text(json.dumps(DIAGONAL))
    (tmp_path / "diagonal4.json").write_text(json.dumps(DIAGONAL4))
    for name, pair in SCALARS.items():
        (tmp_path / name).write_text(json.dumps(pair))
    payload = json.dumps([PUBLIC_NAMES, CHECK_MATRIX, PROVED, MODAL, SCALAR, REAL, LOADING,
                          str(tmp_path / "fresh")])
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, payload], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["loaded"] == {"import varsign": False, "public names": False,
                             "import varsign.cli": False, "check-matrix": False,
                             "proved certify": False, "modal certify": False,
                             "1 x 1 certify": False, "real-mode certify": False,
                             "certify": True, "oracle": True}
    runs = CHECK_MATRIX + PROVED + MODAL + SCALAR + REAL + LOADING
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)
        want = [_in_process(argv, tmp_path / "here" / str(i), capsys)
                for i, argv in enumerate(runs)]
    assert got["cold"] + got["warm"] == want
    codes = [code for code, _, _ in want[len(CHECK_MATRIX):]]
    # svb, vb and vd certify the diagonal pair at k = 2..4, and kpos is refuted;
    # example1 certifies every property at k = 1, 2, example2 svb and vb at k = 2
    assert codes == ([0, 0] + [0] * 9 + [1] * 3 + [0] * 4 + [1] * 4
                     + [0] * 8 + [1] * 4 + [1] * 4 + [0, 0, 1, 1] + [1] * 4 + [1, 1])
    # every system of the proved runs rests on its sign pattern
    proved = len(CHECK_MATRIX)
    for _, _, report in got["cold"][proved:proved + len(PROVED)]:
        systems = json.loads(report)["certificate"]["systems"]
        assert systems and all(s["notes"][0].startswith("tail by sign pattern")
                               for s in systems)
    # every system of the certified modal runs rests on one of the exact routes
    modal = proved + len(PROVED)
    for _, _, report in got["cold"][modal:modal + 9]:
        notes = [s["notes"][0] for s in json.loads(report)["certificate"]["systems"]]
        assert any(note.startswith("tail by exact diagonal modes") for note in notes)
        assert all(note.startswith(("tail by sign pattern", "tail by exact diagonal modes"))
                   for note in notes), notes
    # every system of the certified real-mode runs rests on one of the exact routes
    real = modal + len(MODAL) + len(SCALAR)
    for (code, _, report), argv in zip(got["cold"][real:real + len(REAL)], REAL):
        notes = [s["notes"][0] for s in json.loads(report)["certificate"]["systems"]]
        if code == 0:
            assert any(note.startswith("tail by exact real modes") for note in notes), argv
            assert all(note.startswith(("tail by sign pattern", "tail by exact real modes"))
                       for note in notes), (argv, notes)


# (A, the note of its tail) with b = c = 1: the sign pattern of a nonnegative
# A, and the exact modes of diag(1/2, -1/4), whose negative entry leaves no
# signature; g(t) = (1/2)^(t-1) + (-1/4)^(t-1) is positive from t = 1
LIBRARY = [
    ([["1/2", "1/10"], ["0", "1/4"]],
     "tail by sign pattern: every sample is 0 or of sign +1; no sample is 0"),
    ([["1/2", "0"], ["0", "-1/4"]],
     "tail by exact diagonal modes: every sample from t=2 on has sign +1"),
]

_LIBRARY_SCRIPT = """
import json, sys
from varsign.linalg import Matrix
from varsign.lti import LtiSystem, external_positivity

got = []
for A in json.loads(sys.argv[1]):
    v = external_positivity(LtiSystem(Matrix.exact(A), ("1", "1"), ("1", "1")))
    got.append([v.status.value, v.notes, len(v.samples)])
print(json.dumps({"verdicts": got, "numpy": "numpy" in sys.modules}))
"""


def test_library_external_positivity_takes_the_proved_routes(tmp_path):
    """A fresh exact ``external_positivity`` proves both systems with no
    eigen-solve, and holds only the samples up to its tail start."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    payload = json.dumps([A for A, _ in LIBRARY])
    proc = subprocess.run([sys.executable, "-c", _LIBRARY_SCRIPT, payload], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    verdicts = [["strictly positive", [note], held] for (_, note), held in zip(LIBRARY, (1, 2))]
    assert json.loads(proc.stdout) == {"verdicts": verdicts, "numpy": False}
