import ast
import csv
import json
import math
import os
import random
import stat
import sys
import time
import warnings
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import varsign.io
import varsign.lti
import varsign.obsv
import varsign.oracle
from varsign import cli
from varsign.cli import main
from varsign.fixtures import path as fixture_path
from varsign.io import load_system_file, render_value, write_traces
from varsign.linalg import Backend, LinalgError, Matrix
from varsign.lti import ExactSamples, LtiSystem, impulse_response
from varsign.obsv import certify_k_positive
from varsign.oracle import falsify_matrix_vb, falsify_operator_vb

from conftest import block_bytes, observable_pair, report_trace_labels, trace_blocks


def write_json(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def test_check_matrix_pena_ssc(tmp_path, capsys):
    f = write_json(tmp_path, "pena.json",
                   {"matrix": [["1", "1"], ["1", "2"], ["1", "3"], ["1", "4"]]})
    code = main(["check-matrix", str(f), "--property", "ssc", "--k", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["epsilon"] == 1


def test_check_matrix_mixed_entries_fail(tmp_path, capsys):
    f = write_json(tmp_path, "o3.json", {"matrix": [
        ["1.1", "0.1", "-5.5"], ["0.785", "0.51", "-2.775"], ["0.626", "0.46425", "-1.975"]]})
    code = main(["check-matrix", str(f), "--property", "sc", "--k", "1"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "mixed"


def test_check_matrix_vb_and_vd(tmp_path, capsys):
    f = write_json(tmp_path, "pena.json",
                   {"matrix": [["1", "1"], ["1", "2"], ["1", "3"], ["1", "4"]]})
    assert main(["check-matrix", str(f), "--property", "vb", "--k", "2"]) == 0
    capsys.readouterr()
    assert main(["check-matrix", str(f), "--property", "vd", "--k", "2"]) == 0


def test_check_matrix_malformed_inputs(tmp_path, capsys):
    empty = write_json(tmp_path, "empty.json", {"matrix": []})
    assert main(["check-matrix", str(empty), "--property", "sc", "--k", "1"]) == 3
    notjson = tmp_path / "bad.json"
    notjson.write_text("{not json")
    assert main(["check-matrix", str(notjson), "--property", "sc", "--k", "1"]) == 3
    missing = write_json(tmp_path, "missing.json", {"name": "nothing"})
    assert main(["check-matrix", str(missing), "--property", "sc", "--k", "1"]) == 3


@pytest.mark.parametrize("prop", ["sc", "ssc", "sr", "tp", "stp"])
@pytest.mark.parametrize("k", [0, -2, 3, 5])
def test_check_matrix_order_outside_the_shape_is_an_input_error(tmp_path, capsys, prop, k):
    f = write_json(tmp_path, "m.json", {"matrix": [["1", "2"], ["1", "3"], ["1", "4"]]})
    assert main(["check-matrix", str(f), "--property", prop, "--k", str(k)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"k={k} lies outside 1..2" in captured.err


@pytest.mark.parametrize("prop", ["vb", "vd"])
def test_check_matrix_strict_vb_vd_is_an_input_error(tmp_path, capsys, prop):
    # the option is refused before the (missing) file is read
    never_read = tmp_path / "missing.json"
    code = main(["check-matrix", str(never_read), "--property", prop, "--k", "1", "--strict"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "--strict applies to --property sc, sr and tp only" in captured.err


def test_main_reuses_one_parser_across_calls(tmp_path, capsys):
    """Calls on the process's one parser give, call by call, the stdout and
    exit code of the same call on a freshly built parser."""
    # the 2x2 minors are 0, 1 and 1e-12: strict and float change the answer
    f = str(write_json(tmp_path, "m.json", {
        "matrix": [["1", "1"], ["1", "1"], ["1", "1.000000000001"]]}))
    calls = [
        ["check-matrix", f, "--property", "sc", "--k", "2", "--strict"],
        ["check-matrix", f, "--property", "sc", "--k", "2"],
        ["check-matrix", f, "--property", "tp", "--k", "2", "--arith", "float"],
        ["check-matrix", f, "--property", "no-such-property", "--k", "2"],
        ["check-matrix", f, "--property", "tp", "--k", "2"],
        ["certify", "--help"],
        ["check-matrix", f, "--property", "sc", "--k", "2", "--arith", "float"],
        ["oracle", str(fixture_path("example1")), "--k", "2", "--trials", "30"],
        ["oracle", str(fixture_path("example1")), "--k", "1", "--seed", "4", "--trials", "30"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        return code, capsys.readouterr().out

    assert cli.build_parser() is cli.build_parser()
    shared = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    codes = [code for code, _ in shared]
    assert codes[:7] == [1, 0, 2, "SystemExit(3)", 0, "SystemExit(0)", 2]


def test_certify_example1_kpos_traces(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["certify", str(fixture_path("example1")), "--property", "kpos",
                 "--k", "2", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["certificate"]["conclusion"] == "certified"
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "traces.csv"]
    blocks = trace_blocks(out / "traces.csv")
    assert sorted(blocks) == [("observability", 1, "1"), ("observability", 1, "2"),
                              ("observability", 1, "3"), ("observability", 2, "1 2"),
                              ("observability", 2, "1 3"), ("observability", 2, "2 3")]
    # every emitted value equals the library impulse response
    sf = load_system_file(fixture_path("example1"))
    cert = certify_k_positive(sf.A, sf.c, 2, strict=True)
    by_label = {("observability", sv.r, " ".join(map(str, sv.beta.elems))): sv
                for sv in cert.per_system}
    for label, rows in blocks.items():
        samples = by_label[label].verdict.samples
        assert len(rows) == len(samples)
        for t, (ts, gs) in enumerate(rows, 1):
            assert int(ts) == t
            assert Fraction(gs) == samples[t - 1]
            assert Fraction(gs) > 0 or t > 10


def test_certify_example2_svb(tmp_path, capsys):
    assert main(["certify", str(fixture_path("example2")), "--property", "svb",
                 "--k", "2", "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    assert main(["certify", str(fixture_path("example2")), "--property", "svb",
                 "--k", "1", "--out", str(tmp_path / "b")]) == 1


def test_certify_unobservable_pair_inconclusive(tmp_path, capsys):
    f = write_json(tmp_path, "unobs.json",
                   {"A": [["1", "0"], ["0", "1"]], "c": ["1", "0"]})
    code = main(["certify", str(f), "--property", "svb", "--k", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("target, name", [("obsv", "observability"),
                                          ("ctrb", "controllability"), ("hankel", "hankel")])
def test_certify_unobservable_pair_reports_inconclusive(tmp_path, capsys, target, name):
    # no compound system exists, yet the run emits its JSON line and report.json
    f = write_json(tmp_path, "unobs.json",
                   {"A": [["1", "0"], ["0", "1"]], "b": ["1", "0"], "c": ["1", "0"]})
    out = tmp_path / "out"
    code = main(["certify", str(f), "--property", "kpos", "--k", "2", "--target", target,
                 "--out", str(out)])
    assert code == 2
    streams = capsys.readouterr()
    assert json.loads(streams.out) == {"property": "strictly 2-positive",
                                       "conclusion": "inconclusive"}
    assert "inconclusive: observability matrix has rank 1 < 2" in streams.err
    report = json.loads((out / "report.json").read_text())
    assert report["certificate"] == {
        "property": "strictly 2-positive", "target": name, "conclusion": "inconclusive",
        "common_sign": None, "horizon": 50, "systems": [],
        "notes": ["observability matrix has rank 1 < 2"]}
    assert report["traces"] == [] and report["environment"]["target"] == target


@pytest.mark.parametrize("target, name", [("obsv", "observability"),
                                          ("ctrb", "controllability"), ("hankel", "hankel")])
def test_unobservable_vector_of_the_target_falls_back_under_its_name(tmp_path, capsys,
                                                                     target, name):
    """Each --target reads its own vectors: a degenerate c leaves the pair
    unobservable under obsv and hankel, a degenerate b under ctrb and hankel."""
    A = [["0.5", "0"], ["0", "0.25"]]
    degenerate, observable = ["1", "0"], ["1", "1"]
    for vector in ("b", "c"):
        other = "c" if vector == "b" else "b"
        f = write_json(tmp_path, f"{vector}.json", {"A": A, vector: degenerate, other: observable})
        out = tmp_path / vector
        code = main(["certify", str(f), "--property", "kpos", "--k", "1", "--target", target,
                     "--out", str(out)])
        cert = json.loads((out / "report.json").read_text())["certificate"]
        assert cert["target"] == name
        if vector in {"obsv": ("c",), "ctrb": ("b",), "hankel": ("b", "c")}[target]:
            assert code == 2 and cert["notes"] == ["observability matrix has rank 1 < 2"]
            assert capsys.readouterr().err == "inconclusive: observability matrix has rank 1 < 2\n"
        else:
            assert code == 0 and cert["conclusion"] == "certified", cert
            assert capsys.readouterr().err == ""


def test_section_refuted_vb_report_lists_no_systems(tmp_path, capsys):
    """Exact vb refuted by its section O_4 reports no systems and removes the
    traces.csv of an earlier run; float mode judges no section."""
    out = tmp_path / "out"
    example2 = str(fixture_path("example2"))
    assert main(["certify", example2, "--property", "svb", "--k", "2", "--out", str(out)]) == 0
    assert (out / "traces.csv").exists()
    assert main(["certify", example2, "--property", "vb", "--k", "1", "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    cert = report["certificate"]
    assert (cert["conclusion"], cert["systems"], cert["common_sign"]) == ("refuted", [], None)
    assert len(cert["notes"]) == 1 and cert["notes"][0].startswith("section O_4 is not VB_0 ")
    assert report["traces"] == [] and sorted(p.name for p in out.iterdir()) == ["report.json"]
    assert main(["certify", example2, "--property", "vb", "--k", "1", "--arith", "float",
                 "--out", str(out)]) == 2
    assert json.loads((out / "report.json").read_text())["traces"] == ["traces.csv"]


def test_section_refuted_controllability_note_names_c_n_plus_1(tmp_path, capsys):
    """A controllability certificate judges the section O_(n+1) of (A^T, b),
    which is C_(n+1)^T of (A, b): its note names C_6^T on example3 (n = 5),
    alone and as the Hankel factor, while the observability factor keeps
    O_6."""
    out = tmp_path / "out"
    argv = ["certify", str(fixture_path("example3")), "--property", "vb", "--k", "1",
            "--out", str(out), "--target"]
    assert main(argv + ["ctrb"]) == 1
    report = json.loads((out / "report.json").read_text())
    cert = report["certificate"]
    assert (cert["target"], cert["conclusion"], cert["systems"]) == \
        ("controllability", "refuted", [])
    assert len(cert["notes"]) == 1 and cert["notes"][0].startswith("section C_6^T is not VB_0 ")
    assert report["traces"] == [] and sorted(p.name for p in out.iterdir()) == ["report.json"]
    assert main(argv + ["hankel"]) == 2
    cert = json.loads((out / "report.json").read_text())["certificate"]
    assert cert["controllability"]["notes"][0].startswith("section C_6^T is not VB_0 ")
    assert cert["observability"]["notes"][0].startswith("section O_6 is not VB_0 ")


def test_inactive_mode_note_names_a_horizon_too_short_for_the_recurrence(tmp_path, capsys,
                                                                           monkeypatch):
    """beta = {3} of this triangular A traces only its modes 1/4 and 1/8: the
    dominant mode 1/2 has zero residue.  The exact real modes of A's simple
    spectrum drop that mode (a root of gcd(p, q)) and certify at a horizon
    of 4.  With that rung off, the recurrence fit needs n + L = 5 samples,
    which a horizon of 4 does not give; a horizon of 5 certifies by the fit.
    The signs of A_12, A_23 and A_13 form a cycle that no signature makes
    nonnegative, so no sign-pattern proof steps in.  diag(1/2, 1/4), whose
    beta = {2} has the same inactive dominant mode, is proved by its sign
    pattern at a horizon of 2."""
    f = write_json(tmp_path, "inactive.json", {
        "A": [["0.5", "0.25", "-0.25"], ["0", "0.25", "0.25"], ["0", "0", "0.125"]],
        "c": ["0.5", "2", "2"]})
    out = tmp_path / "out"
    argv = ["certify", str(f), "--property", "svb", "--k", "1", "--out", str(out), "--horizon"]
    assert main(argv + ["4"]) == 0
    system = json.loads((out / "report.json").read_text())["certificate"]["systems"][2]
    assert system["beta"] == [3] and system["notes"] == [
        "tail by exact real modes: every sample from t=1 on has sign +1"]
    monkeypatch.setattr(varsign.lti, "_real_mode_tail", lambda *args: None)
    assert main(argv + ["4"]) == 2
    system = json.loads((out / "report.json").read_text())["certificate"]["systems"][2]
    assert system["beta"] == [3] and system["notes"] == [
        "dominant mode has zero residue; no recurrence "
        "fit: the horizon 4 is shorter than the n + L = 5 samples it needs"]
    assert main(argv + ["5"]) == 0
    monkeypatch.undo()
    diagonal = write_json(tmp_path, "diagonal.json", {"A": [["0.5", "0"], ["0", "0.25"]],
                                                      "c": ["1", "1"]})
    assert main(["certify", str(diagonal), "--property", "svb", "--k", "1", "--out", str(out),
                 "--horizon", "2"]) == 0
    system = json.loads((out / "report.json").read_text())["certificate"]["systems"][1]
    assert system["beta"] == [2] and system["tail_start"] == 1 and system["notes"] == [
        "tail by sign pattern: every sample is 0 or of sign +1; no sample is 0"]


def test_certify_missing_vector_is_input_error(tmp_path, capsys):
    f = write_json(tmp_path, "noc.json", {"A": [["1"]], "b": ["1"]})
    assert main(["certify", str(f), "--property", "svb", "--k", "1",
                 "--out", str(tmp_path / "out")]) == 3
    capsys.readouterr()
    assert main(["certify", str(f), "--property", "svb", "--k", "1", "--target",
                 "hankel", "--out", str(tmp_path / "out2")]) == 3


def test_certify_nonstrict_is_input_error_outside_kpos(tmp_path, capsys):
    for prop in ("svb", "vb", "vd"):
        # rejected before the file is read: the path does not exist
        code = main(["certify", str(tmp_path / "absent.json"), "--property", prop,
                     "--k", "1", "--nonstrict", "--out", str(tmp_path / prop)])
        assert code == 3
        assert "--nonstrict applies to --property kpos only" in capsys.readouterr().err
        assert not (tmp_path / prop).exists()


# case -> (system file payload, or a fixture name, or None for a missing
# file; options after --property svb; the one stderr line, or its start)
_MALFORMED_CERTIFY = {
    "k 0": ("example1", ["--k", "0"], "error: need 1 <= k <= n, got k=0, n=3\n"),
    "k past n": ("example1", ["--k", "4"], "error: need 1 <= k <= n, got k=4, n=3\n"),
    "bare matrix": ({"matrix": [["1", "2"], ["3", "4"]]}, ["--k", "1"],
                    "input error: certify needs a system file with A\n"),
    "obsv without c": ({"A": [["0.5", "0"], ["0", "0.25"]], "b": ["1", "1"]},
                       ["--k", "1", "--target", "obsv"],
                       "input error: observability target needs c\n"),
    "ctrb without b": ({"A": [["0.5", "0"], ["0", "0.25"]], "c": ["1", "1"]},
                       ["--k", "1", "--target", "ctrb"],
                       "input error: controllability target needs b\n"),
    "hankel without b": ({"A": [["0.5", "0"], ["0", "0.25"]], "c": ["1", "1"]},
                         ["--k", "1", "--target", "hankel"],
                         "input error: hankel target needs both b and c\n"),
    "non-square A": ({"A": [["1", "2", "3"], ["3", "4", "5"]], "c": ["1", "1"]}, ["--k", "1"],
                     "input error: A must be square\n"),
    "c too long": ({"A": [["1", "2"], ["3", "4"]], "c": ["1", "1", "1"]}, ["--k", "1"],
                   "input error: c length does not match A\n"),
    "b too short": ({"A": [["1", "2"], ["3", "4"]], "b": ["1"], "c": ["1", "1"]}, ["--k", "1"],
                    "input error: b length does not match A\n"),
    "empty row": ({"A": [["1", "2"], []], "c": ["1", "1"]}, ["--k", "1"],
                  "input error: A has an empty row\n"),
    "ragged rows": ({"A": [["1", "2"], ["3"]], "c": ["1", "1"]}, ["--k", "1"],
                    "input error: bad A: ragged rows\n"),
    "empty c": ({"A": [["1", "2"], ["3", "4"]], "c": []}, ["--k", "1"],
                "input error: c must be a non-empty list\n"),
    "top-level list": ([["1", "2"], ["3", "4"]], ["--k", "1"],
                       "input error: top level must be an object\n"),
    "unreadable path": (None, ["--k", "1"], "input error: cannot read "),
}


@pytest.mark.parametrize("case", _MALFORMED_CERTIFY)
def test_malformed_certify_runs_exit_3_with_one_line_and_no_report(tmp_path, capsys, case):
    system, options, message = _MALFORMED_CERTIFY[case]
    if system is None:
        f = tmp_path / "absent.json"
    elif isinstance(system, str):
        f = fixture_path(system)
    else:
        f = write_json(tmp_path, "system.json", system)
    out = tmp_path / "out"
    code = main(["certify", str(f), "--property", "svb", *options, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1, captured.err
    assert not out.exists()


def test_certify_without_out_writes_varsign_out(tmp_path, capsys, monkeypatch):
    """certify's --out defaults to varsign_out in the working directory, and
    the other commands write nothing without one."""
    f = str(fixture_path("example1"))
    monkeypatch.chdir(tmp_path)
    assert main(["check-matrix", f, "--property", "sc", "--k", "1"]) == 1
    assert main(["oracle", f, "--k", "1", "--trials", "5"]) == 0
    assert list(tmp_path.iterdir()) == []
    assert main(["certify", f, "--property", "kpos", "--k", "2"]) == 0
    assert main(["certify", f, "--property", "kpos", "--k", "2", "--out", "explicit"]) == 0
    default, explicit = tmp_path / "varsign_out", tmp_path / "explicit"
    assert sorted(p.name for p in default.iterdir()) == ["report.json", "traces.csv"]
    for name in ("report.json", "traces.csv"):
        assert (default / name).read_bytes() == (explicit / name).read_bytes()


def test_certify_hankel_target(tmp_path, capsys):
    f = write_json(tmp_path, "pos.json", {
        "A": [["0.5", "0"], ["0.25", "0.2"]], "b": ["1", "1"], "c": ["1", "1"]})
    out = tmp_path / "h"
    code = main(["certify", str(f), "--property", "svb", "--k", "1",
                 "--target", "hankel", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["certificate"]["target"] == "hankel"
    # both factors' traces share the one file, told apart by their target
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "traces.csv"]
    assert report["traces"] == ["traces.csv"]
    blocks = trace_blocks(out / "traces.csv")
    assert len(blocks) == 4
    assert {target for target, _, _ in blocks} == {"observability", "controllability"}
    assert sorted(blocks) == sorted(report_trace_labels(report))


def test_traces_hold_one_block_per_system_at_n12(tmp_path, capsys):
    # beta (12) at order 1 and beta (1, 2) at order 2 once named one file
    n = 12
    A = [[f"0.{95 - 7 * i:02d}" if i == j else "0" for j in range(1, n + 1)]
         for i in range(1, n + 1)]
    f = write_json(tmp_path, "diag12.json", {"A": A, "c": ["1"] * n})
    out = tmp_path / "out"
    assert main(["certify", str(f), "--property", "vd", "--k", "2", "--out", str(out)]) == 0
    labels = report_trace_labels(json.loads((out / "report.json").read_text()))
    assert len(labels) == 54
    blocks = trace_blocks(out / "traces.csv")
    assert sorted(blocks) == sorted(labels)
    assert ("observability", 1, "12") in blocks and ("observability", 2, "1 2") in blocks


def test_reused_out_holds_only_the_current_run(tmp_path, capsys):
    out = tmp_path / "out"
    example1 = str(fixture_path("example1"))
    unobservable = write_json(tmp_path, "unobs.json",
                              {"A": [["1", "0"], ["0", "1"]], "c": ["1", "0"]})
    certify_k1 = (["certify", example1, "--property", "svb", "--k", "1"], 0, True)
    # every run that has no systems follows one that wrote traces.csv
    runs = [
        (["certify", example1, "--property", "svb", "--k", "3"], 1, True),
        certify_k1,
        (["check-matrix", example1, "--property", "sc", "--k", "1"], 1, False),
        certify_k1,
        (["oracle", example1, "--k", "1", "--trials", "20"], 0, False),
        certify_k1,
        (["certify", str(unobservable), "--property", "svb", "--k", "1"], 2, False),
    ]
    for argv, code, traced in runs:
        assert main(argv + ["--out", str(out)]) == code, argv
        report = json.loads((out / "report.json").read_text())
        files = sorted(p.name for p in out.iterdir())
        if traced:
            assert files == ["report.json", "traces.csv"], argv
            assert report["traces"] == ["traces.csv"]
            labels = report_trace_labels(report)
            assert sorted(trace_blocks(out / "traces.csv")) == sorted(labels), argv
        else:
            assert files == ["report.json"] and report["traces"] == [], argv


def _out_files(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_reused_out_matches_fresh_out_byte_for_byte(tmp_path, capsys):
    """Long, short, none, long: each run into one reused --out leaves the
    bytes a run into a fresh directory leaves, so a rewrite over a longer
    file is cut to length and no old byte survives."""
    example1 = str(fixture_path("example1"))
    runs = [
        ["certify", example1, "--property", "vd", "--k", "2"],
        ["certify", example1, "--property", "svb", "--k", "1"],
        ["check-matrix", example1, "--property", "sc", "--k", "1"],
        ["certify", example1, "--property", "kpos", "--k", "2"],
    ]
    reused, sizes = tmp_path / "reused", []
    for i, argv in enumerate(runs):
        fresh = tmp_path / f"fresh{i}"
        assert main(argv + ["--out", str(reused)]) == main(argv + ["--out", str(fresh)]), argv
        want = _out_files(fresh)
        assert _out_files(reused) == want, argv
        assert sorted(want) == (["report.json", "traces.csv"] if i != 2 else ["report.json"])
        sizes.append({name: len(data) for name, data in want.items()})
    # the second run writes both files over longer ones
    assert all(sizes[1][name] < sizes[0][name] for name in sizes[1])


def test_reused_out_makes_no_directory_and_removes_only_a_left_trace(tmp_path, capsys,
                                                                    monkeypatch):
    """A run into an existing --out calls no ``os.mkdir``, and ``os.unlink``
    only to remove the traces.csv that an earlier certify left; both would
    otherwise raise and catch inside pathlib on every reused --out."""
    calls, real = [], {name: getattr(os, name) for name in ("mkdir", "unlink")}

    def recording(name):
        return lambda path, *args, **kwargs: (calls.append((name, Path(path).name))
                                              or real[name](path, *args, **kwargs))

    for name in real:
        monkeypatch.setattr(os, name, recording(name))
    out, example1 = tmp_path / "out", str(fixture_path("example1"))
    check = ["check-matrix", example1, "--property", "sc", "--k", "1", "--out", str(out)]
    assert main(check) == 1
    assert calls == [("mkdir", "out")]
    calls.clear()
    assert main(check) == 1
    assert calls == []
    assert main(["certify", example1, "--property", "svb", "--k", "1", "--out", str(out)]) == 0
    assert calls == [] and (out / "traces.csv").exists()
    assert main(check) == 1
    assert calls == [("unlink", "traces.csv")] and not (out / "traces.csv").exists()
    calls.clear()
    assert main(["oracle", example1, "--k", "1", "--trials", "20", "--out", str(out)]) == 0
    assert calls == []


def test_oracle_on_a_with_no_c_is_certifys_input_error(tmp_path, capsys):
    """A file with A and b but no c is no operator the oracle can search: it
    exits 3 with certify's one line and writes no --out; a bare matrix is
    still searched as a matrix, also beside an A with no c."""
    no_c = write_json(tmp_path, "no_c.json", {"A": [["0.5", "0"], ["0", "0.25"]],
                                              "b": ["1", "1"]})
    out = tmp_path / "out"
    argv = ["--k", "1", "--trials", "5", "--out", str(out)]
    assert main(["oracle", str(no_c), *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "input error: observability target needs c\n"
    assert not out.exists()
    assert main(["certify", str(no_c), "--property", "svb", "--k", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err == captured.err
    matrix = [["1", "2"], ["3", "4"]]
    for payload in ({"matrix": matrix}, {"matrix": matrix, "A": matrix, "b": ["1", "1"]}):
        f = write_json(tmp_path, "bare.json", payload)
        main(["oracle", str(f), *argv])
        assert json.loads(capsys.readouterr().out)["kind"] == "matrix"


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_report_gets_the_mode_write_text_gives(tmp_path, capsys, umask):
    old = os.umask(umask)
    try:
        reference = tmp_path / "reference"
        reference.write_text("")
        assert main(["certify", str(fixture_path("example1")), "--property", "svb", "--k", "1",
                     "--out", str(tmp_path / "out")]) == 0
    finally:
        os.umask(old)
    want = stat.S_IMODE(reference.stat().st_mode)
    assert want == 0o666 & ~umask
    for name in ("report.json", "traces.csv"):
        assert stat.S_IMODE((tmp_path / "out" / name).stat().st_mode) == want, name


def test_report_symlink_is_written_through(tmp_path, capsys):
    argv = ["certify", str(fixture_path("example1")), "--property", "svb", "--k", "1", "--out"]
    assert main(argv + [str(tmp_path / "fresh")]) == 0
    out, target = tmp_path / "out", tmp_path / "elsewhere.json"
    out.mkdir()
    target.write_text("x" * 5000)
    (out / "report.json").symlink_to(target)
    assert main(argv + [str(out)]) == 0
    assert (out / "report.json").is_symlink()
    assert target.read_bytes() == (tmp_path / "fresh" / "report.json").read_bytes()


def test_report_symlink_to_a_device_is_written_through(tmp_path, capsys):
    """O_TRUNC leaves a device alone, and so does the rewrite: /dev/null
    takes the report and cannot be cut to length."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").symlink_to(os.devnull)
    assert main(["check-matrix", str(fixture_path("pena")), "--property", "ssc", "--k", "2",
                 "--out", str(out)]) == 0


def test_directory_named_report_json_is_an_input_error(tmp_path, capsys):
    # a read-only report.json would prove nothing here: the tests may run as
    # root, whom file permissions do not stop
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    assert main(["check-matrix", str(fixture_path("pena")), "--property", "ssc", "--k", "2",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / 'report.json'}: ")
    assert err.count("\n") == 1


def test_outputs_are_opened_without_o_trunc(tmp_path, capsys, monkeypatch):
    """Every output file is opened through ``os.open`` and none with O_TRUNC,
    which would cut the file to zero before it is refilled."""
    out, opened, real_open = tmp_path / "out", {}, os.open

    def recording_open(path, flags, *args, **kwargs):
        if Path(path).parent == out:
            opened[Path(path).name] = flags
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    for _ in range(2):  # files created, then rewritten
        opened.clear()
        assert main(["certify", str(fixture_path("example1")), "--property", "svb", "--k", "1",
                     "--out", str(out)]) == 0
        assert sorted(opened) == ["report.json", "traces.csv"]
        assert not any(flags & os.O_TRUNC for flags in opened.values()), opened


def test_no_truncating_path_writes_in_the_package():
    """``Path.write_text`` and ``write_bytes`` truncate before they write; an
    output file written with them would bring that cost back."""
    package = Path(varsign.io.__file__).parent
    calls = [f"{source.name}:{node.lineno}"
             for source in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(source.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in ("write_text", "write_bytes")]
    assert calls == []


def test_oracle_cli_reproducible(tmp_path, capsys):
    code = main(["oracle", str(fixture_path("example1")), "--k", "2",
                 "--trials", "300", "--seed", "9"])
    first = capsys.readouterr().out
    assert code == 0
    assert main(["oracle", str(fixture_path("example1")), "--k", "2",
                 "--trials", "300", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_oracle_cli_finds_witness(tmp_path, capsys):
    code = main(["oracle", str(fixture_path("example2")), "--k", "1",
                 "--trials", "500", "--seed", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["violations"]


def test_oracle_cli_matrix_file(tmp_path, capsys):
    f = write_json(tmp_path, "m.json",
                   {"matrix": [["1", "-1"], ["-1", "1"], ["1", "-1"]]})
    assert main(["oracle", str(f), "--k", "1", "--trials", "300", "--seed", "0"]) == 1


def test_oracle_default_horizon_follows_state_dimension(tmp_path, capsys):
    # y(t) = x1 - 0.9^(t-1) x2 changes sign late when x2 >> x1 > 0; some
    # sampled states only do so between t = 51 and t = 60
    diag = ["1", "0.9", "0.5", "0.5", "0.5", "0.5"]
    f = write_json(tmp_path, "six.json", {
        "A": [[diag[i] if i == j else "0" for j in range(6)] for i in range(6)],
        "c": ["1", "-1", "0", "0", "0", "0"]})
    out = tmp_path / "out"
    assert main(["oracle", str(f), "--k", "1", "--trials", "200", "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().out)
    sf = load_system_file(f)
    sampled = [asdict(v) for v in falsify_operator_vb(sf.A, sf.c, 1, 60, 200).violations]
    assert payload["violations"] == json.loads(json.dumps(sampled))
    assert len(falsify_operator_vb(sf.A, sf.c, 1, 50, 200).violations) < len(sampled)
    assert json.loads((out / "report.json").read_text())["environment"]["horizon"] == 60


@pytest.mark.parametrize("kind", ["operator", "matrix"])
def test_oracle_payload_bytes_match_asdict_reference(tmp_path, capsys, kind):
    """stdout and report.json of a run with many violations are the bytes
    that the payload built with ``dataclasses.asdict`` gives."""
    f = fixture_path("example2")
    if kind == "matrix":  # a zero column: strict-only violations
        f = write_json(tmp_path, "zero.json", {"matrix": [["1", "0"], ["1", "0"], ["1", "0"]]})
    out = tmp_path / "out"
    assert main(["oracle", str(f), "--k", "1", "--seed", "3", "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    env = json.loads((out / "report.json").read_text())["environment"]
    sf = load_system_file(f, Backend.FLOAT)
    report = (falsify_operator_vb(sf.A, sf.c, 1, env["horizon"], 1000, 3) if kind == "operator"
              else falsify_matrix_vb(sf.matrix, 1, 1000, 3))
    assert len(report.violations) >= 50
    reference = {"kind": kind, "k": 1, "trials": 1000, "seed": 3,
                 "violations": [asdict(v) for v in report.violations],
                 "suspect_trials": report.suspects}
    assert stdout == json.dumps(reference) + "\n"
    written = varsign.io.write_report(tmp_path / "reference", reference, env)
    assert (out / "report.json").read_bytes() == written.read_bytes()


def test_oracle_report_records_float_arithmetic(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["oracle", str(fixture_path("example1")), "--k", "2", "--trials", "20",
                 "--arith", "exact", "--out", str(out)]) == 0
    env = json.loads((out / "report.json").read_text())["environment"]
    assert env["arith"] == "float" and env["horizon"] == 50 and env["trials"] == 20


@pytest.mark.parametrize("argv", [
    ["certify", "--property", "svb", "--k", "2", "--horizon", "0"],
    ["certify", "--property", "vd", "--k", "2", "--horizon", "-3"],
    ["certify", "--property", "svb", "--k", "2", "--tol=-1e-9"],
    ["certify", "--property", "svb", "--k", "2", "--tol", "nan"],
    ["oracle", "--k", "2", "--horizon", "0"],
    ["oracle", "--k", "2", "--horizon", "-3"],
    ["oracle", "--k", "0"],
    ["oracle", "--k", "4"],
    ["oracle", "--k", "2", "--trials", "0"],
    ["oracle", "--k", "2", "--trials", "-5"],
    ["oracle", "--k", "1", "--seed", "-1"],
    ["oracle", "--k", "2", "--tol", "inf"],
    ["check-matrix", "--property", "sc", "--k", "1", "--tol=-1"],
    ["check-matrix", "--property", "vb", "--k", "1", "--tol=-inf"],
])
def test_out_of_range_arguments_are_input_errors(tmp_path, capsys, argv):
    command, *options = argv
    code = main([command, str(fixture_path("example2")), *options, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["certify", "--property", "svb", "--k", "abc"],
    ["check-matrix", "--property", "zz", "--k", "2"],
    ["certify", "--k", "2"],
    ["oracle", "--k", "1.5"],
])
def test_usage_errors_are_input_errors(tmp_path, capsys, argv):
    """argparse's usage errors exit 3, not its own 2, which means inconclusive."""
    command, *options = argv
    with pytest.raises(SystemExit) as exc:
        main([command, str(fixture_path("example2")), *options, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert exc.value.code == 3
    assert captured.out == ""
    assert captured.err.startswith(f"usage: varsign {command}")
    assert f"varsign {command}: error: " in captured.err


@pytest.mark.parametrize("k, code", [(0, 3), (3, 3), (1, 1), (2, 1)])
def test_oracle_matrix_order_ranges_over_columns(tmp_path, capsys, k, code):
    f = write_json(tmp_path, "m.json",
                   {"matrix": [["1", "-1"], ["-1", "1"], ["1", "-1"]]})
    assert main(["oracle", str(f), "--k", str(k), "--trials", "50"]) == code


@pytest.mark.parametrize("k", [0, 4])
@pytest.mark.parametrize("fixture, name, size", [("example1", "n", 3), ("pena", "cols", 2)])
def test_oracle_order_outside_its_range_prints_the_kernel_line(tmp_path, capsys, fixture,
                                                               name, size, k):
    out = tmp_path / "out"
    code = main(["oracle", str(fixture_path(fixture)), "--k", str(k), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"error: need 1 <= k <= {name}, got k={k}, {name}={size}\n"
    assert not out.exists()


def _refuse(*args, **kwargs):
    raise LinalgError("kernel refused")


@pytest.mark.parametrize("command, module, kernel, options", [
    ("check-matrix", cli, "sign_consistent", ["--property", "sc"]),
    ("certify", varsign.obsv, "_OperatorContext", ["--property", "svb"]),
    ("oracle", varsign.oracle, "_search", []),
])
def test_kernel_refusal_exits_3_with_one_line_and_no_report(tmp_path, capsys, monkeypatch,
                                                            command, module, kernel, options):
    """``main`` maps a ``LinalgError`` from any command's kernel to exit 3."""
    monkeypatch.setattr(module, kernel, _refuse)
    out = tmp_path / "out"
    code = main([command, str(fixture_path("example1")), "--k", "1", *options,
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", "error: kernel refused\n")
    assert not out.exists()


def test_float_entries_warn(tmp_path, capsys):
    f = write_json(tmp_path, "warn.json", {"matrix": [[1.5, 1.0], [1.0, 2.0]]})
    assert main(["check-matrix", str(f), "--property", "sc", "--k", "1"]) == 0
    assert "warning" in capsys.readouterr().err


_FLOAT_WARNING = "warning: float entries in input file; decimal strings are exact\n"


def test_entries_convert_exactly_and_round_once(tmp_path, capsys):
    """String, int and float entries: their exact values in exact mode, and in
    float mode the float the value rounds to, bit for bit; a float entry keeps
    its own bits, -0.0 included.  The float warning is printed once per file."""
    entries = ["0.1", "-7/3", "9007199254740993", "1e-320", 3, 2 ** 53 + 1, -(10 ** 30),
               0.1, -2.5e-300, -0.0, 1e308]
    want = [float("0.1"), -7 / 3, 2.0 ** 53, 1e-320, 3.0, 2.0 ** 53, -1e30,
            0.1, -2.5e-300, -0.0, 1e308]
    f = write_json(tmp_path, "m.json", {"matrix": [entries], "c": [1.5] * len(entries)})
    exact = load_system_file(f, Backend.EXACT).matrix.data[0]
    assert capsys.readouterr().err == _FLOAT_WARNING
    assert exact == tuple(Fraction(e) for e in entries)
    assert {type(x) for x in exact} == {Fraction}
    floats = load_system_file(f, Backend.FLOAT).matrix.data[0]
    assert capsys.readouterr().err == _FLOAT_WARNING
    assert [x.hex() for x in floats] == [x.hex() for x in want]
    f = write_json(tmp_path, "m.json", {"matrix": [entries[:7]]})
    load_system_file(f, Backend.FLOAT)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("entry, backend, message", [
    ("'0.1.2'", Backend.EXACT, "cannot parse entry '0.1.2' as a decimal"),
    ("'nan'", Backend.FLOAT, "cannot parse entry 'nan' as a decimal"),
    ("true", Backend.EXACT, "entry True is not a number or decimal string"),
    ("null", Backend.FLOAT, "entry None is not a number or decimal string"),
    ("[1]", Backend.EXACT, "entry [1] is not a number or decimal string"),
    ("NaN", Backend.EXACT, "entry nan is not a finite number"),
    ("-Infinity", Backend.FLOAT, "entry -inf is not a finite number"),
    ("'1e400'", Backend.FLOAT, "entry '1e400' is beyond float range"),
    ("1" + "0" * 400, Backend.FLOAT,
     "entry 1000000000000000000000000000000000000000... (401 characters) is beyond float range"),
])
def test_entry_errors_name_the_entry(tmp_path, capsys, entry, backend, message):
    f = tmp_path / "bad.json"
    f.write_text('{"matrix": [["1", %s]]}' % entry.replace("'", '"'))
    with pytest.raises(varsign.io.InputFileError) as err:
        load_system_file(f, backend)
    assert str(err.value) == message
    assert capsys.readouterr().err == ""


def test_render_value_decimals():
    assert render_value(Fraction(157, 200)) == "0.785"
    assert render_value(Fraction(-79, 40)) == "-1.975"
    assert render_value(Fraction(3)) == "3"
    assert render_value(Fraction(1, 3)) == "1/3"
    assert render_value(0.5) == "0.5"


def _render_value_reference(x) -> str:
    """render_value as it was when it stripped each factor 2 by a division."""
    if isinstance(x, Fraction):
        den = x.denominator
        twos = fives = 0
        while den % 2 == 0:
            den //= 2
            twos += 1
        while den % 5 == 0:
            den //= 5
            fives += 1
        if den == 1:
            digits = max(twos, fives)
            if digits == 0:
                return str(x.numerator)
            scaled = x.numerator * 10 ** digits // x.denominator
            sign = "-" if scaled < 0 else ""
            body = str(abs(scaled)).rjust(digits + 1, "0")
            return f"{sign}{body[:-digits]}.{body[-digits:]}"
        return f"{x.numerator}/{x.denominator}"
    return repr(x)


def test_render_value_matches_division_reference_on_exact_samples(monkeypatch):
    rng = random.Random(9201)
    values = []
    for _ in range(6):  # denominators with only 2s, from p/q entries with q <= 2
        A, c = observable_pair(rng, 3)
        b = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3))
        values += impulse_response(LtiSystem(A, b, c), 50)
    fifths = Matrix.exact([["0.2", "-0.4", "0"], ["0.6", "0.2", "-0.8"], ["0", "0.4", "0.2"]])
    values += impulse_response(LtiSystem(fifths, ("1", "-0.2", "3"), ("0.4", "1", "-1")), 70)
    decimal = Matrix.exact([["0.7", "0.6", "-2"], ["0.15", "0.15", "-0.25"], ["0", "0.03", "0.1"]])
    values += impulse_response(LtiSystem(decimal, ("1", "-0.5", "0.25"), ("1.1", "0.1", "-5.5")), 70)
    values += [Fraction(0), Fraction(-7), Fraction(1, 3), Fraction(-5, 12), Fraction(7, 30),
               Fraction(-3, 1 << 40), Fraction(9, 5 ** 30), 0.1, -2.5]

    def only(den, primes):
        for p in primes:
            while den % p == 0:
                den //= p
        return den == 1
    dens = [v.denominator for v in values if isinstance(v, Fraction)]
    assert any(v < 0 for v in values) and any(d == 1 for d in dens)
    assert any(d > 1 and only(d, (2,)) for d in dens)
    assert any(d > 1 and only(d, (5,)) for d in dens)
    assert any(d % 10 == 0 and only(d, (2, 5)) for d in dens)
    assert any(not only(d, (2, 5)) for d in dens)
    # edge cases of reading the power of 5 off the bit length of the odd
    # part: every power up to 5^2000 (each a bit length of its own), the odd
    # multiples of 5 at both ends of every bit length they reach, mixed
    # 2^a 5^b, and denominators with other odd factors, which stay p/q
    for f in range(2001):
        values.append(Fraction(1 if f % 7 else -3, 5 ** f))
    for bits in range(3, (5 ** 2000).bit_length() + 2):
        low = -(-(1 << (bits - 1)) // 5)  # smallest multiple of 5 with this bit length
        high = ((1 << bits) - 1) // 5
        values += [Fraction(1, 5 * (low | 1)), Fraction(1, 5 * (high - 1 + high % 2))]
    for a, b in ((0, 3), (1, 7), (5, 40), (12, 300), (3, 0), (9, 2), (60, 7), (700, 150)):
        values += [Fraction(7, 2 ** a * 5 ** b), Fraction(-1, 2 ** a * 5 ** b)]
    for f in (1, 2, 10, 97, 500):
        values += [Fraction(1, 3 * 5 ** f), Fraction(2, 7 * 2 ** f), Fraction(1, 5 ** f + 2)]
    values += [Fraction(0), Fraction(-12), Fraction(5 ** 40), Fraction(-(2 ** 90)),
               0.1, -1e-300, 3.0, 1 / 3]
    for v in values:
        assert render_value(v) == _render_value_reference(v), v
    assert render_value(Fraction(1, 3 * 5 ** 10)) == f"1/{3 * 5 ** 10}"
    assert render_value(Fraction(1, 7 * 2 ** 10)) == f"1/{7 * 2 ** 10}"
    assert render_value(Fraction(1, 5 ** 3)) == "0.008"
    assert render_value(1 / 3) == repr(1 / 3)
    # a power of 5 is found even where the estimate from the bit length is off
    powers = [Fraction(1, 5 ** f) for f in range(0, 2001, 37)]
    for log2_5 in (2.2, 2.45):
        monkeypatch.setattr(varsign.io, "_LOG2_5", log2_5)
        for v in powers:
            assert render_value(v) == _render_value_reference(v), (log2_5, v)


def _write_traces_reference(out_dir, per_system):
    """write_traces as it was: one file per system of csv.writer rows of
    render_value on each reduced sample."""
    for sv in per_system:
        with open(out_dir / f"trace_r{sv.r}_betafull.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([("t", "g"), *(
                (t, render_value(value)) for t, value in enumerate(tuple(sv.verdict.samples), 1))])


_TRACE_SYSTEMS = [
    # decimal denominators: D_A = 100, D_c = 10, D_b = 4
    ([["0.7", "0.6", "-2"], ["0.15", "0.15", "-0.25"], ["0", "0.03", "0.1"]],
     ("1", "-0.5", "0.25"), ("1.1", "0.1", "-5.5"), 60),
    # only 2s, and only 5s
    ([["1/2", "-3/4"], ["1/8", "1"]], ("1/8", "-1"), ("1", "3/2"), 40),
    ([["0.2", "-0.4", "0"], ["0.6", "0.2", "-0.8"], ["0", "0.4", "0.2"]],
     ("1", "-0.04", "3"), ("0.4", "1", "-1"), 40),
    # 5^3 in D_b and 2 in D_A: fewer 2s than 5s early, more later; and the mirror
    ([["0.5", "1"], ["0", "-1.5"]], ("0.008", "1"), ("1", "1"), 30),
    ([["0.2", "1"], ["0", "-1.2"]], ("0.125", "1"), ("1", "1"), 30),
    # D = 1, with negatives
    ([[2, -1, 0], [1, 0, 3], [0, -2, 1]], (1, -2, 0), (3, 1, -1), 25),
    # zero samples: a nilpotent shift with a decimal input, and a zero input
    ([[0, 0, 0], [1, 0, 0], [0, 1, "-0.5"]], ("0.25", 0, 0), (0, 0, 1), 12),
    ([["0.5", "1"], ["0", "0.25"]], (0, 0), ("0.1", "1"), 6),
    # p/q fallbacks from A, b and c
    ([["1/3", "0.5"], ["0", "0.25"]], ("1", "1"), ("1", "1"), 20),
    ([["0.5", "1"], ["0", "0.25"]], ("2/7", "1"), ("1", "0.1"), 20),
    ([["0.5", "1"], ["0", "0.25"]], ("1", "1"), ("1/3", "0.5"), 20),
    # ints beyond sys.get_int_max_str_digits()
    ([["1e400", "0"], ["1", "0.25"]], ("1", "1"), ("1", "1"), 50),
    ([["1e-400", "0"], ["1", "-0.25"]], ("1", "1"), ("1", "1"), 50),
    # one sample
    ([["0.5"]], ("0.2",), ("0.25",), 1),
]


def test_write_traces_matches_csv_writer_reference(tmp_path):
    per_system, texts = [], []
    for r, (A, b, c, N) in enumerate(_TRACE_SYSTEMS, 1):
        g = impulse_response(LtiSystem(Matrix.exact(A), b, c), N)
        per_system.append(SimpleNamespace(r=r, beta=None, verdict=SimpleNamespace(samples=g)))
        texts += [render_value(x) for x in g]
    floats = [
        LtiSystem(Matrix.floating([[1e-5, 0.0], [0.0, -0.5]]), (1.0, 1.0), (1.0, 1.0)),
        LtiSystem(Matrix.floating([[1e-5, 0.0], [0.0, 0.5]]), (1.0, 0.0), (1.0, 0.0)),
        LtiSystem(Matrix.floating([[0.5]]), (0.0,), (1.0,)),
        LtiSystem(Matrix.floating([[-1e30]]), (1.0,), (-3.0,)),
    ]
    for r, sys_f in enumerate(floats, len(per_system) + 1):
        g = impulse_response(sys_f, 8)
        per_system.append(SimpleNamespace(r=r, beta=None, verdict=SimpleNamespace(samples=g)))
        texts += [render_value(x) for x in g]
    # the cases reach every rendering path
    assert "0" in texts and "0.0" in texts
    assert any("/" in t for t in texts) and any("e-" in t for t in texts)
    assert any(t.startswith("-") for t in texts) and any("e+" in t for t in texts)
    digits = sys.get_int_max_str_digits()
    assert any(len(t) > digits for t in texts)
    got, want = tmp_path / "got", tmp_path / "want"
    got.mkdir()
    want.mkdir()
    targets = ("observability",) * len(per_system)
    assert write_traces(got, per_system, targets) == ["traces.csv"]
    assert [p.name for p in got.iterdir()] == ["traces.csv"]
    _write_traces_reference(want, per_system)
    blocks = trace_blocks(got / "traces.csv")
    assert list(blocks) == [("observability", sv.r, "full") for sv in per_system]
    for (_, r, _), rows in blocks.items():
        name = f"trace_r{r}_betafull.csv"
        assert block_bytes(rows) == (want / name).read_bytes(), name


@pytest.mark.parametrize("step", [(0, 0), (1, 1), (2, 1), (1, 2), (0, 3)])
@pytest.mark.parametrize("base", [(0, 0), (3, 0), (0, 3), (2, 5), (6, 1)])
def test_sample_texts_match_render_value(step, base):
    """The carried-scale rendering of exact samples equals ``render_value``
    on each reduced sample: numerators zero, negative, unreduced and longer
    than ``int_text``'s 2000-bit split, denominators 2^a 5^f D_A^(t-1) with
    D_A = 2^da 5^df."""
    rng = random.Random(f"{step}{base}")
    (da, df), (a, f) = step, base
    nums = [0, 1, -1, 10 ** 6, -(5 ** 40), 2 ** 2100 + 1, -(3 ** 1400), 7 * 10 ** 700]
    nums += [rng.choice((-1, 1)) * rng.getrandbits(rng.choice((3, 60, 2500))) for _ in range(40)]
    dens = tuple(2 ** (a + t * da) * 5 ** (f + t * df) for t in range(len(nums) + 3))
    for db in (1, 2 ** a, 5 ** f):
        samples = ExactSamples(tuple(nums), db, tuple(d // db for d in dens))
        texts = list(varsign.io._sample_texts(samples))
        assert texts == [render_value(x) for x in samples]
    # a factor 3 in D_A falls back to render_value, p/q literals included
    odd = ExactSamples(tuple(nums), 1, tuple(3 ** t * d for t, d in enumerate(dens)))
    assert list(varsign.io._sample_texts(odd)) == [render_value(x) for x in odd]


def test_sample_texts_of_floats_are_their_repr():
    g = (-0.0, 0.0, math.inf, -math.inf, math.nan, 1e-300, -2.5e300, 0.1, 1.0)
    assert list(varsign.io._sample_texts(g)) == [render_value(x) for x in g]
    assert list(varsign.io._sample_texts(g))[:5] == ["-0.0", "0.0", "inf", "-inf", "nan"]


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", '"1e400"'])
@pytest.mark.parametrize("command", [
    ["certify", "--property", "svb", "--k", "1", "--arith", "float"],
    ["oracle", "--k", "1", "--trials", "5"],
])
def test_float_mode_rejects_nonfinite_entries(tmp_path, capsys, entry, command):
    f = tmp_path / "bad.json"
    f.write_text('{"A": [["0.5", "0"], ["0", "0.25"]], "b": ["1", "1"], "c": [%s, "1"]}' % entry)
    assert main(command[:1] + [str(f)] + command[1:] + ["--out", str(tmp_path / "o")]) == 3
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["A", "c"])
@pytest.mark.parametrize("command", [
    ["certify", "--property", "svb", "--k", "1", "--arith", "float"],
    ["check-matrix", "--property", "sc", "--k", "1", "--arith", "float"],
    ["oracle", "--k", "1", "--trials", "5"],
])
def test_float_mode_rejects_integers_beyond_float_range(tmp_path, capsys, command, where):
    system = {"A": [["0.5", "0"], ["0", "0.25"]], "b": ["1", "1"], "c": ["1", "1"]}
    if where == "A":
        system["A"][0][0] = 10 ** 400
    else:
        system["c"][0] = 10 ** 400
    f = write_json(tmp_path, "big.json", system)
    assert main(command[:1] + [str(f)] + command[1:] + ["--out", str(tmp_path / "o")]) == 3
    assert "beyond float range" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [str(10 ** 400), '"%s"' % ("7" * 4000)],
                         ids=["bare_int", "string"])
def test_long_entries_are_echoed_short(tmp_path, capsys, entry):
    f = tmp_path / "long.json"
    f.write_text('{"A": [[%s, "0"], ["0", "0.25"]], "c": ["1", "1"]}' % entry)
    assert main(["certify", str(f), "--property", "svb", "--k", "1", "--arith", "float",
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "beyond float range" in err
    assert all(len(line) < 200 for line in err.splitlines())


def test_integers_past_the_digit_limit_are_input_errors(tmp_path, capsys):
    # json.loads refuses integer literals longer than sys.get_int_max_str_digits()
    f = tmp_path / "huge.json"
    f.write_text('{"A": [[%s, "0"], ["0", "1"]], "c": ["1", "1"]}' % ("1" * 5000))
    assert main(["certify", str(f), "--property", "svb", "--k", "1",
                 "--out", str(tmp_path / "o")]) == 3
    assert "is not valid JSON" in capsys.readouterr().err


_ENTRY_COMMANDS = [
    ["check-matrix", "--property", "sc", "--k", "1"],
    ["certify", "--property", "svb", "--k", "1"],
    ["oracle", "--k", "1", "--trials", "5"],
]


def _run_with_entry(tmp_path, command, arith, entry):
    """main's exit code on a 2 x 2 system whose A[0][0] is ``entry``."""
    f = write_json(tmp_path, "entry.json",
                   {"A": [[entry, "0"], ["1", "0.5"]], "b": ["1", "1"], "c": ["1", "1"]})
    return main(command[:1] + [str(f)] + command[1:]
                + ["--arith", arith, "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("arith", ["exact", "float"])
@pytest.mark.parametrize("command", _ENTRY_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("entry", ["1/0", "-3/0", " 0/0 "])
def test_zero_denominators_are_input_errors(tmp_path, capsys, command, arith, entry):
    assert _run_with_entry(tmp_path, command, arith, entry) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot parse entry {entry!r}: zero denominator"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("arith", ["exact", "float"])
@pytest.mark.parametrize("command", _ENTRY_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("entry", ["1e999999999", "-1e999999999", "-1e-999999999",
                                   "1E+999_999_999", "1e" + "9" * 5000])
def test_decimal_exponents_past_ten_times_the_digit_limit_are_input_errors(
        tmp_path, capsys, command, arith, entry):
    t = time.perf_counter()
    assert _run_with_entry(tmp_path, command, arith, entry) == 3
    assert time.perf_counter() - t < 1.0
    bound = 10 * sys.get_int_max_str_digits()
    assert (f"its decimal exponent exceeds {bound} in magnitude"
            in capsys.readouterr().err)


def test_decimal_exponents_up_to_ten_times_the_digit_limit_are_read(tmp_path, capsys):
    bound = 10 * sys.get_int_max_str_digits()
    for entry in ("1e400", "1e5000", f"1e{bound}", f"1e-{bound}", f"1e00{bound}"):
        assert _run_with_entry(tmp_path, _ENTRY_COMMANDS[0], "exact", entry) == 0, entry
    assert "input error" not in capsys.readouterr().err
    assert _run_with_entry(tmp_path, _ENTRY_COMMANDS[0], "exact", f"1e{bound + 1}") == 3


@pytest.mark.parametrize("command", [
    ["certify", "--property", "svb", "--k", "1"],
    ["check-matrix", "--property", "sc", "--k", "1"],
    ["oracle", "--k", "1", "--trials", "5"],
])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("")
    argv = command[:1] + [str(fixture_path("example2"))] + command[1:] + ["--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


@pytest.mark.parametrize("entry", ["NaN", "Infinity"])
def test_exact_mode_rejects_nonfinite_entries(tmp_path, capsys, entry):
    f = tmp_path / "bad.json"
    f.write_text('{"A": [["0.5", "0"], ["0", "0.25"]], "c": [%s, "1"]}' % entry)
    assert main(["certify", str(f), "--property", "svb", "--k", "1",
                 "--out", str(tmp_path / "o")]) == 3
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["A", "c"])
@pytest.mark.parametrize("prop", ["svb", "kpos"])
def test_exact_mode_handles_entries_beyond_float_range(tmp_path, capsys, where, prop):
    system = {"A": [["0.5", "0"], ["1", "0.25"]], "c": ["1", "1"]}
    if where == "A":
        system["A"][0][0] = "1e400"
    else:
        system["c"][0] = "1e400"
    f = write_json(tmp_path, "big.json", system)
    code = main(["certify", str(f), "--property", prop, "--k", "2", "--out", str(tmp_path / "o")])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["certificate"]["conclusion"] in ("certified", "refuted", "inconclusive")


_OVERFLOW_SYSTEM = {"A": [["1e200", "0", "0"], ["0", "1e100", "0"], ["0", "0", "1"]],
                    "c": ["1", "1", "1"]}
# the diagonal system's non-diagonal twin: A_12 = 1 keeps C_1(A) off the exact
# modal route, and its eigen residues overflow as the diagonal one's do in float
_OVERFLOW_TWIN = {"A": [["1e200", "1", "0"], ["0", "1e100", "0"], ["0", "0", "1"]],
                  "c": ["1", "1", "1"]}
_OVERFLOW = {"exact": _OVERFLOW_TWIN, "float": _OVERFLOW_SYSTEM}


@pytest.mark.parametrize("arith", ["exact", "float"])
@pytest.mark.parametrize("prop, want", [("svb", 2), ("vb", 2), ("vd", 2), ("kpos", 1)])
def test_residues_past_float_range_leave_the_tail_unproved(tmp_path, capsys, arith, prop, want):
    """At k = 3 the order-1 systems are read s = 2 rows late, so their eigen
    residues are scaled by (1e200)^2, past the float range: those systems
    have no eigen tail and the certificate is inconclusive (exit 2), in both
    modes; kpos is refuted by its samples (exit 1).  Exact mode runs the
    non-diagonal twin, which no exact modal tail proves."""
    f = write_json(tmp_path, "overflow.json", _OVERFLOW[arith])
    out = tmp_path / "o"
    code = main(["certify", str(f), "--property", prop, "--k", "3", "--arith", arith,
                 "--out", str(out)])
    assert code == want
    assert "Traceback" not in capsys.readouterr().err
    cert = json.loads((out / "report.json").read_text())["certificate"]
    if want == 2:
        assert cert["conclusion"] == "inconclusive"
        notes = [note for system in cert["systems"] for note in system["notes"]]
        assert any(note.startswith("residues exceed float range; no eigen tail")
                   for note in notes), notes


@pytest.mark.parametrize("arith", ["exact", "float"])
def test_residues_past_float_range_raise_no_warning(tmp_path, capsys, arith):
    """The overflowing residues and the nan they leave in c V are notes, not
    numpy ``RuntimeWarning``s: with every warning an error, svb, vb and vd
    at k = 3 still exit 2 and kpos 1, and stderr names no warning."""
    f = write_json(tmp_path, "overflow.json", _OVERFLOW[arith])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for prop, want in [("svb", 2), ("vb", 2), ("vd", 2), ("kpos", 1)]:
            code = main(["certify", str(f), "--property", prop, "--k", "3", "--arith", arith,
                         "--out", str(tmp_path / prop)])
            assert code == want, prop
    assert "Warning" not in capsys.readouterr().err


_BIG_ENTRY_DIAGONAL = {"A": [["1e400", "0"], ["0", "0.5"]], "c": ["1", "1"]}


@pytest.mark.parametrize("system, k", [(_OVERFLOW_SYSTEM, 3), (_BIG_ENTRY_DIAGONAL, 2)],
                         ids=["residues", "entries"])
def test_exact_diagonal_pairs_past_float_range_certify_by_exact_modes(tmp_path, capsys, system, k):
    """The diagonal pairs whose eigen residues or entries are past the float
    range certify svb, vb and vd exactly at k, with every system that no sign
    pattern proves taking an exact modal tail and none an eigen note; kpos
    is still refuted by its samples (exit 1)."""
    f = write_json(tmp_path, "diagonal.json", system)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for prop, want in [("svb", 0), ("vb", 0), ("vd", 0), ("kpos", 1)]:
            out = tmp_path / prop
            code = main(["certify", str(f), "--property", prop, "--k", str(k), "--out", str(out)])
            assert code == want, prop
            systems = json.loads((out / "report.json").read_text())["certificate"]["systems"]
            if want == 0:
                routes = {system["notes"][0].partition(":")[0] for system in systems}
                assert routes == {"tail by sign pattern", "tail by exact diagonal modes"}, routes
    assert "Traceback" not in capsys.readouterr().err


def _big_diagonal(exponent):
    d = f"1e{exponent}"
    return [[d, "0", "0"], ["0", d, "0"], ["0", "0", d], ["1", "1", "-1"]]


@pytest.mark.parametrize("rows, prop, k, detail, digits", [
    (_big_diagonal(2000), "vb", 3, "conflicting minors", 6000),
    (_big_diagonal(5000), "vd", 2, "conflicting minors", 5000),
    # rank 2 (third column = first + second): the rank-k column test
    ([["1e2500", "0", "1e2500"], ["0", "1e2500", "1e2500"], ["1", "1", "2"], ["-1", "1", "0"]],
     "vb", 2, "column {1,2} mixed", 5000),
])
def test_check_matrix_renders_witness_minors_of_any_size(tmp_path, capsys, rows, prop, k,
                                                         detail, digits):
    f = write_json(tmp_path, "big.json", {"matrix": rows})
    code = main(["check-matrix", str(f), "--property", prop, "--k", str(k)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["verdict"] == "refuted"
    assert out["detail"].startswith(detail)
    assert f"Fraction(1{'0' * digits}, 1)" in out["detail"]


def test_float_near_singular_observability_matrix_is_inconclusive(tmp_path, capsys):
    # example2 with c / 1000: full float rank, but |det O_3| = 4.2e-11 is inside tol
    system = {"A": [["0.7", "0.6", "-2"], ["0.15", "0.15", "-0.25"], ["0", "0.03", "0.1"]],
              "c": ["0.0011", "0.0001", "-0.0055"]}
    f = write_json(tmp_path, "ex2_small_c.json", system)
    argv = ["certify", str(f), "--property", "svb", "--k", "2", "--out", str(tmp_path / "o")]
    assert main(argv + ["--arith", "float"]) == 2
    streams = capsys.readouterr()
    assert "inconclusive: observability matrix is singular" in streams.err
    assert json.loads(streams.out) == {"property": "SVB_1", "conclusion": "inconclusive"}
    (note,) = json.loads((tmp_path / "o" / "report.json").read_text())["certificate"]["notes"]
    assert note.startswith("observability matrix is singular: |det| = ")
    assert note.endswith(" within tolerance 1e-09")
    assert main(argv + ["--arith", "exact"]) == 0


def test_report_environment_round_trip(tmp_path):
    out = tmp_path / "env"
    main(["certify", str(fixture_path("example2")), "--property", "svb", "--k", "2",
          "--arith", "exact", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    env = report["environment"]
    assert env["arith"] == "exact" and env["k"] == 2 and env["tol"] == 1e-9
    assert report["traces"] == [p.name for p in out.iterdir() if p.name != "report.json"]


def test_exact_mode_reports_bit_identical(tmp_path):
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        code = main(["certify", str(fixture_path("example2")), "--property", "svb",
                     "--k", "2", "--arith", "exact", "--out", str(out)])
        assert code == 0
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "traces.csv").read_bytes() == (outs[1] / "traces.csv").read_bytes()


@pytest.mark.parametrize("content, message", [
    (None, "cannot read {P}: [Errno 21] Is a directory: '{P}'"),
    (b'\xef\xbb\xbf{"matrix": [["1"]]}',
     "{P} is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
     "line 1 column 1 (char 0)"),
    (b'{"matrix": [["\xff"]]}',
     "{P} is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 14: "
     "invalid start byte"),
    (b"", "{P} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    # lines end as a text-mode read sees them: \r\n and a lone \r are one \n
    (b'{"matrix": [["1"]],\r\n\r\n "c": ["1",]}',
     "{P} is not valid JSON: Expecting value: line 3 column 12 (char 32)"),
    (b'{"matrix": [["1"]],\r\r "c": ["1",]}',
     "{P} is not valid JSON: Expecting value: line 3 column 12 (char 32)"),
], ids=["directory", "bom", "invalid-utf8", "empty", "crlf", "cr"])
def test_malformed_files_print_one_input_error_line(tmp_path, capsys, content, message):
    f = tmp_path / "dir.json"
    if content is None:
        f.mkdir()
    else:
        f.write_bytes(content)
    out = tmp_path / "out"
    assert main(["certify", str(f), "--k", "1", "--property", "svb", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: " + message.format(P=f) + "\n"
    assert not out.exists()


def test_each_distinct_entry_string_is_parsed_once_per_file(tmp_path, capsys, monkeypatch):
    """Within one file a repeated decimal string is parsed once; a second load
    of the same file parses it again, so nothing is kept across files."""
    parsed = []

    def counting(value):
        parsed.append(value)
        return Fraction(value)

    monkeypatch.setattr(varsign.io, "Fraction", counting)
    A = [["1/3", "0.5", "1/3"], ["0.5", "1/3", "2"], ["2", "2", "0.5"]]
    b, c = ["7", "7", "0.5"], ["2", "1/3", "7"]
    f = write_json(tmp_path, "m.json", {"A": A, "b": b, "c": c})
    for backend, value in ((Backend.EXACT, Fraction), (Backend.FLOAT,
                                                       lambda s: float(Fraction(s)))):
        for _ in range(2):
            parsed.clear()
            sf = load_system_file(f, backend)
            assert sorted(parsed) == ["0.5", "1/3", "2", "7"]
            assert sf.A.data == tuple(tuple(map(value, row)) for row in A)
            assert (sf.b, sf.c) == (tuple(map(value, b)), tuple(map(value, c)))
            assert {type(x) for x in sf.A.data[0] + sf.b + sf.c} == {type(value("1"))}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("backend", list(Backend))
def test_a_repeated_bad_entry_fails_at_its_first_occurrence(tmp_path, monkeypatch, backend):
    parsed = []

    def counting(value):
        parsed.append(value)
        return Fraction(value)

    monkeypatch.setattr(varsign.io, "Fraction", counting)
    f = write_json(tmp_path, "m.json", {"matrix": [["1", "0.1.2"], ["0.1.2", "1"]]})
    with pytest.raises(varsign.io.InputFileError) as err:
        load_system_file(f, backend)
    assert str(err.value) == "cannot parse entry '0.1.2' as a decimal"
    assert parsed == ["1", "0.1.2"]


def test_repeated_float_entries_warn_once_per_file(tmp_path, capsys):
    f = write_json(tmp_path, "m.json", {"A": [[0.5, 0.5], [0.25, "0.5"]], "c": [0.5, 1]})
    for backend in Backend:
        for _ in range(2):
            sf = load_system_file(f, backend)
            assert capsys.readouterr().err == _FLOAT_WARNING
            assert sf.A.data[0] == (0.5, 0.5) and sf.c == (0.5, 1)


def test_outputs_written_one_byte_per_call_keep_their_bytes(tmp_path, capsys, monkeypatch):
    """A write may take fewer bytes than it is given: ``report.json`` and
    ``traces.csv`` written one byte per ``os.write``, fresh and over longer
    files, are the bytes of a normal run, with ``\\n`` and ``\\r\\n`` lines."""
    argv = ["certify", str(fixture_path("example1")), "--property", "svb", "--k", "1", "--out"]
    assert main(argv + [str(tmp_path / "whole")]) == 0
    want = {name: (tmp_path / "whole" / name).read_bytes()
            for name in ("report.json", "traces.csv")}
    real_write, written = os.write, []

    def one_byte(fd, data):
        written.append(len(data))
        return real_write(fd, bytes(data[:1]))

    monkeypatch.setattr(os, "write", one_byte)
    out = tmp_path / "out"
    for _ in range(2):  # created, then written over longer files
        written.clear()
        assert main(argv + [str(out)]) == 0
        assert {name: (out / name).read_bytes() for name in want} == want
        assert len(written) == sum(map(len, want.values()))
        for name in want:
            (out / name).write_bytes(want[name] * 3)
    report, traces = want["report.json"], want["traces.csv"]
    assert b"\r" not in report and report.endswith(b"}\n")
    assert traces.count(b"\n") == traces.count(b"\r\n") == len(traces.splitlines()) > 1


@pytest.mark.parametrize("file_name", ["m.json", "m.b.json", "m.", ".json", "..json", "m..b",
                                       "m", "m .json", "ünï.json"])
def test_a_file_without_a_name_is_named_by_its_stem(tmp_path, file_name):
    f = write_json(tmp_path, file_name, {"matrix": [["1"]]})
    assert load_system_file(f).name == load_system_file(str(f)).name == f.stem
    f = write_json(tmp_path, file_name, {"matrix": [["1"]], "name": 7})
    assert load_system_file(f).name == "7"
