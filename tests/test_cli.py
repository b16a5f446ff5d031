import csv
import json
import random
from dataclasses import asdict
from fractions import Fraction

import pytest

from varsign.cli import main
from varsign.fixtures import path as fixture_path
from varsign.io import load_system_file, render_value
from varsign.linalg import Matrix
from varsign.lti import LtiSystem, impulse_response
from varsign.obsv import certify_k_positive
from varsign.oracle import falsify_operator_vb

from conftest import observable_pair


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


def test_certify_example1_kpos_traces(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["certify", str(fixture_path("example1")), "--property", "kpos",
                 "--k", "2", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["certificate"]["conclusion"] == "certified"
    traces = sorted(p.name for p in out.glob("trace_*.csv"))
    assert traces == ["trace_r1_beta1.csv", "trace_r1_beta2.csv", "trace_r1_beta3.csv",
                      "trace_r2_beta12.csv", "trace_r2_beta13.csv", "trace_r2_beta23.csv"]
    # every emitted value equals the library impulse response
    sf = load_system_file(fixture_path("example1"))
    cert = certify_k_positive(sf.A, sf.c, 2, strict=True)
    by_name = {f"trace_r{sv.r}_beta{''.join(str(i) for i in sv.beta.elems)}.csv": sv
               for sv in cert.per_system}
    for name in traces:
        with open(out / name) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "g"]
        samples = by_name[name].verdict.samples
        for t, (ts, gs) in enumerate(rows[1:], 1):
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


def test_certify_hankel_target(tmp_path, capsys):
    f = write_json(tmp_path, "pos.json", {
        "A": [["0.5", "0"], ["0.25", "0.2"]], "b": ["1", "1"], "c": ["1", "1"]})
    out = tmp_path / "h"
    code = main(["certify", str(f), "--property", "svb", "--k", "1",
                 "--target", "hankel", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["certificate"]["target"] == "hankel"
    assert (out / "obsv").is_dir() and (out / "ctrb").is_dir()


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


@pytest.mark.parametrize("k, code", [(0, 3), (3, 3), (1, 1), (2, 1)])
def test_oracle_matrix_order_ranges_over_columns(tmp_path, capsys, k, code):
    f = write_json(tmp_path, "m.json",
                   {"matrix": [["1", "-1"], ["-1", "1"], ["1", "-1"]]})
    assert main(["oracle", str(f), "--k", str(k), "--trials", "50"]) == code


def test_float_entries_warn(tmp_path, capsys):
    f = write_json(tmp_path, "warn.json", {"matrix": [[1.5, 1.0], [1.0, 2.0]]})
    assert main(["check-matrix", str(f), "--property", "sc", "--k", "1"]) == 0
    assert "warning" in capsys.readouterr().err


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


def test_render_value_matches_division_reference_on_exact_samples():
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
    for v in values:
        assert render_value(v) == _render_value_reference(v), v


def test_report_environment_round_trip(tmp_path):
    out = tmp_path / "env"
    main(["certify", str(fixture_path("example2")), "--property", "svb", "--k", "2",
          "--arith", "exact", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    env = report["environment"]
    assert env["arith"] == "exact" and env["k"] == 2 and env["tol"] == 1e-9
    assert set(report["traces"]) == {p.name for p in out.glob("trace_*.csv")}


def test_exact_mode_reports_bit_identical(tmp_path):
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        code = main(["certify", str(fixture_path("example2")), "--property", "svb",
                     "--k", "2", "--arith", "exact", "--out", str(out)])
        assert code == 0
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    for trace in sorted(p.name for p in outs[0].glob("trace_*.csv")):
        assert (outs[0] / trace).read_bytes() == (outs[1] / trace).read_bytes()
