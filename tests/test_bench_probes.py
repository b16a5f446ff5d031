"""Every probe of the benchmark's per-layer trace still names a live target.

A renamed or removed hot function would otherwise turn its per-layer metric
into ``null`` without failing anything.
"""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import varsign.cli  # noqa: E402,F401  (the probes patch the loaded modules)
import varsign.oracle  # noqa: E402,F401
import varsign.signcons  # noqa: E402,F401
import tracing  # noqa: E402
from conftest import cauchy_exact, random_exact  # noqa: E402


@pytest.mark.parametrize("probe", tracing.PROBES,
                         ids=lambda p: f"{p.module}.{p.attr}")
def test_probe_target_resolves(probe):
    assert tracing._resolve(probe.module, probe.attr) is not None


def test_traced_cli_runs_feed_every_hook(tmp_path, capsys):
    """The real probes, hooks included, around CLI runs of each command:
    a hook whose argument contract broke would raise or count nothing."""
    from varsign.cli import main
    from varsign.fixtures import path as fixture_path

    pena = tmp_path / "pena.json"
    pena.write_text('{"matrix": [["1", "1"], ["1", "2"], ["1", "3"], ["1", "4"]]}')
    runs = [
        ["certify", str(fixture_path("example3")), "--target", "hankel", "--property", "svb",
         "--k", "1", "--out", str(tmp_path / "hankel")],
        ["certify", str(fixture_path("example2")), "--property", "vd", "--k", "2",
         "--out", str(tmp_path / "vd")],
        ["certify", str(fixture_path("example2")), "--property", "vd", "--k", "2",
         "--arith", "float", "--out", str(tmp_path / "vd_float")],
        ["check-matrix", str(pena), "--property", "vb", "--k", "2"],
        ["oracle", str(fixture_path("example1")), "--k", "2", "--trials", "50"],
    ]
    tracer = tracing.Tracer()
    assert tracer.missing == []
    tracer.install()
    try:
        for job, argv in enumerate(runs):
            root = tracer.begin_job(job)
            assert main(argv) in (0, 1, 2)
            tracer.end_job(root)
    finally:
        tracer.uninstall()
    assert tracer.counts["io.trace_rows"] > 0
    # samples taken outside impulse_response would read 0 here
    assert tracer.counts["lti.impulse.samples"] > 0
    assert tracer.counts["io.report_bytes"] > 0
    assert [name for name in tracer.counts if name.endswith(".errors")] == []


@pytest.mark.parametrize("matrix, prop, k, span", [
    ("random", "vb", 2, "signcons.col_independence"),
    ("random", "vb", 2, "signcons.vb_check"),  # the rank runs inside this span
    ("random", "vd", 2, "signcons.col_independence"),
    ("cauchy", "stp", 3, "signcons.sign_consistent"),
])
def test_traced_check_matrix_books_the_signcons_layers(tmp_path, capsys, matrix, prop, k, span):
    """A traced exact ``check-matrix`` run books time to the span that its
    decision runs in.  A probe whose target no longer does the work would
    read 0 without failing anything else."""
    from varsign.cli import main

    rng = random.Random(2204)
    X = random_exact(rng, 6, 4) if matrix == "random" else cauchy_exact(rng, 6, 4)
    path = tmp_path / f"{matrix}.json"
    path.write_text(json.dumps({"matrix": [[str(x) for x in row] for row in X.data]}))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.begin_job(0)
        assert main(["check-matrix", str(path), "--arith", "exact", "--property", prop,
                     "--k", str(k)]) in (0, 1, 2)
        tracer.end_job(root)
    finally:
        tracer.uninstall()
    totals, calls = tracer.self_times()
    assert calls.get(span, 0) > 0 and totals[span] > 0, (span, calls)


@pytest.mark.parametrize("target", ["matrix", "operator"])
def test_traced_oracle_books_the_sample_span(tmp_path, capsys, target):
    """A traced ``oracle`` run, on a bare matrix and on an operator, books
    time to ``oracle.sample``: the probe follows the block sampler."""
    from varsign.cli import main
    from varsign.fixtures import path as fixture_path

    path = fixture_path("example2")
    if target == "matrix":
        path = tmp_path / "matrix.json"
        path.write_text('{"matrix": [["1", "-1"], ["-1", "1"], ["1", "-1"]]}')
    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.begin_job(0)
        assert main(["oracle", str(path), "--k", "1", "--trials", "1000"]) == 1
        tracer.end_job(root)
    finally:
        tracer.uninstall()
    totals, calls = tracer.self_times()
    assert calls.get("oracle.sample", 0) > 0 and totals["oracle.sample"] > 0, calls
