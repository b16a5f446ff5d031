"""Tests of the benchmark's own arithmetic; they do not import varsign.

    python3 -m pytest perfbench -q
"""

import sys
import types
from collections import defaultdict
from fractions import Fraction as F

import pytest

from checks import Result, _twins, classify, ledger_diff, minor_signs
from calibrate import KERNEL_REF_S, normalized_seconds
from run import JOBS_PER_S, beyond, closed_loop, job_count, percentile
from tracing import ROOT, Probe, Tracer, layer_metrics, missing_metrics
from workloads import PLANNERS, _make_job


# ------------------------------------------------------------ percentiles

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert beyond(values, percentile(values, 90)) == 10
    assert percentile([4, 1, 3, 2], 50) == 2
    assert percentile([7], 90) == 7


def test_percentile_needs_samples():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_hundred_samples_leave_ten_beyond_p90():
    values = [float(v) for v in range(100)]
    assert beyond(values, percentile(values, 90)) >= 10


# ------------------------------------------------------------ run length

def test_job_count_is_fixed_and_covers_every_fixture():
    plan = PLANNERS["exact_certify"](1, 40)
    count = job_count(plan, "exact_certify", 1)
    assert count >= 100
    assert plan.fixture_keys <= {job.key for job in plan.jobs[:count]}
    full = round(60 * JOBS_PER_S["exact_certify"])
    assert job_count(plan, "exact_certify", 60) == full
    assert job_count(PLANNERS["exact_certify"](2, 40), "exact_certify", 60) == full


def test_closed_loop_runs_the_count_in_plan_order():
    plan = PLANNERS["matrix_exact"](1, 2)
    seen = []
    done, _ = closed_loop(plan, lambda job, i: seen.append((i, job.key)), 30)
    assert done == 30
    assert seen == [(i, plan.jobs[i % len(plan.jobs)].key) for i in range(30)]


# ------------------------------------------------------------ speed scaling

def test_normalized_seconds_follow_the_local_kernel():
    # the machine runs at half speed for the last three jobs: the kernel and
    # the jobs take twice as long there, and the scaled times do not move
    kernel = [KERNEL_REF_S] * 5 + [2 * KERNEL_REF_S] * 3
    cpu = [0.1] * 5 + [0.2] * 3
    scaled = normalized_seconds(cpu, kernel, window=1)
    assert scaled[:4] == pytest.approx([0.1] * 4)
    assert scaled[6:] == pytest.approx([0.1] * 2)


def test_one_slow_kernel_does_not_move_a_job():
    kernel = [KERNEL_REF_S] * 5
    kernel[2] = 10 * KERNEL_REF_S
    assert normalized_seconds([0.1] * 5, kernel, window=2) == pytest.approx([0.1] * 5)


# ------------------------------------------------------------ self times

class StepClock:
    """Each reading advances one tick, so every span has a known length."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def fake_module():
    mod = types.ModuleType("varsign.benchfake")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) + mod.leaf(x)

    mod.leaf, mod.outer = leaf, outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def _probes():
    return (Probe("fake.outer", "varsign.benchfake", "outer"),
            Probe("fake.leaf", "varsign.benchfake", "leaf"),
            Probe("fake.gone", "varsign.benchfake", "no_such_function"))


def test_self_times_add_up_to_the_root_span(fake_module):
    clock = StepClock()
    tracer = Tracer(_probes(), clock=clock)
    tracer.install()
    root = tracer.begin_job(0)
    assert fake_module.outer(1) == 4
    tracer.end_job(root)
    tracer.uninstall()
    assert fake_module.outer.__name__ == "outer" and not hasattr(fake_module.outer, "__wrapped__")

    totals, calls = tracer.self_times()
    assert calls == {ROOT: 1, "fake.outer": 1, "fake.leaf": 2}
    # a wrapped call reads the clock at entry, start, end and after its
    # bookkeeping: one tick inside the span, two outside it
    assert totals["fake.leaf"] == 2 * 1.0
    duration = tracer.end[root] - tracer.start[root]
    assert sum(totals.values()) + tracer.bookkeeping() == pytest.approx(duration)
    assert tracer.bookkeeping() == 3 * 2.0


def test_layer_metrics_count_overhead_and_missing_probes(fake_module):
    tracer = Tracer(_probes(), clock=StepClock())
    tracer.install()
    root = tracer.begin_job(0)
    fake_module.outer(1)
    tracer.end_job(root)
    tracer.uninstall()
    wall = tracer.end[root] - tracer.start[root]
    assert tracer.missing == ["varsign.benchfake.no_such_function"]

    metrics = layer_metrics(tracer, 1, wall, traced_jps=2.0, untraced_jps=3.0)
    assert metrics["trace.overhead_ratio"] == (1.5, "ratio")
    # the bench's overhead is the root's own time plus the wrappers' bookkeeping
    totals, _ = tracer.self_times()
    assert metrics["bench.overhead_s"][0] == pytest.approx(totals[ROOT] + tracer.bookkeeping())
    # none of the real varsign probes exist here: their metrics are missing,
    # and the bench's own ones are not
    assert metrics["lti.min_recurrence.self_s"][0] is None
    assert metrics["obsv.ext_pos.calls"][0] is None
    assert metrics["bench.overhead_s"][0] is not None


def test_missing_metrics_follow_their_probe():
    metrics = {"lti.min_recurrence.self_s": 0, "lti.min_recurrence.solves": 0,
               "lti.tail_route.eigen": 0, "obsv.ext_pos.calls": 0, "trace.jobs_per_s": 0}
    resolved = {"lti.min_recurrence", "lti.ext_pos"}
    assert missing_metrics(resolved, metrics) == ["lti.min_recurrence.solves"]
    resolved = {"varsign.lti._solve_exact_consistent"}
    assert missing_metrics(resolved, metrics) == [
        "lti.min_recurrence.self_s", "lti.tail_route.eigen", "obsv.ext_pos.calls"]


def test_tracer_reraises_and_counts_errors(fake_module):
    def boom(x):
        raise ZeroDivisionError

    fake_module.leaf = boom
    tracer = Tracer(_probes(), clock=StepClock())
    tracer.install()
    with pytest.raises(ZeroDivisionError):
        fake_module.outer(1)
    tracer.uninstall()
    assert tracer.counts["fake.leaf.errors"] == 1
    assert tracer.counts["fake.outer.errors"] == 1


# ------------------------------------------------------------ ledger

def _fixture(pair, prop="svb", k=2, arith="exact"):
    return _make_job(pair.split("/")[0], pair, "certify", k, prop, arith, seeded=False)


def test_ledger_diff_counts_decisive_changes_only():
    jobs = [_fixture("example2/orig"), _fixture("example2/a2_b3"), _fixture("example2/dsim123"),
            _fixture("example2/b1e-6")]
    ledger = {"jobs": {jobs[0].key: "certified", jobs[1].key: "certified",
                       jobs[2].key: "certified"},
              "classes": {}}
    results = [Result(jobs[0], "certified", 0), Result(jobs[1], "refuted", 1),
               Result(jobs[2], "inconclusive", 2), Result(jobs[3], "inconclusive", 2)]
    lines, counted = ledger_diff(results, ledger)
    assert counted == {jobs[1].key}
    assert any("COUNTED" in line and jobs[1].key in line for line in lines)
    assert any("reported" in line and jobs[2].key in line for line in lines)
    assert any(line.split()[0] == "new" and jobs[3].key in line for line in lines)
    assert not any(jobs[0].key in line for line in lines)


def test_ledger_reports_seeded_class_moves():
    job = _make_job("rand", "rand/n3#0", "certify", 2, "svb")
    ledger = {"jobs": {}, "classes": {job.class_key(): "refuted"}}
    lines, counted = ledger_diff([Result(job, "inconclusive", 2)], ledger)
    assert counted == set()
    assert lines == ["  class    rand/certify/exact/obsv/svb/k2: usually refuted, 1 x inconclusive"]


def test_twin_disagreement_is_a_failure():
    orig, twin, same = (_fixture("example2/orig"), _fixture("example2/b1e-6"),
                        _fixture("example2/dsim123"))
    first = {orig.key: Result(orig, "certified", 0), twin.key: Result(twin, "inconclusive", 2),
             same.key: Result(same, "certified", 0)}
    failures = defaultdict(list)
    _twins(first, failures)
    assert dict(failures) == {twin.key: ["twin"]}
    first[twin.key] = Result(twin, "refuted", 1)
    failures.clear()
    _twins(first, failures)
    assert dict(failures) == {twin.key: ["twin-decisive"]}


def test_minor_classes():
    cauchy = [[1 / (F(i) + F(j)) for j in (2, 3, 5)] for i in (1, 2, 4, 7)]
    for order in (1, 2, 3):
        assert classify(minor_signs(cauchy, order)) == "pos"
    assert classify(minor_signs([[F(1), F(2)], [F(3), F(4)], [F(1), F(3)]], 2)) == "mixed"
    assert classify(minor_signs([[F(1), F(2)], [F(2), F(4)]], 2)) == "zero"


def test_diagonal_pairs_follow_the_closed_form():
    from checks import _ivb_consistency, diag_outcome

    assert diag_outcome(_make_job("diag", "diag/n4#0", "certify", 1, "kpos")) == "certified"
    assert diag_outcome(_make_job("diag", "diag/n4#0", "certify", 3, "kpos")) == "refuted"
    assert diag_outcome(_make_job("diag", "diag/n4#0", "certify", 3, "vd")) == "certified"
    job = _make_job("diag", "diag/n4#0", "ivb", 4)
    strict = {level: "strict" for level in range(4)}
    for levels, bound, failed in ((strict, 0, False), ({**strict, 3: "nonstrict"}, 0, True),
                                  (strict, None, True)):
        failures, notes = defaultdict(list), []
        _ivb_consistency({job.key: Result(job, "x", 0, {"levels": levels, "bound": bound})},
                         notes, failures)
        assert bool(failures) is failed
