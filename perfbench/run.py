"""Closed-loop benchmark of varsign verdicts.

    python3 perfbench/run.py --workload exact_refute --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One process runs one workload: it imports varsign from ``src/`` of this
checkout, writes the seeded input files, then calls ``varsign.cli.main``
(or ``impulse_variation_bound``) one job at a time.  A run does a fixed
number of jobs, ``--seconds`` times the workload's rate on the reference
machine (see ``JOBS_PER_S``), so the same seed and ``--seconds`` give the
same jobs everywhere.  A calibration kernel timed before every job gives the
machine's speed at that moment, and job times are reported at the reference
speed (see ``normalized_seconds``).  Every verdict is then checked (see
``checks.py``) and the metrics are printed, the last line being one JSON
object.  ``--trace 1`` runs every job twice, untraced and traced in
alternating order, and reports per-layer metrics from the spans instead of
the end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from checks import (
    LEDGER_NAME,
    References,
    Result,
    check_results,
    ivb_outcome,
    ledger_entries,
    load_ledger,
    merge_ledger,
    outcome_of,
)
from calibrate import KERNEL_REF_S, calibration_kernel, kernel_median, normalized_seconds
from tracing import Tracer, layer_metrics
from workloads import PLANNERS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
LEDGER = HERE / LEDGER_NAME

MIN_JOBS = 100          # at least ten samples beyond the 90th percentile
SETUP_REPEATS = 5
HARD_STOP_S = 150.0     # keeps a run inside three minutes on a slow machine
ROUNDS = {"exact_refute": 500, "exact_certify": 40, "float_oracle": 40, "matrix_exact": 300}
# Wall-clock jobs per second on the reference machine (2 shared vCPUs of an
# Intel Xeon, Python 3.11.7, numpy 2.4.6).  A run does seconds x rate jobs:
# the same job list for the same seed and --seconds on any machine, so
# ``attempted`` and ``failed`` repeat exactly, lasting about --seconds there.
JOBS_PER_S = {"exact_refute": 17.0, "exact_certify": 10.0, "float_oracle": 14.5,
              "matrix_exact": 26.0}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def beyond(values, threshold: float) -> int:
    return sum(1 for v in values if v > threshold)


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def import_varsign():
    """Import varsign from this checkout; returns (cli, obsv, linalg)."""
    if not (SRC / "varsign" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'varsign'} not found; run from a varsign checkout")
    sys.path.insert(0, str(SRC))
    import varsign.cli as cli
    import varsign.linalg as linalg
    import varsign.obsv as obsv
    if Path(cli.__file__).resolve().parent != (SRC / "varsign").resolve():
        raise SystemExit(f"error: imported varsign from {cli.__file__}, not from {SRC}")
    return cli, obsv, linalg


class Runner:
    """Calls one job and classifies its outcome."""

    def __init__(self, cli, obsv, linalg, inputs_dir: Path, out_dir: Path, plan):
        self.cli, self.obsv = cli, obsv
        self.inputs_dir, self.out_dir = inputs_dir, out_dir
        self.systems = {}
        for job in plan.jobs:
            if job.kind == "ivb" and job.pair not in self.systems:
                payload = plan.inputs[job.pair]
                A = linalg.Matrix.exact([[Fraction(x) for x in r] for r in payload["A"]])
                c = tuple(Fraction(x) for x in payload["c"])
                # the example fixtures carry no b: drive them along b = c
                b = tuple(Fraction(x) for x in payload.get("b", payload["c"]))
                self.systems[job.pair] = (A, b, c)

    def __call__(self, job) -> Result:
        w0, c0 = time.perf_counter(), time.process_time()

        def timed(outcome, code, payload) -> Result:
            return Result(job, outcome, code, payload, time.perf_counter() - w0,
                          time.process_time() - c0)

        if job.kind == "ivb":
            A, b, c = self.systems[job.pair]
            try:
                report = self.obsv.impulse_variation_bound(A, b, c)
            except Exception as exc:  # a failed job is recorded, the loop goes on
                return timed("exception", None, {"error": repr(exc)})
            return timed(ivb_outcome(report), 0,
                         {"levels": dict(report.certified_levels), "bound": report.bound})
        argv = job.argv(self.inputs_dir, self.out_dir)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # a failed job is recorded, the loop goes on
            return timed("exception", None, {"error": repr(exc)})
        res = timed("", code, {})
        lines = out.getvalue().strip().splitlines()
        res.payload = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        if code == 3:
            res.payload["error"] = err.getvalue().strip()
        res.outcome = outcome_of(job, code, res.payload)
        return res


# the kernels run after the import, so the modules they load stay in it
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
                 "import varsign.cli; t = time.process_time() - t; sys.path.insert(0, sys.argv[2]); "
                 "from calibrate import kernel_median; print(t, kernel_median())")


def fresh_import_seconds() -> float:
    """CPU time of ``import varsign.cli`` in a new interpreter, as a user pays
    it, at reference speed (by the kernel timed in that interpreter)."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    import_s, kernel_s = map(float, proc.stdout.split())
    return import_s * KERNEL_REF_S / kernel_s


def set_up(workload: str, seed: int, work: Path):
    """Import varsign in a fresh interpreter, plan and write the inputs;
    SETUP_REPEATS times.  Each part is timed in CPU time and scaled to the
    reference speed by kernels timed in the same process.  Returns the last
    plan, its input directory and the median set-up time."""
    times = []
    plan = None
    for i in range(SETUP_REPEATS):
        target = work / f"inputs{i}"
        import_s = fresh_import_seconds()
        kernel_s = kernel_median()
        c0 = time.process_time()
        plan = PLANNERS[workload](seed, ROUNDS[workload])
        plan.write(target)
        plan_s = time.process_time() - c0
        kernel_s = statistics.median([kernel_s, kernel_median()])
        times.append(import_s + plan_s * KERNEL_REF_S / kernel_s)
        if i < SETUP_REPEATS - 1:
            shutil.rmtree(target)
    return plan, work / f"inputs{SETUP_REPEATS - 1}", statistics.median(times)


def job_count(plan, workload: str, seconds: float) -> int:
    """Jobs in one run: ``seconds`` of work at the reference rate, at least
    MIN_JOBS, and enough for every fixture job to run once."""
    cover, pending = 0, set(plan.fixture_keys)
    for i, job in enumerate(plan.jobs):
        if not pending:
            break
        pending.discard(job.key)
        cover = i + 1
    return max(MIN_JOBS, cover, round(seconds * JOBS_PER_S[workload]))


def closed_loop(plan, step, count: int):
    """Run ``count`` jobs in plan order, each after the previous one ends.
    ``step(job, index)`` runs one job.  Returns the job count (smaller only
    if HARD_STOP_S ran out) and the loop's wall time."""
    jobs = plan.jobs
    t_start = time.perf_counter()
    done = 0
    while done < count:
        step(jobs[done % len(jobs)], done)
        done += 1
        if time.perf_counter() - t_start >= HARD_STOP_S:
            break
    return done, time.perf_counter() - t_start


def run_workload(args) -> int:
    cli, obsv, linalg = import_varsign()
    import numpy

    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = RUNS / f"{tag}-{os.getpid()}"
    try:
        plan, inputs_dir, setup_s = set_up(args.workload, args.seed, work)
        runner = Runner(cli, obsv, linalg, inputs_dir, work / "out", plan)
        runner(plan.jobs[0])  # warm-up: lazy imports and first-call costs
        # the bench's own objects (plan, inputs) stay out of the collector's
        # scans, so a job's time does not grow with the size of the plan
        gc.collect()
        gc.freeze()
        if args.trace:
            record = traced_run(plan, runner, args)
        else:
            record = untraced_run(plan, runner, args, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = record["results"]
    ledger = load_ledger(LEDGER)
    verdicts = check_results(results, ledger, References(plan.inputs))
    failed_keys = set(verdicts.failures)
    attempted = len(results)
    failed = sum(1 for r in results if r.job.key in failed_keys)
    if args.write_ledger:
        merge_ledger(LEDGER, ledger_entries(results))

    env = {
        "varsign": sys.modules["varsign"].__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"jobs {attempted} ({len({r.job.key for r in results})} distinct), "
          f"closed loop, one process, one job at a time")
    for name, (value, unit) in record["metrics"].items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:36} {shown:>12} {unit}")
    for line in record["lines"]:
        print(line)
    reasons = {}
    for key, why in verdicts.failures.items():
        for reason in set(why):
            reasons[reason] = reasons.get(reason, 0) + 1
    print(f"  {'failed_frac':36} {failed / attempted:>12.6g} ratio  "
          f"({failed}/{attempted} jobs; failing job keys by reason: "
          f"{json.dumps(dict(sorted(reasons.items())))})")
    for key in sorted(failed_keys):
        print(f"    failed {key}: {', '.join(sorted(set(verdicts.failures[key])))}")
    print(f"ledger diff ({len(verdicts.ledger_lines)} lines)")
    for line in verdicts.ledger_lines:
        print(line)
    for note in verdicts.notes[:20]:
        print(f"  note: {note}")
    if len(verdicts.notes) > 20:
        print(f"  ... {len(verdicts.notes) - 20} more notes")

    rows = [{"key": r.job.key, "outcome": r.outcome, "exit": r.exit_code,
             "ms": round(r.seconds * 1e3, 3)} for r in results]
    (RUNS / f"{tag}.json").write_text(json.dumps(
        {"environment": env, "metrics": record["metrics"], "report": record["lines"],
         "failed": failed, "attempted": attempted, "failures": verdicts.failures,
         "ledger_diff": verdicts.ledger_lines, "rows": rows}, indent=1))
    print(json.dumps({
        "correct": verdicts.correct(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0


def untraced_run(plan, runner, args, setup_s: float) -> dict:
    results, kernels = [], []

    def step(job, i):
        kernels.append(calibration_kernel())
        results.append(runner(job))

    count = job_count(plan, args.workload, args.seconds)
    done, wall = closed_loop(plan, step, count)
    norm_ms = [s * 1e3 for s in normalized_seconds([r.cpu_s for r in results], kernels)]
    wall_ms = [r.seconds * 1e3 for r in results]
    p90 = percentile(norm_ms, 90)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (done * 1e3 / math.fsum(norm_ms), "1/s"),
        "job_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    speed = KERNEL_REF_S / statistics.median(kernels)
    # printed, not in the JSON line: see "Printed but not bounded" in README.md
    lines = [f"  job_p90_ms from {len(norm_ms)} samples, {beyond(norm_ms, p90)} beyond it",
             f"  {'job_p50_ms':36} {percentile(norm_ms, 50):>12.6g} ms",
             f"  machine speed (reference kernel / this run's median kernel) {speed:.4f}",
             f"  {'wall.jobs_per_s':36} {done / wall:>12.6g} 1/s  (wall clock, {wall:.3f} s)",
             f"  {'wall.job_p50_ms':36} {percentile(wall_ms, 50):>12.6g} ms",
             f"  {'wall.job_p90_ms':36} {percentile(wall_ms, 90):>12.6g} ms"]
    return {"results": results, "metrics": metrics, "lines": lines}


def traced_run(plan, runner, args) -> dict:
    tracer = Tracer()
    results = []
    plain_s = traced_s = 0.0

    def step(job, i):
        nonlocal plain_s, traced_s
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                root = tracer.begin_job(i)
                res = runner(job)
                tracer.end_job(root)
                tracer.uninstall()
                traced_s += res.seconds
            else:
                res = runner(job)
                plain_s += res.seconds
            results.append(res)

    # every job runs twice, so half the jobs keep the run near --seconds
    done, _ = closed_loop(plan, step, job_count(plan, args.workload, args.seconds / 2))
    totals, _ = tracer.self_times()
    roots = [i for i in range(len(tracer.start)) if tracer.parent[i] == -1]
    traced_wall = sum(tracer.end[i] - tracer.start[i] for i in roots)
    metrics = layer_metrics(tracer, done, traced_wall, done / traced_s, done / plain_s)
    spans_path = RUNS / f"{args.workload}-spans.csv"
    tracer.write_spans(spans_path)
    layer_sum = sum(v for k, v in totals.items() if k != "bench.job")
    lines = [f"traced wall {traced_wall:.4f} s over {done} jobs = layer self times "
             f"{layer_sum:.4f} s + bench overhead {traced_wall - layer_sum:.4f} s "
             f"(job-root self {totals.get('bench.job', 0.0):.4f} s, wrapper bookkeeping "
             f"{tracer.bookkeeping():.4f} s)",
             "layer shares of the traced wall time:"]
    for name, value in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {name:28} {value:10.4f} s  {value / traced_wall:7.2%}")
    if tracer.missing:
        lines.append("missing probes (metrics reported as missing): "
                     + ", ".join(tracer.missing))
    lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return {"results": results, "metrics": metrics, "lines": lines}


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        print()
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-ledger", action="store_true",
                        help=f"merge this run's outcomes into {LEDGER_NAME}")
    args = parser.parse_args(argv)
    # one BLAS thread; numpy reads these when it is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
