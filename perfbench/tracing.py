"""Layer spans recorded by wrapping varsign functions from outside.

Each probe names a function (or a method) and the span it records.  A
function is wrapped in every ``varsign.*`` module namespace that binds it,
so calls through ``from .linalg import det`` are seen as well as calls
inside ``linalg`` itself.  The span name may depend on the calling module:
``impulse_response`` called from ``oracle`` is ``oracle.propagate``.

Spans live in flat arrays (name, parent, job, start, end, bookkeeping) and
are written out at the end of the run.  Self time is a span's duration less
its children's durations and the wrapper bookkeeping spent around them, so
the self times of one job add up to the job's root span exactly.  A probe
whose target no longer exists is reported as missing; it does not stop the
run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = "bench.job"


@dataclass(frozen=True)
class Probe:
    span: str | None          # None: count calls only, no span
    module: str
    attr: str                 # "name" or "Class.method"
    hook: str = ""            # name of a Tracer method fed with the result
    per_module: dict = field(default_factory=dict)  # module -> span override


PROBES = (
    Probe("cli", "varsign.cli", "main"),
    Probe("io.load", "varsign.io", "load_system_file"),
    Probe("io.write", "varsign.io", "write_traces", "_on_traces"),
    Probe("io.write", "varsign.io", "write_report", "_on_report"),
    Probe("io.write", "varsign.io", "certificate_dict"),
    Probe("obsv.fold", "varsign.obsv", "certify_observability"),
    Probe("obsv.fold", "varsign.obsv", "certify_controllability"),
    Probe("obsv.fold", "varsign.obsv", "certify_hankel"),
    Probe("obsv.fold", "varsign.obsv", "certify_svb"),
    Probe("obsv.fold", "varsign.obsv", "certify_vb"),
    Probe("obsv.fold", "varsign.obsv", "certify_k_positive"),
    Probe("obsv.fold", "varsign.obsv", "certify_vd"),
    Probe("obsv.fold", "varsign.obsv", "impulse_variation_bound"),
    Probe("obsv.context", "varsign.obsv", "_OperatorContext.__init__"),
    Probe("obsv.trace_input", "varsign.obsv", "_minor_trace_input"),
    Probe("obsv.trace_input", "varsign.obsv", "_full_order_input"),
    Probe("obsv.compound_system", "varsign.obsv", "compound_system", "_on_compound_system"),
    Probe("obsv.compound_system", "varsign.obsv", "full_compound_systems",
          "_on_compound_system"),
    Probe("lti.ext_pos", "varsign.lti", "external_positivity", "_on_ext_pos"),
    Probe("lti.impulse", "varsign.lti", "impulse_response", "_on_impulse",
          {"varsign.oracle": "oracle.propagate"}),
    Probe("lti.dominant_tail", "varsign.lti", "dominant_tail", "_on_tail"),
    Probe("lti.min_recurrence", "varsign.lti", "minimal_recurrence_system", "_on_recurrence"),
    Probe(None, "varsign.lti", "_solve_exact_consistent", "_on_solve"),
    Probe("linalg.det", "varsign.linalg", "det"),
    Probe("linalg.compound", "varsign.linalg", "compound"),
    Probe("linalg.inverse", "varsign.linalg", "inverse"),
    Probe("linalg.rank", "varsign.linalg", "rank"),
    Probe("signcons.sign_consistent", "varsign.signcons", "sign_consistent"),
    Probe("signcons.sign_consistent", "varsign.signcons", "sign_regular"),
    Probe("signcons.sign_consistent", "varsign.signcons", "k_positive"),
    Probe("signcons.sign_consistent", "varsign.signcons", "classify_family"),
    Probe("signcons.vb_check", "varsign.signcons", "vb_matrix_check"),
    Probe("signcons.vd_check", "varsign.signcons", "vd_matrix_check"),
    Probe("signcons.col_independence", "varsign.signcons", "_all_k_columns_independent"),
    Probe("oracle.search", "varsign.oracle", "falsify_matrix_vb", "_on_oracle"),
    Probe("oracle.search", "varsign.oracle", "falsify_operator_vb", "_on_oracle"),
    Probe("oracle.sample", "varsign.oracle", "sample_bounded_variation"),
    Probe("oracle.judge", "varsign.oracle", "_judge"),
    Probe("variation", "varsign.variation", "v_minus"),
    Probe("variation", "varsign.variation", "v_plus"),
)

# spans whose self time is reported; every probe span is listed, so their
# sum plus the bench overhead is the traced wall time
LAYER_SPANS = tuple(dict.fromkeys(
    [p.span for p in PROBES if p.span] + ["oracle.propagate"]))


def _resolve(module_name: str, attr: str):
    """(owner, name, function) for a probe target, or None when it is gone."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, parts[-1], None)
    return (owner, parts[-1], fn) if callable(fn) else None


class Tracer:
    """Span recorder; ``install`` patches the probes, ``uninstall`` restores them."""

    def __init__(self, probes=PROBES, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.book = array("d")
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.job_id = -1
        self._stack: list[int] = []
        self.missing: list[str] = []      # probe targets that no longer exist
        self.resolved: set[str] = set()   # probe labels and spans that were patched
        self._patches: list[tuple[object, str, object, object]] = []
        self._prepare(probes)

    # ---------------------------------------------------------------- set-up

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _prepare(self, probes) -> None:
        for probe in probes:
            target = _resolve(probe.module, probe.attr)
            if target is None:
                self.missing.append(f"{probe.module}.{probe.attr}")
                continue
            self.resolved.add(f"{probe.module}.{probe.attr}")
            owner, name, fn = target
            hook = getattr(self, probe.hook) if probe.hook else None
            if owner is sys.modules[probe.module] and "." not in probe.attr:
                # every varsign module namespace binding the same object
                for mod_name, module in list(sys.modules.items()):
                    if (mod_name == "varsign" or mod_name.startswith("varsign.")) \
                            and module is not None and module.__dict__.get(name) is fn:
                        span = probe.per_module.get(mod_name, probe.span)
                        self.resolved.add(span)
                        self._patches.append((module, name, fn, self._wrap(span, fn, hook)))
            else:
                self.resolved.add(probe.span)
                self._patches.append((owner, name, fn, self._wrap(probe.span, fn, hook)))

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # --------------------------------------------------------------- spans

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.book.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, span: str | None, fn, hook):
        clock = self.clock
        if span is None:
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(result, args)
                return result
            return counting
        nid = self._id(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            idx = self._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                self._stack.pop()
                self.start[idx], self.end[idx] = t0, t1
                self.counts[f"{span}.errors"] += 1
                self.book[idx] = (t0 - t_in) + (clock() - t1)
                raise
            t1 = clock()
            self._stack.pop()
            self.start[idx], self.end[idx] = t0, t1
            if hook is not None:
                hook(result, args)
            self.book[idx] = (t0 - t_in) + (clock() - t1)
            return result
        return wrapper

    def begin_job(self, job_id: int) -> int:
        """Open the root span of one job; returns its index for ``end_job``."""
        self.job_id = job_id
        idx = self._open(self._id(ROOT))
        self.start[idx] = self.clock()
        return idx

    def end_job(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    # --------------------------------------------------------------- hooks

    def _bump_max(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, -1):
            self.maxima[name] = value

    def _on_traces(self, result, args) -> None:
        self.counts["io.trace_rows"] += sum(len(sv.verdict.samples) for sv in args[1])

    def _on_report(self, result, args) -> None:
        self.counts["io.report_bytes"] += Path(result).stat().st_size

    def _on_compound_system(self, result, args) -> None:
        self.counts["obsv.compound_systems"] += len(result) if isinstance(result, list) else 1

    def _on_ext_pos(self, verdict, args) -> None:
        notes = " ".join(verdict.notes)
        if verdict.tail is not None:
            route = "recurrence" if "minimal-recurrence" in notes else "eigen"
        elif "trailing zeros" in notes or "identically zero" in notes:
            route = "zeros"
        else:
            route = "none"
        self.counts[f"lti.tail_route.{route}"] += 1

    def _on_impulse(self, samples, args) -> None:
        self.counts["lti.impulse.samples"] += len(samples)
        bits = max((x.numerator.bit_length() + x.denominator.bit_length()
                    for x in samples if isinstance(x, Fraction)), default=0)
        self._bump_max("lti.impulse.sample_bits_max", bits)

    def _on_tail(self, result, args) -> None:
        self.counts["lti.dominant_tail.certs"] += result[0] is not None

    def _on_recurrence(self, result, args) -> None:
        self.counts["lti.min_recurrence.hits"] += result is not None

    def _on_solve(self, result, args) -> None:
        self.counts["lti.min_recurrence.solves"] += 1

    def _on_oracle(self, report, args) -> None:
        self.counts["oracle.trials"] += report.trials
        self.counts["oracle.suspects"] += len(report.suspects)

    # -------------------------------------------------------------- results

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and call count per span name."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i] + self.book[i]
        totals: dict[str, float] = {}
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            totals[name] = totals.get(name, 0.0) + (self.end[i] - self.start[i] - covered[i])
            calls[name] += 1
        return totals, dict(calls)

    def bookkeeping(self) -> float:
        return sum(self.book)

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("name,job,parent,start,end\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]},{self.job[i]},{self.parent[i]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, jobs: int, traced_wall: float,
                  traced_jps: float, untraced_jps: float) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics (name -> (value, unit)); missing probes give None."""
    totals, calls = tracer.self_times()
    c = tracer.counts
    per_job = max(jobs, 1)
    out: dict[str, tuple[float | None, str]] = {}
    for span in LAYER_SPANS:
        out[f"{span}.self_s"] = (totals.get(span, 0.0) / per_job, "s/job")
    layer_sum = sum(v for k, v in totals.items() if k != ROOT)
    counted = {
        "lti.min_recurrence.solves": c["lti.min_recurrence.solves"],
        "lti.impulse.samples": c["lti.impulse.samples"],
        "obsv.context.calls": calls.get("obsv.context", 0),
        "obsv.compound_system.calls": c["obsv.compound_systems"],
        "obsv.ext_pos.calls": calls.get("lti.ext_pos", 0),
        "linalg.det.calls": calls.get("linalg.det", 0),
        "linalg.inverse.errors": c["linalg.inverse.errors"],
        "oracle.trials": c["oracle.trials"],
        "variation.calls": calls.get("variation", 0),
        "io.trace_rows": c["io.trace_rows"],
        "lti.tail_route.eigen": c["lti.tail_route.eigen"],
        "lti.tail_route.recurrence": c["lti.tail_route.recurrence"],
        "lti.tail_route.zeros": c["lti.tail_route.zeros"],
        "lti.tail_route.none": c["lti.tail_route.none"],
    }
    for name, value in counted.items():
        out[name] = (value / per_job, "count/job")
    out["io.report_bytes"] = (c["io.report_bytes"] / per_job, "bytes/job")
    out["lti.impulse.sample_bits_max"] = (
        float(tracer.maxima.get("lti.impulse.sample_bits_max", 0)), "bits")
    out["lti.min_recurrence.hit_ratio"] = (
        _ratio(c["lti.min_recurrence.hits"], calls.get("lti.min_recurrence", 0)), "ratio")
    out["lti.dominant_tail.cert_ratio"] = (
        _ratio(c["lti.dominant_tail.certs"], calls.get("lti.dominant_tail", 0)), "ratio")
    out["oracle.suspect_ratio"] = (_ratio(c["oracle.suspects"], c["oracle.trials"]), "ratio")
    out["bench.overhead_s"] = ((traced_wall - layer_sum) / per_job, "s/job")
    out["trace.jobs_per_s"] = (traced_jps, "1/s")
    out["trace.untraced_jobs_per_s"] = (untraced_jps, "1/s")
    out["trace.overhead_ratio"] = (_ratio(untraced_jps, traced_jps), "ratio")
    for name in missing_metrics(tracer.resolved, out):
        out[name] = (None, out[name][1])
    return out


# metrics fed by a probe other than the span their name starts with
_SOURCES = {
    "obsv.ext_pos.calls": "lti.ext_pos",
    "obsv.compound_system.calls": "obsv.compound_system",
    "lti.tail_route": "lti.ext_pos",
    "lti.min_recurrence.solves": "varsign.lti._solve_exact_consistent",
    "oracle.trials": "oracle.search",
    "oracle.suspect_ratio": "oracle.search",
    "io.trace_rows": "varsign.io.write_traces",
    "io.report_bytes": "varsign.io.write_report",
}


def metric_source(name: str) -> str:
    for prefix, source in _SOURCES.items():
        if name == prefix or name.startswith(prefix + "."):
            return source
    return name.rsplit(".", 1)[0]


def missing_metrics(resolved, metrics) -> list[str]:
    """Layer metrics whose every probe target is gone.  Span names of the
    bench itself (``bench.*``, ``trace.*``) are never missing."""
    return sorted(name for name in metrics
                  if not name.startswith(("bench.", "trace."))
                  and metric_source(name) not in resolved)
