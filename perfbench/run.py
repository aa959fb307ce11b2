#!/usr/bin/env python3
"""Run one workload of the dilogic benchmark and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports the program from
``src/`` of that checkout and refuses to run without it.  The workloads
are described in ``workloads.py`` and ``BENCHMARK.json``.

Each run is a closed loop of one client in one process: ops run one after
another, cycling through the workload's panel, until ``--seconds`` have
passed, ``MIN_REPEATS`` passes are complete and (untraced) at least
``MIN_OPS`` ops have run.  Before timing starts the workload's inputs are
built and frozen out of the garbage collector, and in each pass a case's
first op starts from a collected heap, as it would in a fresh ``dilogic``
command.  Every op's output is checked, its closed-form work counters
must repeat exactly on every pass, and the last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it start with ``#``: the environment (Python, nproc,
commit, seed), any errors, ``failed_ratio`` (failed over attempted ops)
and every metric with its unit.  ``perfbench/smoke.py`` checks the
benchmark itself at toy size.

Times are the process's CPU seconds (see ``hostspeed.py``).  A case
whose op is cheap runs several times in a row in each pass, until it has
run for ``CASE_S_PER_PASS``; its time in the pass is the median.  Each
such time is scaled to a reference host speed by a kernel timed between
and inside ops (see ``hostspeed.py``), and the timings rest on each case's
median over the passes, so a burst of load on the host that slows one
pass of a case does not move them: ``op_s_p50`` and ``op_s_p90`` are
percentiles over the cases' medians, and ``ops_per_s`` is the panel's
case count over the sum of the medians.  ``setup_s`` is the median of
fresh-process set-ups, each scaled by kernel samples that its process
takes.  The unscaled metrics are printed as ``# raw.`` lines.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under span wrappers on the layers' public
functions; it reports per-layer calls, busy and self time per traced
pass, the work counters of one pass, and the tracing overhead: traced
over untraced op time, minus one.  The spans are written to
``.bench_out/spans-<workload>-seed<seed>.json.gz`` when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MIN_OPS = 100        # per untraced run, so p90 rests on ten ops or more
MIN_REPEATS = 2      # passes over the panel in an untraced run
CASE_S_PER_PASS = 0.05  # a cheap case reruns in a pass until it used this
SETUP_REPEATS = 11   # fresh-process set-ups per run; setup_s is the median
SETUP_SAMPLES = 10   # kernel samples before and after each set-up

LAYERS = (
    "op",
    "formula",
    "transform",
    "transform.levels",
    "transform.complement",
    "integral.level_set",
    "mba.enumerate",
    "mba.maximal",
    "mba.monotone",
    "integral.oracle",
    "jsonio",
)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "dilogic", "__init__.py")):
        sys.exit(f"run.py: no dilogic sources under {SRC}; run it from the "
                 "root of a dilogic checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads  # noqa: E402  (needs the paths above)
    return workloads


def environment(workload, seed, seconds, trace):
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def measure_setup(workload, seed, repeats):
    """CPU time of a fresh interpreter that imports dilogic and builds the
    workload's inputs, as a user's first command pays it.  Each set-up
    runs in its own process, which times the kernel before and after its
    work (see ``setup_only``).  Returns the median scaled time and the
    median raw time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    scaled, raw = [], []
    for _ in range(repeats):
        out = subprocess.run(cmd, cwd=ROOT, check=True, text=True,
                             stdout=subprocess.PIPE).stdout
        cpu_s, scale = map(float, out.split())
        raw.append(cpu_s)
        scaled.append(cpu_s * scale)
    return statistics.median(scaled), statistics.median(raw)


def setup_only(workload, seed):
    """Build the workload's inputs in this fresh process; print its CPU
    seconds so far, kernel samples left out, and their scale from kernel
    samples taken just before and after the work."""
    host = hostspeed.HostSpeed()
    for _ in range(SETUP_SAMPLES):
        host.sample()
    _import_program().WORKLOADS[workload](seed)
    for _ in range(SETUP_SAMPLES):
        host.sample()
    print(host.clock(), host.scale(host.at[0], host.at[-1]))


class Judge:
    """Checks each op's output as the run goes, keeping one observation per
    case, so memory does not grow with the number of ops.

    An op fails when it raised, when one of its verdicts failed, when its
    fingerprint or counters differ from its case's first pass, or when its
    case fails the workload's reference check at the end.
    """

    def __init__(self):
        self.first = {}   # case name -> first Observation
        self.passed = {}  # case name -> ops that passed so far
        self.failed = 0
        self.errors = []

    def record(self, case, obs, error):
        if error is None and not obs.ok:
            error = "a verdict failed"
        if error is None:
            base = self.first.setdefault(case.name, obs)
            if (obs.fingerprint, obs.counters) != (base.fingerprint,
                                                   base.counters):
                error = "output or counters differ between passes"
        if error is None:
            self.passed[case.name] = self.passed.get(case.name, 0) + 1
        else:
            self.failed += 1
            self.errors.append(f"{case.name}: {error}")

    def finish(self, bench):
        """Apply the reference checks; return one pass's work counters."""
        for case in bench.cases:
            obs = self.first.get(case.name)
            if obs is not None and not bench.check(case, obs.fingerprint):
                self.failed += self.passed.pop(case.name, 0)
                self.errors.append(f"{case.name}: differs from the reference")
        counters = {}
        for obs in self.first.values():
            for key, value in obs.counters.items():
                counters[key] = counters.get(key, 0) + value
        return counters


def run_op(bench, judge, case, tracer=None, clock=time.perf_counter):
    """Run one op; return its seconds.  Only the op itself is timed;
    observing and judging its output is not."""
    from dilogic.errors import DilogicError

    t0 = clock()
    try:
        if tracer is None:
            out = bench.op(*case.args)
        else:
            out = tracer.run_op(bench.op, *case.args)
    except DilogicError as exc:
        seconds = clock() - t0
        judge.record(case, None, f"{type(exc).__name__}: {exc}")
        return seconds
    seconds = clock() - t0
    judge.record(case, bench.observe(*case.args, out), None)
    return seconds


def run_pass(bench, judge, tracer=None):
    """One pass over the panel; returns each op's seconds."""
    times = []
    for case in bench.cases:
        gc.collect()
        times.append(run_op(bench, judge, case, tracer))
    return times


def run_timed(bench, judge, seconds, min_ops, min_repeats):
    """Cycle through the panel until the run is long enough.  In each pass
    a case's op runs on a collected heap, and again until it has run for
    CASE_S_PER_PASS.  Returns the number of ops run and, keyed by case
    name, the case's median op time in each pass, raw and scaled to the
    reference host speed."""
    host = hostspeed.HostSpeed()
    groups = []  # (case name, median op seconds, ops, start, end) per pass
    ops = 0
    passes = 0
    done = False
    with host:
        start = time.perf_counter()
        while not done:
            for case in bench.cases:
                gc.collect()
                begin = time.perf_counter()
                runs, spent = [], 0.0
                while spent < CASE_S_PER_PASS:
                    runs.append(run_op(bench, judge, case, clock=host.clock))
                    spent += runs[-1]
                groups.append((case.name, statistics.median(runs), len(runs),
                               begin, time.perf_counter()))
                ops += len(runs)
                done = (passes >= min_repeats and ops >= min_ops
                        and time.perf_counter() - start >= seconds)
                if done:
                    break
            passes += 1
    raw = {case.name: [] for case in bench.cases}
    scaled = {case.name: [] for case in bench.cases}
    for name, op_s, count, begin, end in groups:
        raw[name].append(op_s)
        # One op takes the host's mean speed over its run; the median of
        # several short ops takes a typical speed around them.
        trim = 0.0 if count == 1 else hostspeed.TRIM
        scaled[name].append(op_s * host.scale(begin, end, trim))
    return ops, raw, scaled


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(times, peak_rss_mb, setup_s):
    medians = [statistics.median(t) for t in times.values()]
    cuts = statistics.quantiles(medians, n=100, method="inclusive")
    return {
        "ops_per_s": _metric(len(medians) / sum(medians), "1/s"),
        "op_s_p50": _metric(cuts[49], "s"),
        "op_s_p90": _metric(cuts[89], "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }


def per_layer_metrics(tracer, traced_passes, counters, overhead):
    n = traced_passes
    op_busy = tracer.layers["op"].busy_s / n
    out = {}
    for layer in LAYERS:
        totals = tracer.layers.get(layer)
        calls, busy, self_s = ((totals.calls, totals.busy_s, totals.self_s)
                               if totals else (0, 0.0, 0.0))
        out[f"{layer}.calls"] = _metric(calls // n, "count")
        out[f"{layer}.busy_s"] = _metric(busy / n, "s")
        out[f"{layer}.self_s"] = _metric(self_s / n, "s")
        if layer != "op":
            out[f"{layer}.share"] = _metric(busy / n / op_busy, "ratio")
    for key, value in counters.items():
        out[key] = _metric(value, "count")
    level_sets = counters["transform.levels.level_sets"]
    out["transform.levels.useful_ratio"] = _metric(
        counters["transform.levels.read_vars"] / level_sets
        if level_sets else 0.0, "ratio")
    out["trace.overhead_ratio"] = _metric(overhead, "ratio")
    return out


def install_tracer(workloads):
    """Wrap the public function(s) of each layer in spans."""
    import spans

    mba = workloads.mba

    def eval_mba_layer(args, kwargs):
        mode = kwargs.get("mode", args[3] if len(args) > 3 else mba.MAXIMAL)
        return "mba.enumerate" if mode == mba.ENUMERATE else "mba.maximal"

    tracer = spans.Tracer()
    tracer.wrap(workloads.fm, "parse_formula", "formula")
    tracer.wrap(workloads.fm, "rewrite_inf", "formula")
    tracer.wrap(workloads.tr, "transform", "transform")
    tracer.wrap(workloads.tr, "build_level_assignment", "transform.levels")
    tracer.wrap(workloads.tr, "complement_identity_holds",
                "transform.complement")
    tracer.wrap(workloads.di, "level_set", "integral.level_set")
    tracer.wrap(workloads.di, "eval_on_integral", "integral.oracle")
    tracer.wrap(mba, "eval_mba", eval_mba_layer)
    tracer.wrap(mba, "check_monotone", "mba.monotone")
    tracer.wrap(workloads, "emit_document", "jsonio")
    return tracer


def run(workload, seed, seconds, trace, limit=None, min_ops=MIN_OPS,
        min_repeats=MIN_REPEATS, setup_repeats=SETUP_REPEATS,
        reference=None, spans_path=None):
    """Run one workload; return the result document, error lines and the
    unscaled end-to-end metrics (none in a traced run)."""
    workloads = _import_program()

    kwargs = {"reference": reference} if reference is not None else {}
    setup_s, raw_setup_s = measure_setup(workload, seed, setup_repeats)
    bench = workloads.WORKLOADS[workload](seed, limit=limit, **kwargs)
    # The inputs live for the whole run; keep them out of every collection
    # an op triggers, as a fresh command's heap holds no such inputs.
    gc.collect()
    gc.freeze()

    judge = Judge()
    if not trace:
        attempted, raw, scaled = run_timed(bench, judge, seconds, min_ops,
                                           min_repeats)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # Untraced and traced passes alternate, so the overhead compares
        # passes run under the same conditions.
        tracer = install_tracer(workloads)
        untraced, traced, calls_per_pass = [], [], []
        start = time.perf_counter()
        while True:
            untraced.append(run_pass(bench, judge))
            before = tracer.layer_calls()
            with tracer:
                traced.append(run_pass(bench, judge, tracer))
            after = tracer.layer_calls()
            calls_per_pass.append({k: v - before.get(k, 0)
                                   for k, v in after.items()})
            if time.perf_counter() - start >= seconds:
                break
        attempted = sum(map(len, untraced + traced))
    counters = judge.finish(bench)
    errors = judge.errors
    raw_metrics = {}
    if not trace:
        metrics = end_to_end_metrics(scaled, peak_rss_mb, setup_s)
        raw_metrics = end_to_end_metrics(raw, peak_rss_mb, raw_setup_s)
    else:
        if any(c != calls_per_pass[0] for c in calls_per_pass):
            errors.append("layer call counts differ between traced passes")
        overhead = (sum(map(sum, traced)) / sum(map(sum, untraced))) - 1
        metrics = per_layer_metrics(tracer, len(traced), counters, overhead)
        if spans_path:
            tracer.dump(spans_path, environment(workload, seed, seconds, 1))
    doc = {
        "correct": judge.failed == 0 and not errors,
        "attempted": attempted,
        "failed": judge.failed,
        "metrics": metrics,
    }
    return doc, errors, raw_metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "compile", "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    spans_path = None
    if args.trace:
        spans_path = os.path.join(
            ROOT, ".bench_out",
            f"spans-{args.workload}-seed{args.seed}.json.gz")
    doc, errors, raw_metrics = run(args.workload, args.seed, args.seconds, args.trace,
                      spans_path=spans_path)
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    print("# env " + json.dumps(env, sort_keys=True))
    for line in errors[:20]:
        print("# error " + line)
    failed_ratio = doc["failed"] / doc["attempted"]
    print(f"# failed_ratio {failed_ratio} ({doc['failed']} of "
          f"{doc['attempted']} ops)")
    for name, m in sorted(doc["metrics"].items()):
        print(f"# {name} = {m['value']} {m['unit']}")
    for name, m in sorted(raw_metrics.items()):
        print(f"# raw.{name} = {m['value']} {m['unit']}")
    print(json.dumps(doc, sort_keys=True))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
