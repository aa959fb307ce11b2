#!/usr/bin/env python3
"""Toy-size smoke run of the benchmark itself.

    python3 perfbench/smoke.py

On a few cases of each workload it checks that:

- an untraced run prints exactly the end-to-end metrics of BENCHMARK.json
  and a traced run exactly its per-layer metrics, each with its unit;
- the work counters of two traced runs with one seed are identical;
- a corrupted compile reference count is caught as failed ops;
- run.py refuses, without printing a result, in a directory that holds
  only BENCHMARK.json and the benchmark's own files.

It prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

TOY_CASES = 4
SEED = 1


def toy(workload, trace, **kwargs):
    return run.run(workload, SEED, seconds=0, trace=trace, limit=TOY_CASES,
                   min_ops=1, setup_repeats=1, **kwargs)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            doc, errors, _raw = toy(workload, trace)
            metrics = doc["metrics"]
            check(doc["correct"] and doc["failed"] == 0 and not errors,
                  f"{workload} trace={trace}: correct, no failed ops {errors}")
            check(set(metrics) == wanted[trace]
                  and all(m["unit"] == units[k] for k, m in metrics.items()),
                  f"{workload} trace={trace}: every metric, with its unit")
            if trace:
                counts.append({k: m["value"] for k, m in metrics.items()
                               if m["unit"] == "count"})
        check(counts[0] == counts[1],
              f"{workload}: counters repeat exactly across runs")

    import workloads

    reference = workloads.load_reference()
    bench = workloads.Compile(SEED, limit=TOY_CASES)
    victim = bench.cases[0].name
    corrupted = dict(reference)
    corrupted[victim] = dict(reference[victim],
                             declared_vars=reference[victim]["declared_vars"] + 1)
    doc, _errors, _raw = toy("compile", 0, reference=corrupted)
    check(not doc["correct"] and doc["failed"] > 0,
          f"compile: corrupted reference count for {victim} is caught")

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        spec["command"] + ["--workload", "eval", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "refuses without the program's sources, printing no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
