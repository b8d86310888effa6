#!/usr/bin/env python3
"""Self-test of the campaign benchmark.

Usage, from the repository root:

    python3 perfbench/selftest/selftest.py

It runs a tiny-budget smoke of every workload through perfbench/run.py:
once untraced at the default seed, once untraced at the held-out seed,
and twice traced at the default seed. It checks that

  * every run exits 0, reports correct and no failed schedules;
  * untraced runs print every end_to_end metric of BENCHMARK.json and
    traced runs every per_layer metric, each with its declared unit;
  * every exact counter repeats bit-for-bit across the two traced runs;
  * on every workload the layer shares sum to within 5% of traced wall
    time;
  * an unknown workload exits nonzero without printing a result.

It takes a few minutes and exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DEFAULT_SEED = "41"
HELD_OUT_SEED = "7"
SECONDS = "1"

# Every workload the benchmark implements: BENCHMARK.json's, plus
# explore-uni, which runs by name only (see perfbench/layers.json).
WORKLOADS = ["explore-uni", "explore-mp", "certify-faults", "sample-pct"]

# Counters that are outputs of the program (or, for allocation, of the
# runtime at one domain) rather than timings.
EXACT = [
    "sim.stmts",
    "adversary.engine_runs",
    "adversary.verdict_runs",
    "adversary.blocked_prefixes",
    "adversary.pruned_branches",
    "faults.plans",
    "faults.passed",
    "faults.blocked",
    "gc.alloc_words_per_schedule",
]

failures = []


def fail(msg):
    failures.append(msg)
    print("FAIL:", msg, flush=True)


def run(workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", seed, "--seconds", SECONDS, "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


def check_result(label, code, result, stderr, declared):
    if code != 0 or result is None:
        fail(f"{label}: exit {code}\n{stderr}")
        return None
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: correct={result['correct']} failed={result['failed']} "
             f"attempted={result['attempted']}")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        fail(f"{label}: metrics {sorted(got.items())} != declared {sorted(want.items())}")
    return metrics


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            code, result, err = run(w, seed, 0)
            m = check_result(f"{w} seed {seed} untraced", code, result, err,
                             bench["end_to_end"])
            if m is not None:
                print(f"ok  {w} seed {seed} untraced: "
                      f"{m['schedules_per_s']['value']:.1f} schedules/s", flush=True)
        traced = []
        for i in range(2):
            code, result, err = run(w, DEFAULT_SEED, 1)
            traced.append(check_result(f"{w} traced #{i + 1}", code, result, err,
                                       bench["per_layer"]))
        a, b = traced
        if a is None or b is None:
            continue
        for k in EXACT:
            if a[k]["value"] != b[k]["value"]:
                fail(f"{w}: {k} differs across invocations: "
                     f"{a[k]['value']} vs {b[k]['value']}")
        for i, m in enumerate(traced):
            s = m["bench.share_sum"]["value"]
            if abs(s - 1.0) > 0.05:
                fail(f"{w} traced #{i + 1}: layer shares sum to {s:.4f} of wall time")
        print(f"ok  {w} traced: exact counters repeat; shares sum to "
              f"{a['bench.share_sum']['value']:.4f}", flush=True)
    code, result, _ = run("no-such-workload", DEFAULT_SEED, 0)
    if code == 0 or result is not None:
        fail("an unknown workload must exit nonzero without a result")
    print("selftest:", "FAILED" if failures else "passed", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
