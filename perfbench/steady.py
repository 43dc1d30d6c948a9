#!/usr/bin/env python3
"""Run one or more workloads over ten seeds and report each end-to-end
metric's spread: the distance between the first and third quartile of the
runs, as a share of their median (statistics.quantiles(values, n=4)).

    python3 perfbench/steady.py [WORKLOAD ...]

Every workload of BENCHMARK.json by default; runs last its run_seconds and
use seeds 1 to 10. A spread above a third of the metric's bound is flagged;
setup_s is reported but has no spread bound. Results of every run are
appended as JSON lines to .perfbench/steady.jsonl.
"""

import json
import os
import statistics
import sys

import run as run_py

RUNS = 10
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = run_py.run(args, capture=True)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    if out.returncode != 0 or not last.startswith("{"):
        sys.exit("run failed: %s seed %d (exit %d)\n%s" %
                 (workload, seed, out.returncode, out.stderr[-2000:]))
    return json.loads(last)


def main(workloads):
    with open(os.path.join(run_py.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    run_py.build()
    log = open(os.path.join(run_py.ROOT, ".perfbench", "steady.jsonl"), "a")
    worst = 0.0
    for w in workloads:
        values = {m: [] for m in bounds}
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            res = run_once(w, seed, seconds)
            if not res["correct"] or res["failed"]:
                sys.exit("%s seed %d: wrong answers" % (w, seed))
            log.write(json.dumps({"workload": w, "seed": seed, **res}) + "\n")
            log.flush()
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        print("%s (%d runs, %d s)" % (w, RUNS, seconds))
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if m != "setup_s":
                worst = max(worst, spread / bounds[m])
                if spread > bounds[m] / 3:
                    flag = "  > bound/3"
            print("  %-16s median %10.4f  spread %6.2f%%  (bound %g%%)%s" %
                  (m, med, 100 * spread, 100 * bounds[m], flag))
    print("worst spread / bound: %.2f" % worst)


if __name__ == "__main__":
    main(sys.argv[1:])
