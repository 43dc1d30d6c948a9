#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Checks, from the repository root:
  1. the same seed gives byte-identical inputs (two processes dump a digest
     of every generated input), and another seed gives different ones;
  2. the calibration kernel reads the same after a burst of OCaml
     allocation, which every op is, as after a write sweep over 64 MiB,
     more than any op touches (within CALIB_TOLERANCE);
  3. every exact count of the traced run (allocation in kw, states,
     transitions, pairs, nodes, cache hits/misses, corpus entries/events/
     bytes) repeats exactly, op by op, between two traced runs of each
     workload on the default seed and on the held-out seed, each of OPS
     ops per phase;
  4. every traced run answers correctly and reports exactly the per-layer
     metrics BENCHMARK.json names.
Exits 1 on the first failure.
"""

import json
import os
import sys

import run as run_py

WORK = os.path.join(run_py.ROOT, ".perfbench")
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
OPS = 6
CALIB_TOLERANCE = 0.10


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def run(args):
    out = run_py.run(args, capture=True)
    if out.returncode != 0:
        fail("%s exited %d\n%s%s" % (" ".join(args), out.returncode,
                                     out.stdout[-2000:], out.stderr[-2000:]))
    return out.stdout


def exact_counts(workload, seed):
    res = json.loads(run(["--workload", workload, "--seed", str(seed),
                          "--trace", "1", "--ops", str(OPS)]
                         ).strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        fail("%s seed %d: wrong answers in the traced run" % (workload, seed))
    path = os.path.join(WORK, "%s-seed%d.ops.jsonl" % (workload, seed))
    with open(path) as f:
        return res, [json.loads(line) for line in f]


def main():
    run_py.build()
    with open(os.path.join(run_py.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    layer_names = [m["name"] for m in bench["per_layer"]]

    a = run(["--dump-inputs", "--seed", str(DEFAULT_SEED)])
    b = run(["--dump-inputs", "--seed", str(DEFAULT_SEED)])
    c = run(["--dump-inputs", "--seed", str(HELD_OUT_SEED)])
    if a != b:
        fail("seed %d gave different inputs in two processes" % DEFAULT_SEED)
    # single items drawn from small domains may coincide; each workload's
    # inputs as a whole must differ (the fleet spec script is fixed)
    def by_workload(dump):
        groups = {}
        for line in dump.splitlines():
            item = line.split()[0]
            if item != "fleet-trace/specs":
                groups.setdefault(item.split("/")[0], []).append(line)
        return groups
    ga, gc = by_workload(a), by_workload(c)
    same = [w for w in ga if ga[w] == gc.get(w)]
    if same:
        fail("seeds %d and %d give the same inputs for %s"
             % (DEFAULT_SEED, HELD_OUT_SEED, same))
    print("ok: inputs are byte-identical per seed (%d items)" % len(a.splitlines()))

    kernel = json.loads(run(["--calib-check"]).strip().splitlines()[-1])
    gap = kernel["sweep"] / kernel["alloc"] - 1
    print("calibration kernel (ms): idle %.3f, alloc %.3f, sweep %.3f"
          % (kernel["idle"], kernel["alloc"], kernel["sweep"]))
    if abs(gap) > CALIB_TOLERANCE:
        fail("the kernel reads %.1f%% apart after allocation and after a sweep"
             % (100 * gap))
    print("ok: kernel after allocation and after a sweep %.1f%% apart"
          % (100 * gap))

    for w in [w["name"] for w in bench["workloads"]]:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            res1, ops1 = exact_counts(w, seed)
            res2, ops2 = exact_counts(w, seed)
            if list(res1["metrics"]) != layer_names:
                fail("%s: traced metrics differ from BENCHMARK.json per_layer" % w)
            if not ops1 or ops1 != ops2:
                diff = [(x, y) for x, y in zip(ops1, ops2) if x != y][:3]
                fail("%s seed %d: exact counts differ between runs: %s"
                     % (w, seed, diff))
            n = sum(len(o["exact"]) for o in ops1)
            print("ok: %s seed %d: %d exact counts over %d ops repeat"
                  % (w, seed, n, len(ops1)))
    print("selftest passed")


if __name__ == "__main__":
    main()
