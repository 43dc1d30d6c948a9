#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report

Run from the repository root. The harness (perfbench/main.ml) is built with
dune inside the checkout, then run with the same arguments; its last
stdout line is the result object. Exits non-zero when the build fails, the
run fails, or any op's answer was wrong.

--report runs every workload of BENCHMARK.json twice on seed 1 for
run_seconds, untraced and traced, and prints one table: the end-to-end
metrics, then the per-layer metrics beside them, one column per workload.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """dune build of the harness only; dune's own output goes to stderr.
    The shared dune cache is off and temporary files go to .perfbench/tmp,
    so the build writes nothing outside the checkout."""
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: no dune-project at %s: not a source checkout" % ROOT)
    tmp = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "./perfbench/main.exe"],
        cwd=ROOT,
        env=dict(os.environ, TMPDIR=tmp),
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % proc.returncode)


def run(argv, capture=False):
    """Run the built harness from the checkout's root; exit on timeout."""
    try:
        return subprocess.run([EXE] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              capture_output=capture, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


def report():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seed, seconds = "1", str(bench["run_seconds"])
    names = [w["name"] for w in bench["workloads"]]
    results, ok = {}, True
    for w in names:
        for trace in ("0", "1"):
            out = run(["--workload", w, "--seed", seed, "--seconds", seconds,
                       "--trace", trace], capture=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            ok = ok and out.returncode == 0 and res["correct"]
            for m, v in res["metrics"].items():
                results.setdefault(m, {"unit": v["unit"]})[w] = v["value"]
    print("%-30s %-6s" % ("seed %s, %s s" % (seed, seconds), "unit")
          + "".join("%14s" % w for w in names))
    for section in ("end_to_end", "per_layer"):
        print("-- " + section)
        for m in bench[section]:
            row = results[m["name"]]
            print("%-30s %-6s" % (m["name"], row["unit"])
                  + "".join("%14.4f" % row[w] for w in names))
    print("all answers correct" if ok else "WRONG ANSWERS")
    return 0 if ok else 1


def main(argv):
    build()
    if argv == ["--report"]:
        return report()
    return run(argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
