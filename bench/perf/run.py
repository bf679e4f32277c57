#!/usr/bin/env python3
"""Build the benchmark and run one workload, then print one JSON result.

Run from the root of a source checkout:

    python3 bench/perf/run.py --workload read --seed 3 --seconds 10 --trace 0

It builds bench/perf/perf.exe with dune, runs the workload (see
bench/perf/README.md), echoes the benchmark's own output, and prints as
its last line one JSON object with the keys "correct", "attempted",
"failed" and "metrics".  With --trace 0 the metrics are the end-to-end
metrics named in BENCHMARK.json; with --trace 1 they are its per-layer
metrics, from a traced run whose Chrome traces go to bench/perf/out/.
A failed build or a malformed result exits non-zero without printing a
result; a run whose outputs fail the oracle prints "correct": false and
exits 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "bench", "perf", "perf.exe")
OUT = os.path.join("bench", "perf", "out")


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    # the shared dune cache lives outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", EXE], env=env
    )
    if r.returncode != 0:
        die("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace", OUT]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(r.stdout)

    seen = {}
    for line in r.stdout.splitlines():
        f = line.split()
        if len(f) >= 4 and f[0] == args.workload:
            seen[f[1]] = (float(f[2]), f[3])
    try:
        attempted = int(seen["attempted"][0])
        failed = int(seen["failed"][0])
        metrics = {m["name"]: {"value": seen[m["name"]][0],
                               "unit": seen[m["name"]][1]} for m in wanted}
    except KeyError as e:
        die("the benchmark printed no %s" % e)
    correct = r.returncode == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
