#!/usr/bin/env python3
"""Build and run the serving-stack benchmark for one workload.

    python3 perfbench/run.py --workload inproc-batches --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Builds perfbench.exe and the
toposearch binary (the shard server that the traced inproc-batches run
spawns) with dune, then runs one workload.  Everything it writes stays in the checkout
(_build/ and .perfbench-tmp/).  The last line of standard output is the
JSON result; the exit code is non-zero, with no result line, when the
build or the run fails, and 1 with "correct": false when an answer
differs from the reference.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("inproc-batches", "zipf-open")
TARGETS = ("perfbench/perfbench.exe", "bin/toposearch.exe")
BUILT = "_build/default/"
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(need):
            print(f"run.py: {need} not found: run from the root of a source checkout",
                  file=sys.stderr)
            return 2

    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", "."] + ["./" + t for t in TARGETS],
                           env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    bench, toposearch = (BUILT + t for t in TARGETS)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--toposearch", toposearch]
    # Own process group, so a timeout also stops the shard processes.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2
    if proc.returncode not in (0, 1):
        sys.stderr.write(out)
        print(f"run.py: benchmark exited with {proc.returncode}", file=sys.stderr)
        return 2
    result = json.loads(out.rstrip("\n").split("\n")[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("run.py: malformed result line", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
