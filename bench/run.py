"""Benchmark of the preictal pipeline: one workload, one seed, one command.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Each phase runs in a fresh child process
(bench/child.py), one at a time, with the working tree's src/ first on its
path and the BLAS and OpenMP thread counts pinned to 1:

1. set-up: the inputs are made from the seed with the program's own writers,
   at least three times and until two seconds have been spent (at most 25
   times); setup_s is the median.
2. timed: whole rounds of the workload's operations until --seconds have
   passed (and at least the workload's minimum of rounds); segments_per_s is
   the median, over the timed units of equal work (one `all` run, or one
   round of the nine training pairs), of segments / seconds; peak_rss_mb the child's peak resident set before
   the checks, out_mb the bytes under the output directory at the end. The
   outputs are then checked against independent computations.
3. with --trace 1 only: one set-up and one round again, with spans around the
   program's calls; the per-layer metrics are printed instead, with the
   tracing overhead against the untraced round.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The line before it records the run's details (library
versions, nproc, every round, any failed check).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench-runs"
WORKLOADS = ("csv_1h_spectrogram", "edf_scalogram", "threshold_sweep", "train_grid")
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
DEADLINE_S = 170.0
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    env.update({var: "1" for var in PINNED})
    return env


def run_child(args: list, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark run out of time")
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *map(str, args)],
                          env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=remaining, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "preictal" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        common = [args.workload, args.seed, work]
        setup = run_child(["setup", *common, 0 if args.trace else SETUP_MIN_S,
                           1 if args.trace else SETUP_REPEATS], deadline)
        # a traced run needs one untraced round only, to measure its own overhead
        timed = run_child(["timed", *common, 0 if args.trace else args.seconds,
                           1 if args.trace else 0], deadline)
        rounds = timed["rounds"]
        details = {"workload": args.workload, "seed": args.seed, "env": timed["env"],
                   "setup_s": setup["setup_s"], "rounds": rounds,
                   "problems": timed["problems"]}
        if args.trace:
            untraced = sum(seconds for _, seconds in rounds[0]["units"])
            traced = run_child(["traced", *common, untraced, 0], deadline)
            metrics = {name: metric(value, LAYER_METRICS[name][0])
                       for name, value in traced["metrics"].items()}
            details["traced_round_s"] = traced["round_s"]
        else:
            metrics = {
                "setup_s": metric(statistics.median(setup["setup_s"]), "s"),
                "segments_per_s": metric(statistics.median(
                    n / seconds for r in rounds for n, seconds in r["units"]), "1/s"),
                "peak_rss_mb": metric(timed["peak_rss_mb"], "MB"),
                "out_mb": metric(timed["out_mb"], "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("details: " + json.dumps(details))
    print(json.dumps({"correct": not timed["problems"],
                      "attempted": sum(r["attempted"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
