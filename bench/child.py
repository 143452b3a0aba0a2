"""One phase of one benchmark run, in a process of its own.

    python3 bench/child.py <setup|timed|traced> <workload> <seed> <work dir> <seconds> <count>

setup:  sets the inputs up at least <count> times, and again until <seconds>
        have been spent (at most 25 times); reports each set-up time.
timed:  runs rounds until <seconds> have passed and at least <count> rounds
        ran, records the peak resident set, then checks the outputs.
traced: one set-up and one round with spans around the program's calls,
        reported as per-layer metrics; <seconds> is the untraced round's
        time, against which the tracing overhead is reported.

The last line of standard output is a JSON object with the phase's results.
run.py starts these processes; see it for the environment they get.
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import spans
import workloads

MAX_SETUPS = 25


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def setup(work, seed: int, root: Path, seconds: float, count: int) -> dict:
    times: list[float] = []
    while len(times) < count or (sum(times) < seconds and len(times) < MAX_SETUPS):
        times.append(work.setup(root / "inputs", seed))
    return {"setup_s": times}


def timed(work, seed: int, root: Path, seconds: float, count: int) -> dict:
    inputs, rounds, outs = root / "inputs", [], []
    minimum = count or work.min_rounds
    start = time.perf_counter()
    while len(rounds) < minimum or time.perf_counter() - start < seconds:
        out = root / f"round{len(rounds)}"
        rnd = work.round(inputs, out)
        rounds.append({"units": rnd.units, "attempted": rnd.attempted, "failed": rnd.failed})
        outs.append(out)
        if len(outs) > 2:     # the checks compare the first round with the last
            shutil.rmtree(outs.pop(1))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out_bytes = checks.tree_bytes(work.out_dir(inputs, outs[-1]))
    return {"rounds": rounds, "peak_rss_mb": peak_kb * 1024 / 1e6,
            "out_mb": out_bytes / 1e6, "problems": work.check(inputs, outs)}


def traced(work, name: str, seed: int, root: Path, untraced_round_s: float) -> dict:
    with spans.Tracer() as tracer:
        work.setup(root / "traced_inputs", seed)
        rnd = work.round(root / "traced_inputs", root / "traced_round")
    tracer.dump(root.parent / f"trace-{name}-s{seed}.json")
    metrics = spans.per_layer_metrics(tracer, rnd.wall_s - untraced_round_s)
    return {"round_s": rnd.wall_s, "metrics": metrics}


def main(argv: list[str]) -> int:
    phase, name, seed, root, seconds, count = argv
    work, seed, root = workloads.WORKLOADS[name], int(seed), Path(root)
    if phase == "setup":
        result = setup(work, seed, root, float(seconds), int(count))
    elif phase == "timed":
        result = timed(work, seed, root, float(seconds), int(count))
    else:
        result = traced(work, name, seed, root, float(seconds))
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
