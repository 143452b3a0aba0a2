#!/usr/bin/env python3
"""The staged pipeline end-to-end on a generated record: write the fixture,
run `all`, then show the cache behavior (with why each stage last ran) and the
emitted artifacts.  It works in a temporary directory, removed when it ends."""
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from preictal.ingest import (SyntheticEvent, SyntheticSpec, generate_synthetic,
                             serialize_annotations, serialize_csv)
from preictal.pipeline import STAGES


def cli(work: Path, *args):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "preictal.cli", *args,
                           "--config", str(work / "run.cfg")])
    print(f"  -> exit {proc.returncode} in {time.perf_counter() - t0:.1f}s")
    return proc.returncode


def main(work: Path):
    print(f"working in {work}")
    spec = SyntheticSpec(
        duration_s=7200.0, base_hr_bpm=90.0, noise_std=0.02, hrv_bpm=5.0,
        events=(SyntheticEvent(onset_s=3000.0, preictal_lead_s=1800.0,
                               hr_ramp_bpm=30.0, jitter_std=0.3),
                SyntheticEvent(onset_s=5700.0, preictal_lead_s=1800.0,
                               hr_ramp_bpm=30.0, jitter_std=0.3)),
        rng_seed=9,
    )
    record = generate_synthetic(spec)
    (work / "record.csv").write_text(serialize_csv(record))
    (work / "annotations.csv").write_text(serialize_annotations(record.annotations))
    (work / "run.cfg").write_text(f"""\
record = {work}/record.csv
annotations = {work}/annotations.csv
patient_id = demo
seed = 0
out = {work}/out
""")

    print("running every stage:")
    cli(work, "all")
    print("running again (all stages cached):")
    cli(work, "all")
    print("running with k = 3 (only evaluate and report re-run):")
    with (work / "run.cfg").open("a") as f:
        f.write("k = 3\n")
    cli(work, "all")

    manifest = json.loads((work / "out" / "manifest.json").read_text())
    print("stage wall-clock seconds, and why each stage last ran:")
    for stage in STAGES:
        entry = manifest["stages"][stage]
        print(f"  {stage:10s} {entry['wall_clock_s']:8.3f}s  {entry['reason']}")

    evaluation = json.loads((work / "out" / "evaluation.json").read_text())
    print("threshold:", {k: round(v, 5) for k, v in evaluation["threshold"].items()})
    print("metrics:", json.dumps(evaluation["metrics"], indent=2, sort_keys=True))
    svg = (work / "out" / "report.svg").read_text()
    print(f"report.svg: {len(svg)} bytes, "
          f"{svg.count('class=')} classed elements "
          f"(1 threshold line, {svg.count('preictal-band')} pre-ictal band)")


if __name__ == "__main__":
    # the record and its outputs take about 250 MB
    with tempfile.TemporaryDirectory(prefix="preictal-demo-") as tmp:
        main(Path(tmp))
