"""Print, as JSON, the peak resident memory of each pipeline stage on a
generated record: each stage runs as a fresh `preictal.cli` process.

    PYTHONPATH=src python3 tools/stage_peaks.py --duration 3600 --format csv --seed 1

The record follows the benchmark's criterion-8 recipe (90 bpm, 5 bpm
variability, noise 0.02 mV, two seizures at 11/30 and 5/6 of the record with
a pre-ictal lead of 1/6 of it), so 3,600 s and seed 1 give the record of
`bench/run.py --workload csv_1h_spectrogram --seed 1`, with its
spectrogram/mh_c_lstm_ae config.  A peak is the process's `VmHWM`, read from
`/proc/self/status` once the stage returns (Linux only).  `imports_mib` is
the peak of a process that only imports the CLI; `copies_above_imports`
divides each stage's excess over it by one float64 copy of the record.

It uses only the CLI and `preictal.ingest`, so the same file runs in an
older checkout, and the two outputs compare stage by stage.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from preictal.ingest import (SyntheticEvent, SyntheticSpec, generate_synthetic,
                             serialize_annotations, serialize_csv, write_edf)

STAGES = ("convert", "preprocess", "extract", "train", "score", "evaluate", "report")
# runs the CLI with the given arguments (none: imports only), then prints VmHWM in KiB
PEAK = """\
import re, sys
from preictal.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
with open("/proc/self/status") as f:
    print(re.search(r"^VmHWM:\\s*(\\d+) kB", f.read(), re.M).group(1))
sys.exit(code)
"""


def write_inputs(root: Path, duration_s: float, fmt: str, seed: int) -> int:
    """The record, its annotations and run.cfg under root; the sample count."""
    lead_s = duration_s / 6
    record = generate_synthetic(SyntheticSpec(
        duration_s=duration_s, base_hr_bpm=90.0, noise_std=0.02, hrv_bpm=5.0,
        events=tuple(SyntheticEvent(onset_s=onset, preictal_lead_s=lead_s, hr_ramp_bpm=30.0,
                                    jitter_std=0.3)
                     for onset in (duration_s * 11 / 30, duration_s * 5 / 6)),
        rng_seed=seed))
    path = root / f"record.{fmt}"
    if fmt == "csv":
        path.write_text(serialize_csv(record))
    else:
        path.write_bytes(write_edf(record))
    (root / "annotations.csv").write_text(serialize_annotations(record.annotations))
    (root / "run.cfg").write_text(
        f"record = {path}\nannotations = {root / 'annotations.csv'}\nout = {root / 'out'}\n"
        f"patient_id = peaks\npreictal_len_s = {lead_s}\nrepresentation = spectrogram\n"
        "architecture = mh_c_lstm_ae\npatience = 50\n")
    return len(record.samples)


def peak_mib(*args: str) -> float:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    done = subprocess.run([sys.executable, "-c", PEAK, *args], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"preictal {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return int(done.stdout.split()[-1]) / 1024


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--duration", type=float, default=3600.0, help="record length in s")
    parser.add_argument("--format", choices=("csv", "edf"), default="csv")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="stage-peaks-") as tmp:
        root = Path(tmp)
        samples = write_inputs(root, args.duration, args.format, args.seed)
        copy_mib = 8 * samples / 2**20
        imports = peak_mib()
        stages = {stage: peak_mib(stage, "--config", str(root / "run.cfg")) for stage in STAGES}
        record_mib = (root / f"record.{args.format}").stat().st_size / 2**20
    print(json.dumps({
        "record": {"format": args.format, "duration_s": args.duration, "seed": args.seed,
                   "file_mib": round(record_mib, 1), "float64_copy_mib": round(copy_mib, 2)},
        "imports_mib": round(imports, 1),
        "stages_mib": {stage: round(mib, 1) for stage, mib in stages.items()},
        "copies_above_imports": {stage: round((mib - imports) / copy_mib, 2)
                                 for stage, mib in stages.items()},
    }, indent=1))


if __name__ == "__main__":
    main()
