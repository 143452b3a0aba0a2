"""Peak memory of each stage grows with the record's length by at most a
fixed number of record copies: each stage runs as a fresh CLI process on a
scalogram record and on one 1,800 s longer, whose one float64 copy is 7 MiB
larger.  Extract, train, score, evaluate and report hold blocks, so their
peaks grow by less than one copy; preprocess holds the record and its
filtered copy.  The peak of converting a CSV record grows with the file's
bytes by a fixed factor.

A stage's peak is the child's `VmHWM`, which counts only memory since its
`exec`; `ru_maxrss` would start from the pytest process's own peak."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import preictal
from preictal.ingest import (SyntheticEvent, SyntheticSpec, generate_synthetic,
                             serialize_annotations, serialize_csv, write_edf)

DURATIONS_S = (300.0, 2100.0)
FS = 512
COPY_MB = 8 * FS * (DURATIONS_S[1] - DURATIONS_S[0]) / 2**20   # the added float64 copy
# peak growth per added record copy: preprocess holds the raw record and its
# filtered copy (2.0 measured; 4.1 with scipy's filtfilt), the other stages
# one block at a time (extract at most 0.7 measured, the others about 0; 1.0
# for extract and evaluate when they read segments.bin whole)
PREPROCESS_COPIES = 2.5
BLOCKED_COPIES = 1.0
# convert holds the mv column and the time steps, 16 bytes per row of about
# 35, and one 512 KiB block: 0.49 measured per added file byte
CSV_PEAK_PER_BYTE = 0.65
STAGES = ("convert", "preprocess", "extract", "train", "score", "evaluate", "report")
# prints the peak resident set in KiB: VmHWM, else ru_maxrss (KiB on Linux,
# bytes on macOS)
STAGE_PEAK = """\
import re, resource, sys
from preictal.cli import main
code = main(sys.argv[1:])
try:
    with open("/proc/self/status") as f:
        print(re.search(r"^VmHWM:\\s*(\\d+) kB", f.read(), re.M).group(1))
except (OSError, AttributeError):
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          // (1024 if sys.platform == "darwin" else 1))
sys.exit(code)
"""


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> dict[float, Path]:
    """A directory per record length, holding the record as EDF and as CSV."""
    roots = {}
    for duration_s in DURATIONS_S:
        root = roots[duration_s] = tmp_path_factory.mktemp(f"record{int(duration_s)}")
        # the same first seizure, so the same 30-segment baseline: pre-ictal
        # from 30 s, within the 20%-of-record cap of the shorter record
        rec = generate_synthetic(SyntheticSpec(
            duration_s=duration_s, sampling_rate_hz=FS, base_hr_bpm=90.0, noise_std=0.02,
            hrv_bpm=5.0, events=(SyntheticEvent(onset_s=80.0, preictal_lead_s=50.0,
                                                hr_ramp_bpm=30.0, jitter_std=0.3),),
            rng_seed=1))
        (root / "record.edf").write_bytes(write_edf(rec))
        (root / "record.csv").write_text(serialize_csv(rec))
        (root / "annotations.csv").write_text(serialize_annotations(rec.annotations))
    return roots


def stage_peaks_mb(root: Path, record: str, stages=STAGES) -> dict[str, float]:
    out = root / f"out-{record}"
    (root / "run.cfg").write_text(
        f"record = {root / record}\nannotations = {root / 'annotations.csv'}\n"
        f"out = {out}\nrepresentation = scalogram\narchitecture = t_ee\n"
        "preictal_len_s = 50\nmin_baseline_segments = 20\nepochs = 1\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(preictal.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    peaks = {}
    for stage in stages:
        proc = subprocess.run([sys.executable, "-c", STAGE_PEAK, stage,
                               "--config", str(root / "run.cfg")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (stage, proc.stderr)
        peaks[stage] = int(proc.stdout.split()[-1]) / 1024
    return peaks


def test_stage_peaks_grow_by_a_fixed_number_of_record_copies(records):
    short, long = (stage_peaks_mb(records[d], "record.edf") for d in DURATIONS_S)
    copies = {stage: (long[stage] - short[stage]) / COPY_MB for stage in STAGES[1:]}
    assert copies["preprocess"] < PREPROCESS_COPIES, (copies, short, long)
    for stage in STAGES[2:]:
        assert copies[stage] < BLOCKED_COPIES, (stage, copies, short, long)


def test_csv_convert_peak_grows_with_file_bytes_only(records):
    short, long = (stage_peaks_mb(records[d], "record.csv", ("convert",))["convert"]
                   for d in DURATIONS_S)
    file_mb = [(records[d] / "record.csv").stat().st_size / 2**20 for d in DURATIONS_S]
    # 31 MiB more file bytes: about 15 MiB more peak; 1.2 per byte when the
    # columns were joined from per-block lists, 2.1 when the file was read whole
    assert long - short < CSV_PEAK_PER_BYTE * (file_mb[1] - file_mb[0]), (short, long, file_mb)
