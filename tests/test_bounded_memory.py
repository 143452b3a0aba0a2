"""Peak memory of the extract, train and score stages does not grow with the
record's length: each stage runs as a fresh CLI process on a scalogram record
and on one four times longer, and their peaks differ by a fixed margin. The
peak of converting a CSV record grows with the file's bytes by a fixed factor.

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

MARGIN_MB = 64
# convert holds one block of the CSV, and the mv column and time steps:
# 16 bytes per row of about 35
CSV_PEAK_PER_BYTE = 1.5
STAGES = ("convert", "preprocess", "extract", "train", "score")
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
    for duration_s in (150.0, 600.0):
        root = roots[duration_s] = tmp_path_factory.mktemp(f"record{int(duration_s)}")
        # the same first seizure, so the same 30-segment baseline: pre-ictal
        # from 30 s, within the 20%-of-record cap of the shorter record
        rec = generate_synthetic(SyntheticSpec(
            duration_s=duration_s, base_hr_bpm=90.0, noise_std=0.02, hrv_bpm=5.0,
            events=(SyntheticEvent(onset_s=80.0, preictal_lead_s=50.0, hr_ramp_bpm=30.0,
                                   jitter_std=0.3),), rng_seed=1))
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


def test_stage_peaks_do_not_grow_with_record_length(records):
    short, long = (stage_peaks_mb(records[d], "record.edf") for d in (150.0, 600.0))
    for stage in ("extract", "train", "score"):
        assert long[stage] - short[stage] < MARGIN_MB, (stage, short, long)


def test_csv_convert_peak_grows_with_file_bytes_only(records):
    short, long = (stage_peaks_mb(records[d], "record.csv", ("convert",))["convert"]
                   for d in (150.0, 600.0))
    file_mb = [(records[d] / "record.csv").stat().st_size / 2**20 for d in (150.0, 600.0)]
    # 7.6 MiB more file bytes: about 9.5 MiB more peak; 17 MiB when the file
    # was read whole, 105 MiB with a parser that keeps a Python list per row
    assert long - short < CSV_PEAK_PER_BYTE * (file_mb[1] - file_mb[0]), (short, long, file_mb)
