"""Peak memory of the extract, train and score stages does not grow with the
record's length: each stage runs as a fresh CLI process on a scalogram record
and on one four times longer, and their peaks differ by a fixed margin."""
import os
import subprocess
import sys
from pathlib import Path

import preictal
from preictal.ingest import (SyntheticEvent, SyntheticSpec, generate_synthetic,
                             serialize_annotations, write_edf)

MARGIN_MB = 64
STAGES = ("convert", "preprocess", "extract", "train", "score")
STAGE_PEAK = ("import resource, sys\n"
              "from preictal.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
              "sys.exit(code)\n")
# ru_maxrss is in KiB on Linux, in bytes on macOS
MAXRSS_BYTES = 1 if sys.platform == "darwin" else 1024


def stage_peaks_mb(root: Path, duration_s: float) -> dict[str, float]:
    root.mkdir()
    # the same first seizure, so the same 30-segment baseline: pre-ictal from
    # 30 s, within the 20%-of-record cap of the shorter record
    rec = generate_synthetic(SyntheticSpec(
        duration_s=duration_s, base_hr_bpm=90.0, noise_std=0.02, hrv_bpm=5.0,
        events=(SyntheticEvent(onset_s=80.0, preictal_lead_s=50.0, hr_ramp_bpm=30.0,
                               jitter_std=0.3),), rng_seed=1))
    (root / "record.edf").write_bytes(write_edf(rec))
    (root / "annotations.csv").write_text(serialize_annotations(rec.annotations))
    (root / "run.cfg").write_text(
        f"record = {root / 'record.edf'}\nannotations = {root / 'annotations.csv'}\n"
        f"out = {root / 'out'}\nrepresentation = scalogram\narchitecture = t_ee\n"
        "preictal_len_s = 50\nmin_baseline_segments = 20\nepochs = 1\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(preictal.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    peaks = {}
    for stage in STAGES:
        proc = subprocess.run([sys.executable, "-c", STAGE_PEAK, stage,
                               "--config", str(root / "run.cfg")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (stage, proc.stderr)
        peaks[stage] = int(proc.stdout.split()[-1]) * MAXRSS_BYTES / 2**20
    return peaks


def test_stage_peaks_do_not_grow_with_record_length(tmp_path):
    short = stage_peaks_mb(tmp_path / "short", 150.0)
    long = stage_peaks_mb(tmp_path / "long", 600.0)
    for stage in ("extract", "train", "score"):
        assert long[stage] - short[stage] < MARGIN_MB, (stage, short, long)
