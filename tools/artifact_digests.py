"""Print the sha256 of every artifact of cold and warm `preictal all` runs, as sorted JSON.

Runs all nine architecture x representation pairs (2 epochs) on a fixed 300 s
synthetic record with one seizure, once as CSV and once as EDF written by
`write_edf`, each in a fresh output directory, then re-runs `all` in each
directory with `k = 3` and `smoothing_w = 15`, which reuses the cached stages.
The output maps `<run>/<file>` (cold) and `<run>+warm/<file>` to the file's
sha256; `manifest.json` is skipped, since it holds wall times.

It uses only the CLI and `preictal.ingest`, so the same file runs in an older
checkout.  A refactor that must keep every artifact byte-identical compares
the two outputs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/artifact_digests.py > after.json
    # the same command in the parent's checkout, > before.json
    diff before.json after.json

Extraction, scoring and the attention layers fan out over the CPUs
(`preictal.blocks`), and on one CPU they run in a plain loop; the bytes must
not depend on it, so the output on one CPU must match too:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src taskset -c 0 python3 tools/artifact_digests.py > one_cpu.json
    diff after.json one_cpu.json

The 18 cold and 18 warm runs take about 8 s with one BLAS thread on 2 CPUs.
"""
import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

from preictal.cli import main
from preictal.ingest import (SyntheticEvent, SyntheticSpec, generate_synthetic,
                             serialize_annotations, serialize_csv, write_edf)

ARCHITECTURES = ("lstm_ae", "mh_c_lstm_ae", "t_ee")
REPRESENTATIONS = ("dwt", "scalogram", "spectrogram")
CONFIG = ("record = {record}\nannotations = {annotations}\nout = {out}\n"
          "architecture = {architecture}\nrepresentation = {representation}\n"
          "epochs = 2\npreictal_len_s = 120\nmin_baseline_segments = 20\n")
WARM = "k = 3\nsmoothing_w = 15\n"


def write_inputs(root: Path) -> dict[str, Path]:
    """The record as CSV and as EDF, and its annotations; {format: record path}."""
    record = generate_synthetic(SyntheticSpec(
        duration_s=300.0, base_hr_bpm=80.0, noise_std=0.02, hrv_bpm=4.0,
        events=(SyntheticEvent(onset_s=220.0, preictal_lead_s=120.0, hr_ramp_bpm=30.0,
                               jitter_std=0.3),), rng_seed=11))
    (root / "annotations.csv").write_text(serialize_annotations(record.annotations))
    (root / "record.csv").write_text(serialize_csv(record))
    (root / "record.edf").write_bytes(write_edf(record))
    return {"csv": root / "record.csv", "edf": root / "record.edf"}


def digests(root: Path) -> dict[str, str]:
    records, result = write_inputs(root), {}
    for fmt, arch, rep in itertools.product(records, ARCHITECTURES, REPRESENTATIONS):
        run = f"{fmt}_{arch}_{rep}"
        config = root / f"{run}.cfg"
        text = CONFIG.format(record=records[fmt], annotations=root / "annotations.csv",
                             out=root / run, architecture=arch, representation=rep)
        for name, extra in ((run, ""), (f"{run}+warm", WARM)):
            config.write_text(text + extra)
            if main(["all", "--config", str(config)]) != 0:
                sys.exit(f"run {name} failed")
            for path in sorted((root / run).iterdir()):
                if path.name != "manifest.json":
                    result[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return result


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(digests(Path(tmp)), indent=1, sort_keys=True))
