"""The benchmark's workloads: inputs made from the seed with the program's own
writers, the timed operations, and the checks on what they produced.

Runs inside the child process, where the working tree's src/ is first on
sys.path. Program functions are called through their modules' attributes
(`ingest.write_edf`, `models.train`, ...) so the tracer in spans.py sees them.
"""
from __future__ import annotations

import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from preictal import cli, features, ingest, models, preprocess
from preictal.errors import ConfigError, DataError, NumericError
from preictal.nn.params_io import dump_arrays

FS = 512
ICTAL_S = 60.0    # the generator's fixed ictal duration


def ref(inputs: Path, name: str) -> Path:
    """Where the benchmark keeps what it knows about the inputs; beside the
    input directory, so the program never sees it."""
    return inputs.parent / f"{inputs.name}.{name}"


def record_spec(duration_s: float, onsets: tuple[float, ...], lead_s: float, seed: int):
    """The criterion-8 record recipe (90 bpm, 5 bpm variability, noise 0.02 mV,
    30 bpm pre-ictal ramp with 0.3 pulse jitter) at another length."""
    return ingest.SyntheticSpec(
        duration_s=duration_s, base_hr_bpm=90.0, noise_std=0.02, hrv_bpm=5.0,
        events=tuple(ingest.SyntheticEvent(onset_s=o, preictal_lead_s=lead_s,
                                           hr_ramp_bpm=30.0, jitter_std=0.3)
                     for o in onsets),
        rng_seed=seed)


@dataclass
class Round:
    """What one round did: each timed unit of equal work as (segments,
    seconds), and the operations it attempted and saw fail."""
    units: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def wall_s(self) -> float:
        return sum(seconds for _, seconds in self.units)


def _timed_cli(args: list[str], segments: int, rnd: Round):
    start = time.perf_counter()
    code = cli.main(args)
    rnd.units.append((segments, time.perf_counter() - start))
    rnd.attempted += 1
    rnd.failed += code != 0


# ---- cold `all` on one record ------------------------------------------------------

@dataclass
class PipelineRun:
    """A cold `all` on one generated record, once per round, each round in a
    fresh output directory."""
    fmt: str                       # "csv" or "edf"
    duration_s: float
    onsets: tuple[float, ...]
    preictal_len_s: float
    config: dict
    min_rounds: int
    criterion_8: bool = False

    @property
    def segments(self) -> int:
        return int(self.duration_s)          # 1 s windows, no overlap

    def annotations(self) -> list[tuple[float, float]]:
        return [(o, min(o + ICTAL_S, self.duration_s)) for o in self.onsets]

    def write_inputs(self, inputs: Path, seed: int) -> np.ndarray:
        """Generate the record and write it, its annotations and its config."""
        inputs.mkdir(parents=True, exist_ok=True)
        rec = ingest.generate_synthetic(record_spec(self.duration_s, self.onsets,
                                                    self.preictal_len_s, seed))
        record = inputs / f"record.{self.fmt}"
        if self.fmt == "csv":
            record.write_text(ingest.serialize_csv(rec))
        else:
            record.write_bytes(ingest.write_edf(rec))
        (inputs / "annotations.csv").write_text(ingest.serialize_annotations(rec.annotations))
        self.write_config(inputs / "run.cfg", inputs)
        return rec.samples

    def write_config(self, path: Path, inputs: Path, **override):
        cfg = {"record": inputs / f"record.{self.fmt}",
               "annotations": inputs / "annotations.csv",
               "patient_id": "bench", "preictal_len_s": self.preictal_len_s,
               **self.config, **override}
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))

    def setup(self, inputs: Path, seed: int) -> float:
        start = time.perf_counter()
        samples = self.write_inputs(inputs, seed)
        elapsed = time.perf_counter() - start
        if self.fmt == "csv":
            np.save(ref(inputs, "samples.npy"), samples)
        return elapsed

    def round(self, inputs: Path, out: Path) -> Round:
        rnd = Round()
        _timed_cli(["all", "--config", str(inputs / "run.cfg"), "--out", str(out)],
                   self.segments, rnd)
        return rnd

    def expect(self, **override) -> dict:
        return {"annotations": self.annotations(), "window_s": 1,
                "preictal_len_s": self.preictal_len_s, "postictal_len_s": 600.0,
                "k": float(self.config.get("k", 2.0)),
                "w": int(self.config.get("smoothing_w", 31)),
                "representation": self.config["representation"], **override}

    def check_record(self, inputs: Path, out: Path) -> list[str]:
        if self.fmt == "csv":
            return checks.check_record(out, np.load(ref(inputs, "samples.npy")),
                                       exact=True)
        return checks.check_record(out, checks.decode_edf((inputs / "record.edf").read_bytes()),
                                   exact=False)

    def check(self, inputs: Path, outs: list[Path]) -> list[str]:
        last = outs[-1]
        problems = self.check_record(inputs, last) + checks.check_pipeline(last, self.expect())
        if self.criterion_8:
            m = json.loads((last / "evaluation.json").read_text())["metrics"]
            if not (m["seizures_total"] == 2 and m["seizures_predicted"] == 2
                    and m["specificity"] >= 0.95
                    and m["fpr_per_hour"] is not None and m["fpr_per_hour"] <= 0.2):
                problems.append(f"criterion-8 properties not met: {m}")
        if len(outs) > 1 and checks.digests(outs[0]) != checks.digests(last):
            problems.append("repeated runs produced different artifacts")
        return problems

    def out_dir(self, inputs: Path, out: Path) -> Path:
        return out


# ---- threshold sweep over one cached run -------------------------------------------

@dataclass
class Sweep(PipelineRun):
    """Set-up makes one cold run; each round re-runs `all` in that output
    directory for every (smoothing_w, k) point."""
    points: tuple[tuple[int, float], ...] = ()

    def setup(self, inputs: Path, seed: int) -> float:
        shutil.rmtree(inputs / "out", ignore_errors=True)
        start = time.perf_counter()
        self.write_inputs(inputs, seed)
        code = cli.main(["all", "--config", str(inputs / "run.cfg"),
                         "--out", str(inputs / "out")])
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"set-up run exited with {code}")
        runs = ref(inputs, "setup_digests.json")
        seen = json.loads(runs.read_text()) if runs.exists() else []
        runs.write_text(json.dumps(seen + [checks.digests(inputs / "out")]))
        return elapsed

    def round(self, inputs: Path, out: Path) -> Round:
        rnd = Round()
        for i, (w, k) in enumerate(self.points):
            cfg = inputs / "point.cfg"
            self.write_config(cfg, inputs, smoothing_w=w, k=k)
            _timed_cli(["all", "--config", str(cfg), "--out", str(inputs / "out")],
                       self.segments, rnd)
            shutil.copytree(inputs / "out", out / f"point{i}")
        return rnd

    def check(self, inputs: Path, outs: list[Path]) -> list[str]:
        last = outs[-1]
        problems = self.check_record(inputs, last / "point0")
        scores, flagged = set(), {}
        for i, (w, k) in enumerate(self.points):
            point = last / f"point{i}"
            problems += checks.check_pipeline(point, self.expect(w=w, k=k))
            scores.add((point / "scores.params").read_bytes())
            errors = checks.read_errors_csv((point / "errors.csv").read_text())
            flagged.setdefault(w, []).append((k, int(errors["flag"].sum())))
        if len(scores) != 1:
            problems.append("scores.params differs between sweep points")
        for w, counts in flagged.items():
            counts = [n for _, n in sorted(counts)]
            if any(b > a for a, b in zip(counts, counts[1:])):
                problems.append(f"flagged count rises with k at w={w}: {counts}")
        runs = json.loads(ref(inputs, "setup_digests.json").read_text())
        if any(r != runs[0] for r in runs):
            problems.append("repeated set-up runs produced different artifacts")
        return problems

    def out_dir(self, inputs: Path, out: Path) -> Path:
        return inputs / "out"


# ---- library calls on all nine pairs ------------------------------------------------

@dataclass
class TrainGrid:
    """build/train/score/dump_trained on every architecture x representation
    pair, on the features of one short record; fixed epoch count."""
    duration_s: float
    epochs: int
    batch_size: int
    min_rounds: int
    representations: tuple[str, ...] = ("dwt", "spectrogram", "scalogram")
    architectures: tuple[str, ...] = ("lstm_ae", "mh_c_lstm_ae", "t_ee")

    @property
    def segments(self) -> int:
        return int(self.duration_s) * len(self.representations) * len(self.architectures)

    def setup(self, inputs: Path, seed: int) -> float:
        inputs.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        # the criterion-5 recipe (strictly periodic 90 bpm pulses) with a little
        # noise from the seed: with heart-rate variability the dwt pairs'
        # holdout loss did not fall below the untrained loss within the budget
        rec = ingest.generate_synthetic(ingest.SyntheticSpec(
            duration_s=self.duration_s, base_hr_bpm=90.0, noise_std=0.002, rng_seed=seed))
        segs = preprocess.segment(preprocess.lowpass(rec),
                                  preprocess.SegmentationConfig(1, 0, FS))
        for rep in self.representations:
            np.save(inputs / f"{rep}.npy", features.extract_features(segs, rep))
        elapsed = time.perf_counter() - start
        np.save(ref(inputs, "segments.npy"), segs.samples)
        return elapsed

    def round(self, inputs: Path, out: Path) -> Round:
        rnd = Round()
        plan = models.TrainPlan(epochs=self.epochs, batch_size=self.batch_size,
                                patience=self.epochs, seed=0, min_baseline_segments=1)
        start = time.perf_counter()
        for rep in self.representations:
            feats = np.load(inputs / f"{rep}.npy")
            stats = features.fit_normalization(feats)
            norm = features.apply_normalization(feats, stats)
            for kind in self.architectures:
                rnd.attempted += 1
                try:
                    trained = models.train(models.build(kind, rep, FS), norm, stats, plan)
                    errors = models.score(trained, norm)
                    blob, manifest = models.dump_trained(trained)
                except (ConfigError, DataError, NumericError):
                    rnd.failed += 1
                    continue
                pair = out / f"{kind}-{rep}"
                pair.mkdir(parents=True)
                (pair / "model.params").write_bytes(blob)
                (pair / "model.json").write_text(manifest)
                (pair / "scores.params").write_bytes(dump_arrays({"errors": errors}, "scores"))
        rnd.units.append((self.segments, time.perf_counter() - start))
        return rnd

    def check(self, inputs: Path, outs: list[Path]) -> list[str]:
        problems = []
        segments = np.load(ref(inputs, "segments.npy"))
        for rep in self.representations:
            feats = np.load(inputs / f"{rep}.npy")
            rows = {i: feats[i] for i in checks.sample_indices(len(feats))}
            problems += checks.check_features(rows, segments, rep)
        last = outs[-1]
        for rep in self.representations:
            for kind in self.architectures:
                pair = last / f"{kind}-{rep}"
                if not pair.exists():
                    continue     # counted as a failed operation
                history = json.loads((pair / "model.json").read_text())["loss_history"]
                best = min(history[1:])
                if not (math.isfinite(best) and best < history[0]):
                    problems.append(f"{kind}/{rep}: holdout loss {best} not below "
                                    f"untrained {history[0]}")
                _, arrays = checks.read_arrays((pair / "scores.params").read_bytes())
                errors = arrays["errors"]
                if len(errors) != int(self.duration_s) or not np.all(np.isfinite(errors)) \
                        or np.any(errors < 0):
                    problems.append(f"{kind}/{rep}: scores are not one finite error per segment")
        if len(outs) > 1 and checks.digests(outs[0]) != checks.digests(last):
            problems.append("repeated rounds produced different models or scores")
        return problems

    def out_dir(self, inputs: Path, out: Path) -> Path:
        return out


WORKLOADS = {
    "csv_1h_spectrogram": PipelineRun(
        fmt="csv", duration_s=3600.0, onsets=(1320.0, 3000.0), preictal_len_s=600.0,
        config={"representation": "spectrogram", "architecture": "mh_c_lstm_ae",
                "patience": 50},
        min_rounds=1, criterion_8=True),
    "edf_scalogram": PipelineRun(
        fmt="edf", duration_s=240.0, onsets=(160.0,), preictal_len_s=80.0,
        config={"representation": "scalogram", "architecture": "mh_c_lstm_ae",
                "epochs": 3, "patience": 3, "min_baseline_segments": 40},
        min_rounds=2),
    "threshold_sweep": Sweep(
        fmt="edf", duration_s=600.0, onsets=(400.0,), preictal_len_s=120.0,
        config={"representation": "dwt", "architecture": "t_ee", "epochs": 5, "patience": 5},
        min_rounds=1,
        points=tuple((w, k) for w in (15, 31) for k in (1.0, 2.0, 3.0, 4.0))),
    "train_grid": TrainGrid(duration_s=48.0, epochs=10, batch_size=8, min_rounds=1),
}
