"""Staged end-to-end pipeline with cached intermediates.

Stages: convert -> preprocess -> extract -> train -> score -> evaluate ->
report.  Each stage writes its artifacts into the output directory and
records a cache key and the sha256 of each output in manifest.json.  The key
hashes only what the stage reads (STAGE_IO), so a stage re-runs only when an
output is missing or changed, or something it reads changed.  A stage run on
its own refuses an input that differs from the sha256 its producer recorded.
A re-run hashes the recorded artifacts it checks, and the record and
annotation files, once each, concurrently, before the first stage; only a
convert that re-runs reads the record and annotation files' bytes.
With a fixed config and seed every artifact byte is reproducible, so deleting
an intermediate and re-running `all` regenerates it bit-identically.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .anomaly import (Threshold, detect, export_csv, fit_threshold,
                      series_from_errors, smooth)
from .blocks import fan_out, row_blocks
from .cache import (FeatureLayout, dump_features, dump_segments, load_features,
                    load_segment_index, load_segments, read_feature_rows, read_features_layout)
from .config import PipelineConfig, stage_settings
from .errors import ConfigError, DataError, is_json_number
from .evaluation import (classify_alarm_intervals, count_confusion,
                         default_preictal_len_s, events_to_intervals,
                         interictal_hours, metrics, seizure_outcomes)
from .features import (apply_normalization, extract_features, feature_shape, fit_normalization,
                       rows_per_call)
from .ingest import (EcgRecord, load_annotations, parse_csv, parse_edf,
                     serialize_annotations)
from .ingest.records import SeizureAnnotation
from .ingest.text import RecordFile
from .models import TrainPlan, build, dump_trained, load_trained, select_baseline, train
from .models.training import MODEL_KEYS, SCORE_BATCH, score
from .nn import dump_arrays, load_arrays
from .preprocess import SegmentIndex, SegmentSet, label_phases, lowpass, segment
from .report import render_report_svg


class StageIO(NamedTuple):
    fields: tuple[str, ...]   # PipelineConfig fields the stage reads
    reads: tuple[str, ...]    # artifacts it reads
    writes: tuple[str, ...]   # artifacts it must produce


_TRAIN_PLAN = tuple(f.name for f in fields(TrainPlan))   # each is a PipelineConfig field

STAGE_IO = {
    "convert": StageIO(("record", "annotations", "channel", "patient_id"),
                       (), ("record.npy", "record.json", "annotations.csv")),
    "preprocess": StageIO(("cutoff_hz", "filter_order", "zero_phase", "window_s", "overlap_s",
                           "preictal_len_s", "postictal_len_s"),
                          ("record.npy", "record.json", "annotations.csv"), ("segments.bin",)),
    "extract": StageIO(("representation",), ("segments.bin",), ("features.bin",)),
    "train": StageIO(("architecture", "representation") + _TRAIN_PLAN,
                     ("record.json", "segments.bin", "features.bin"),
                     ("model.params", "model.json", "baseline.json")),
    "score": StageIO(("representation",),
                     ("features.bin", "model.params", "model.json", "baseline.json"),
                     ("scores.params",)),
    "evaluate": StageIO(("smoothing_w", "k", "preictal_len_s", "postictal_len_s",
                         "refractory_gap_s"),
                        ("record.json", "annotations.csv", "segments.bin", "scores.params"),
                        ("evaluation.json", "errors.csv")),
    "report": StageIO(("smoothing_w", "architecture", "representation", "window_s"),
                      ("annotations.csv", "segments.bin", "scores.params", "evaluation.json"),
                      ("metrics.json", "metrics.csv", "report.svg")),
}
STAGES = tuple(STAGE_IO)
_PRODUCER = {name: stage for stage, io in STAGE_IO.items() for name in io.writes}

def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@contextmanager
def _reading(what: str, name: str):
    """Raise an OSError from within the block as a DataError naming the file."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot read {what} file {name}: {exc}") from exc


def _decode(data: bytes, what: str) -> str:
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} file is not UTF-8: {exc}") from exc


_MISSING = object()


def _at(value, key: str):
    """The value at `key` of a JSON value, or _MISSING; `a.b` names key `b`
    of the object at key `a`."""
    for part in key.split("."):
        if not isinstance(value, dict) or part not in value:
            return _MISSING
        value = value[part]
    return value


# checks of the JSON values the stages index
def _str(value) -> bool:
    return isinstance(value, str)


def _object(value) -> bool:
    return isinstance(value, dict)


def _number(value) -> bool:   # finite, and not a bool
    return is_json_number(value, "float")


def _positive(value) -> bool:
    return _number(value) and value > 0


def _recorded(manifest: dict, name: str):
    """The sha256 of an artifact its producer recorded in the manifest, or None."""
    return manifest["stages"].get(_PRODUCER[name], {}).get("outputs", {}).get(name)


def _sha256(path: Path) -> str:
    """The file's sha256, read through a buffer of this call's own, so calls
    on several threads share nothing."""
    h, buf = hashlib.sha256(), bytearray(1 << 20)
    view = memoryview(buf)
    with path.open("rb") as f:
        while n := f.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def _file_sha256(path: Path) -> str | None:
    """An artifact's sha256, or None when it does not exist."""
    return _sha256(path) if path.exists() else None


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _source_sha256(path: Path) -> str | None:
    """A record or annotation file's sha256, or None when it cannot be read:
    convert then re-runs and reports why."""
    try:
        return _sha256(path)
    except OSError:
        return None


class Pipeline:
    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.settings = stage_settings(cfg)
        self.out = Path(cfg.out)
        self.manifest_path = self.out / "manifest.json"
        self._hashes: dict[str, str | None] = {}   # each artifact's sha256 as the file is now
        # the record's and annotations' sha256, as hashed up front or as convert parsed them
        self._sources: list[str | None] = []

    # ---- manifest / caching ----------------------------------------------

    def _load_manifest(self) -> dict:
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (FileNotFoundError, ValueError):   # ValueError: cut short or not UTF-8
            manifest = None
        if not isinstance(manifest, dict) or not isinstance(manifest.get("stages"), dict):
            manifest = {"stages": {}}   # absent or unusable: every stage re-runs
        # an entry that is not an object with an outputs object re-runs its stage
        stages = {name: entry for name, entry in manifest["stages"].items()
                  if isinstance(entry, dict) and isinstance(entry.get("outputs"), dict)}
        return {"stages": stages, "toolkit_version": __version__}

    def _save_manifest(self, manifest: dict):
        # written aside and renamed, so a crash never leaves half a manifest;
        # no indent, so json's C encoder writes it (the manifest holds wall
        # times, so no byte of it is reproducible anyway)
        tmp = self.out / "manifest.json.tmp"
        tmp.write_text(json.dumps(manifest, sort_keys=True) + "\n")
        os.replace(tmp, self.manifest_path)

    def _source_files(self) -> list[tuple[str, str]]:
        """(what, path) of the record file, then of the annotation file when
        one is set."""
        self.cfg.require_inputs()
        return [(what, name) for what, name in (("record", self.cfg.record),
                                                ("annotations", self.cfg.annotations)) if name]

    @contextmanager
    def _read_inputs(self):
        """The record file open for reading, as a RecordFile, and a list of the
        annotation file's bytes, empty when none is set."""
        (what, name), *annotation_file = self._source_files()
        with _reading(what, name), Path(name).open("rb") as f:
            annotations = []
            for file in annotation_file:
                with _reading(*file):
                    annotations.append(Path(file[1]).read_bytes())
            yield RecordFile(f), annotations

    def _digest(self, name: str) -> str | None:
        """An artifact's sha256 as the file is now, hashed once per run."""
        if name not in self._hashes:
            self._hashes[name] = _file_sha256(self.out / name)
        return self._hashes[name]

    def _input_digest(self, name: str, manifest: dict) -> str | None:
        """An input's sha256, which must still be the bytes its producer
        recorded in the manifest."""
        producer, recorded = _PRODUCER[name], _recorded(manifest, name)
        digest = self._digest(name)
        if digest and recorded and digest != recorded:
            raise DataError(f"artifact {name!r} changed after the '{producer}' stage "
                            f"wrote it; re-run '{producer}'")
        return digest

    def _stage_key(self, stage: str, input_digests: list) -> str:
        io = STAGE_IO[stage]
        inputs = [__version__, stage, {f: getattr(self.cfg, f) for f in io.fields},
                  input_digests]
        if stage == "convert":
            inputs.append(self._sources)
        return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()

    def _digests(self, stage: str) -> dict[str, str | None]:
        return {name: self._digest(name) for name in STAGE_IO[stage].writes}

    def _hash_recorded(self, manifest: dict, names: list[str]):
        """Hash, concurrently and largest first, each artifact that the
        manifest records and that stages `names` read or write.

        A stage whose key, from the config and the recorded input digests,
        is not its recorded key re-runs whatever its files hold: its outputs,
        and those of every stage reading them, are left out and hashed once
        written.  Convert's key also covers the record and annotation files,
        hashed in the same fan-out, so convert counts as cached here; on a
        first convert, with no key recorded, they are left to the stage."""
        fresh: set[str] = set()   # artifacts this run is bound to write anew
        for stage in names:
            io = STAGE_IO[stage]
            if stage != "convert" and (
                    fresh.intersection(io.reads)
                    or manifest["stages"].get(stage, {}).get("key") != self._stage_key(
                        stage, [_recorded(manifest, name) for name in io.reads])):
                fresh.update(io.writes)
        wanted = {name for stage in names for name in STAGE_IO[stage].reads + STAGE_IO[stage].writes
                  if _recorded(manifest, name) and name not in fresh}
        paths = [self.out / name for name in wanted]
        if "convert" in names and "convert" in manifest["stages"]:
            sources = [Path(name) for _, name in self._source_files()]
        else:
            sources = []
        files = paths + sources
        order = sorted(range(len(files)), key=lambda i: _size(files[i]), reverse=True)

        def hash_file(lo, hi):
            i = order[lo]
            return (_file_sha256 if i < len(paths) else _source_sha256)(files[i])

        digests = dict(zip(order, fan_out(hash_file, row_blocks(len(files), 1), 1)))
        self._hashes = {path.name: digests[i] for i, path in enumerate(paths)}
        self._sources = [digests[i] for i in range(len(paths), len(files))]

    def _require(self, name: str) -> Path:
        path = self.out / name
        if not path.exists():
            raise DataError(f"missing artifact {name!r}; run the '{_PRODUCER[name]}' stage first")
        return path

    def run(self, subcommand: str) -> dict:
        """Run one stage (with cache checks) or `all`; returns the manifest."""
        if subcommand == "all":
            names = list(STAGES)
        elif subcommand in STAGES:
            names = [subcommand]
        else:
            raise DataError(f"unknown stage {subcommand!r} (choose from {STAGES + ('all',)})")
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use output directory {self.out}: {exc}") from exc
        manifest = self._load_manifest()
        self._hash_recorded(manifest, names)
        for name in names:
            io = STAGE_IO[name]
            digests = [self._input_digest(read, manifest) for read in io.reads]
            key = self._stage_key(name, digests)
            entry = manifest["stages"].get(name, {})
            if entry.get("key") == key and entry.get("outputs") == self._digests(name):
                continue
            for written in io.writes:
                self._hashes.pop(written, None)
            t0 = time.perf_counter()
            getattr(self, f"stage_{name}")()
            if name == "convert":   # keyed on the bytes it parsed
                key = self._stage_key(name, digests)
            manifest["stages"][name] = {
                "key": key,
                "wall_clock_s": round(time.perf_counter() - t0, 3),
                "outputs": self._digests(name),
            }
            self._save_manifest(manifest)
        return manifest

    # ---- artifact readers: one per artifact -------------------------------

    def _json(self, name: str, *keys: str, valid=None) -> dict:
        """A JSON artifact's top-level object, which must hold `keys` (see `_at`)
        and the keys of `valid`, each with a value its check accepts."""
        try:
            value = json.loads(self._require(name).read_bytes())
        except ValueError as exc:   # not UTF-8, or not JSON
            raise DataError(f"artifact {name!r} is not valid JSON ({exc}); "
                            f"re-run '{_PRODUCER[name]}'") from exc
        if not isinstance(value, dict):
            raise DataError(f"artifact {name!r} holds a JSON {type(value).__name__}, not an "
                            f"object; re-run '{_PRODUCER[name]}'")
        valid = valid or {}
        missing = [key for key in (*keys, *valid) if _at(value, key) is _MISSING]
        if missing:
            raise DataError(f"artifact {name!r} lacks {', '.join(missing)}; "
                            f"re-run '{_PRODUCER[name]}'")
        wrong = [key for key, check in valid.items() if not check(_at(value, key))]
        if wrong:
            raise DataError(f"artifact {name!r} holds an invalid {', '.join(wrong)}; "
                            f"re-run '{_PRODUCER[name]}'")
        return value

    def _record_meta(self) -> dict:
        return self._json("record.json", valid={
            "patient_id": _str, "sampling_rate_hz": _positive, "duration_s": _positive})

    def _annotations(self) -> list[SeizureAnnotation]:
        return load_annotations(self._require("annotations.csv").read_text())

    def _segments(self) -> SegmentSet:
        return load_segments(self._require("segments.bin").read_bytes())

    def _segment_index(self) -> SegmentIndex:
        return load_segment_index(self._require("segments.bin").read_bytes())

    def _features_layout(self, f) -> FeatureLayout:
        """The layout of features.bin, open for reading in f."""
        layout = read_features_layout(f)
        if layout.representation != self.cfg.representation:
            raise DataError(f"feature cache holds {layout.representation!r}, config wants "
                            f"{self.cfg.representation!r}; re-run 'extract'")
        return layout

    @staticmethod
    def _feature_rows(f, layout: FeatureLayout, lo: int, hi: int) -> np.ndarray:
        return load_features(read_feature_rows(f, layout, lo, hi), layout)[0]

    def _n_train(self, layout: FeatureLayout) -> int:
        n_train = self._json("baseline.json").get("n_train")
        if type(n_train) is not int or not 0 <= n_train <= layout.count:
            raise DataError(f"artifact 'baseline.json' holds n_train {n_train!r} for "
                            f"{layout.count} feature rows; re-run 'train'")
        return n_train

    def _load_scores(self):
        tag, arrays = load_arrays(self._require("scores.params").read_bytes())
        if tag != "scores":
            raise DataError(f"scores.params has tag {tag!r}")
        return (arrays["train_errors"], arrays["test_indices"].astype(np.int64),
                arrays["test_errors"])

    def _preictal_len_s(self, meta: dict) -> float:
        """The configured pre-ictal interval, or the default for the record's length."""
        if self.cfg.preictal_len_s is None:
            return default_preictal_len_s(meta["duration_s"])
        return self.cfg.preictal_len_s

    # ---- stages -------------------------------------------------------------

    def stage_convert(self):
        with self._read_inputs() as (source, inputs):
            if Path(self.cfg.record).suffix.lower() == ".edf":
                record = parse_edf(source.read(), self.cfg.channel)
            else:   # read in blocks, each hashed as it is read
                record = parse_csv(source, patient_id=self.cfg.patient_id or "unknown")
        self._sources = [source.sha256.hexdigest()] + [hashlib.sha256(data).hexdigest()
                                                       for data in inputs]
        annotations = load_annotations(_decode(inputs.pop(), "annotations")) if inputs else []
        record = replace(record, patient_id=self.cfg.patient_id or record.patient_id,
                         annotations=annotations)
        np.save(self.out / "record.npy", record.samples)
        (self.out / "record.json").write_text(_json_dumps({
            "patient_id": record.patient_id,
            "sampling_rate_hz": record.sampling_rate_hz,
            "duration_s": record.duration_s,
        }))
        (self.out / "annotations.csv").write_text(serialize_annotations(annotations))

    def stage_preprocess(self):
        meta, anns = self._record_meta(), self._annotations()
        # the raw samples are dropped once filtered
        filtered = lowpass(EcgRecord(patient_id=meta["patient_id"],
                                     sampling_rate_hz=meta["sampling_rate_hz"],
                                     samples=np.load(self._require("record.npy")),
                                     annotations=anns), self.settings.filter)
        seg_cfg = replace(self.settings.segmentation, sampling_rate_hz=filtered.sampling_rate_hz)
        segments = label_phases(segment(filtered, seg_cfg), anns,
                                preictal_len_s=self._preictal_len_s(meta),
                                postictal_len_s=self.settings.evaluation.postictal_len_s)
        (self.out / "segments.bin").write_bytes(dump_segments(segments))

    # Extract and score fan out once over the whole record (`blocks.fan_out`),
    # in blocks of one transform call or one score batch, so a long record's
    # feature tensor is never resident whole: each thread holds one block's
    # rows.  A block reads or writes features.bin through a handle of its own,
    # so the threads share no file position.

    def stage_extract(self):
        segments, rep = self._segments(), self.cfg.representation
        window = segments.config.window_samples
        layout = FeatureLayout(rep, feature_shape(rep, window), len(segments))
        # written aside and renamed once whole: a failed run leaves no features.bin
        # of the full size with rows never written
        path = self.out / "features.bin.tmp"
        with path.open("wb") as f:
            f.write(layout.header)
            f.truncate(layout.offset + layout.count * layout.row_bytes)

        def run(lo, hi):
            feats = dump_features(extract_features(segments.rows(lo, hi), rep), rep, header=False)
            with path.open("r+b") as f:
                f.seek(layout.offset + lo * layout.row_bytes)
                f.write(feats)

        rows = rows_per_call(rep, window)
        fan_out(run, row_blocks(len(segments), rows), rows)
        os.replace(path, self.out / "features.bin")

    def stage_train(self):
        segments, plan = self._segment_index(), self.settings.train
        train_idx, test_idx = select_baseline(segments, self._record_meta()["duration_s"],
                                              min_segments=plan.min_baseline_segments)
        with self._require("features.bin").open("rb") as f:
            layout = self._features_layout(f)
            if layout.count != len(segments):
                raise DataError(f"features.bin holds {layout.count} rows for {len(segments)} "
                                f"segments; re-run 'extract'")
            feats = self._feature_rows(f, layout, 0, len(train_idx))   # the baseline prefix
        stats = fit_normalization(feats)
        spec = build(self.cfg.architecture, self.cfg.representation,
                     segments.config.window_samples)
        # the float32 rows train reads, so the raw and normalized float64 rows
        # are not held through training
        inputs = apply_normalization(feats, stats).astype(np.float32)
        del feats
        trained = train(spec, inputs, stats, plan)

        blob, manifest_json = dump_trained(trained)
        (self.out / "model.params").write_bytes(blob)
        (self.out / "model.json").write_text(manifest_json + "\n")
        (self.out / "baseline.json").write_text(_json_dumps({
            "n_train": int(len(train_idx)),
            "n_test": int(len(test_idx)),
            "train_end_index": int(train_idx[-1]) if len(train_idx) else -1,
        }))

    def stage_score(self):
        path = self._require("features.bin")
        with path.open("rb") as f:
            layout = self._features_layout(f)
            n_train = self._n_train(layout)
            # as train fitted them
            stats = fit_normalization(self._feature_rows(f, layout, 0, n_train))
        trained = load_trained(self._require("model.params").read_bytes(),
                               self._json("model.json", *MODEL_KEYS), stats)

        def run(lo, hi):
            with path.open("rb") as f:
                rows = self._feature_rows(f, layout, lo, hi)
            return score(trained, apply_normalization(rows, stats))

        # the batches of scoring the whole tensor at once: a one-row tail joins
        # the batch before it
        all_errors = np.concatenate(
            fan_out(run, row_blocks(layout.count, SCORE_BATCH, min_rows=2), SCORE_BATCH))
        arrays = {
            "train_errors": all_errors[:n_train],
            "test_indices": np.arange(n_train, layout.count, dtype=np.float64),
            "test_errors": all_errors[n_train:],
        }
        (self.out / "scores.params").write_bytes(dump_arrays(arrays, "scores"))

    def stage_evaluate(self):
        segments, meta, anns = self._segment_index(), self._record_meta(), self._annotations()
        train_err, test_idx, test_err = self._load_scores()
        eval_cfg = replace(self.settings.evaluation, preictal_len_s=self._preictal_len_s(meta))
        w = self.cfg.smoothing_w

        train_raw = series_from_errors(train_err)
        test_raw = series_from_errors(test_err, test_idx)
        train_smooth = smooth(train_raw, w)
        test_smooth = smooth(test_raw, w)
        threshold = fit_threshold(train_smooth, k=self.cfg.k)

        hop_s = segments.config.hop_samples / segments.config.sampling_rate_hz
        gap_segments = int(round(eval_cfg.refractory_gap_s / hop_s))
        flags, events = detect(test_smooth, threshold, refractory_gap=gap_segments)

        start_times = segments.start_times_s()
        intervals = events_to_intervals(events, test_idx, start_times,
                                        segments.config.window_s)
        buckets = classify_alarm_intervals(intervals, anns, eval_cfg)
        predicted, times_min = seizure_outcomes(intervals, anns, eval_cfg)

        test_phases = segments.phases[test_idx]
        counts = count_confusion(flags, test_phases)
        hours = interictal_hours(test_phases, hop_s)
        result = metrics(
            counts, inter_ictal_hours=hours,
            interictal_alarm_events=len(buckets["false"]),
            seizures_total=len(anns),
            seizures_predicted=int(sum(predicted)),
            mean_prediction_time_min=(float(np.mean(times_min)) if times_min else None),
        )

        (self.out / "errors.csv").write_text(export_csv(test_raw, test_smooth, flags))
        (self.out / "evaluation.json").write_text(_json_dumps({
            "patient_id": meta["patient_id"],
            "threshold": asdict(threshold) | {"tau": threshold.tau},
            "smoothing_w": w,
            "eval_config": asdict(eval_cfg) | {"refractory_gap_segments": gap_segments},
            "counting_note": "ictal and post-ictal segments are excluded from "
                             "confusion counts; positives are pre-ictal segments",
            "confusion": asdict(counts),
            "inter_ictal_hours": hours,
            "alarm_events": buckets,
            "seizures": {
                "predicted_per_seizure": predicted,
                "prediction_times_min": times_min,
            },
            "metrics": asdict(result),
        }))

    def stage_report(self):
        segments, anns = self._segment_index(), self._annotations()
        evaluation = self._json("evaluation.json", "counting_note", valid={
            "patient_id": _str, "metrics": _object, "confusion": _object,
            "threshold.mu": _number, "threshold.sigma": _number, "threshold.k": _number,
            "eval_config.preictal_len_s": _number})
        _, test_idx, test_err = self._load_scores()
        patient_id = evaluation["patient_id"]

        result = evaluation["metrics"]
        (self.out / "metrics.json").write_text(_json_dumps({
            "patient_id": patient_id,
            "metrics": result,
            "confusion": evaluation["confusion"],
            "counting_note": evaluation["counting_note"],
        }))
        header = ["patient_id"] + sorted(result)
        row = [patient_id] + [_csv_cell(result[k]) for k in sorted(result)]
        (self.out / "metrics.csv").write_text(
            ",".join(header) + "\n" + ",".join(row) + "\n")

        test_raw = series_from_errors(test_err, test_idx)
        test_smooth = smooth(test_raw, self.cfg.smoothing_w)
        th = evaluation["threshold"]
        threshold = Threshold(mu=th["mu"], sigma=th["sigma"], k=th["k"])
        times = segments.start_times_s()[test_idx]
        svg = render_report_svg(
            test_raw, test_smooth, threshold, anns, times,
            preictal_len_s=evaluation["eval_config"]["preictal_len_s"],
            title=(f"{patient_id}: {self.cfg.architecture} / "
                   f"{self.cfg.representation}, {self.cfg.window_s}s windows"))
        (self.out / "report.svg").write_text(svg)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def run(subcommand: str, cfg: PipelineConfig) -> dict:
    return Pipeline(cfg).run(subcommand)
