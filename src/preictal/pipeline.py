"""Staged end-to-end pipeline with cached intermediates.

Stages: convert -> preprocess -> extract -> train -> score -> evaluate ->
report.  `Pipeline` holds the stage bodies and one reader per artifact; its
`StageCache` (stagecache.py) decides which stages re-run and writes their
artifacts.  With a fixed config and seed every artifact byte is reproducible,
so deleting an intermediate and re-running `all` regenerates it bit-identically.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .anomaly import (Threshold, detect, export_csv, fit_threshold,
                      series_from_errors, smooth)
from .blocks import fan_out, row_blocks
from .cache import (FeatureLayout, dump_features, dump_segments, load_features,
                    load_segment_index, load_segments, read_features_layout, read_rows,
                    read_segments_layout)
from .config import PipelineConfig, stage_settings
from .errors import DataError, check_json, field_kinds
from .evaluation import (ConfusionCounts, EvalResult, classify_alarm_intervals,
                         count_confusion, default_preictal_len_s, events_to_intervals,
                         interictal_hours, metrics, seizure_outcomes)
from .features import (apply_normalization, extract_features, feature_shape, fit_normalization,
                       rows_per_call)
from .ingest import (EcgRecord, load_annotations, parse_csv, parse_edf,
                     serialize_annotations)
from .ingest.records import SeizureAnnotation
from .models import build, dump_trained, load_trained, select_baseline, train
from .models.training import MODEL_JSON, SCORE_BATCH, score
from .nn import dump_arrays, load_arrays
from .preprocess import SegmentIndex, label_phases, lowpass, segment
from .report import render_report_svg
from .stagecache import PRODUCER, STAGE_IO, STAGES, StageCache   # STAGE_IO: for importers


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# every key a stage reads from each JSON artifact, with its kind (errors.check_json)
JSON_KINDS = {
    "record.json": {"patient_id": "str", "sampling_rate_hz": "int > 0", "duration_s": "float > 0"},
    "baseline.json": {"n_train": "int"},
    "model.json": MODEL_JSON,
    "evaluation.json": {"patient_id": "str", "counting_note": "str",
                        "threshold": field_kinds(Threshold),
                        "eval_config": {"preictal_len_s": "float"},
                        "confusion": field_kinds(ConfusionCounts),
                        "metrics": field_kinds(EvalResult)},
}
SCORE_ARRAYS = ("train_errors", "test_indices", "test_errors")


class Pipeline:
    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.settings = stage_settings(cfg)
        self.out = Path(cfg.out)
        self.cache = StageCache(cfg)

    def run(self, subcommand: str) -> dict:
        """Run one stage (with cache checks) or `all`; returns the manifest."""
        if subcommand == "all":
            names = list(STAGES)
        elif subcommand in STAGES:
            names = [subcommand]
        else:
            raise DataError(f"unknown stage {subcommand!r} (choose from {STAGES + ('all',)})")
        with self.cache.open(names):
            for name in names:
                reason = self.cache.check(name)
                if reason is not None:
                    t0 = time.perf_counter()
                    getattr(self, f"stage_{name}")()
                    self.cache.record(name, reason, time.perf_counter() - t0)
        return self.cache.manifest

    # ---- artifact readers: one per artifact -------------------------------

    def _require(self, name: str) -> Path:
        path = self.out / name
        if not path.exists():
            raise DataError(f"missing artifact {name!r}; run the '{PRODUCER[name]}' stage first")
        return path

    def _json(self, name: str) -> dict:
        """A JSON artifact's top-level object, checked against its JSON_KINDS row."""
        path = self._require(name)
        try:
            return check_json(json.loads(path.read_bytes()), JSON_KINDS[name])
        except (ValueError, RecursionError, DataError) as exc:   # not UTF-8, not JSON, too deep
            raise DataError(f"artifact {name!r}: {exc}; re-run '{PRODUCER[name]}'") from exc

    def _annotations(self) -> list[SeizureAnnotation]:
        return load_annotations(self._require("annotations.csv").read_text())

    def _segment_index(self) -> SegmentIndex:
        with self._require("segments.bin").open("rb") as f:
            return load_segment_index(f)

    def _features_layout(self, f) -> FeatureLayout:
        """The layout of features.bin, open for reading in f."""
        layout = read_features_layout(f)
        if layout.representation != self.cfg.representation:
            raise DataError(f"feature cache holds {layout.representation!r}, config wants "
                            f"{self.cfg.representation!r}; re-run 'extract'")
        return layout

    @staticmethod
    def _feature_rows(f, layout: FeatureLayout, lo: int, hi: int) -> np.ndarray:
        return load_features(read_rows(f, layout, lo, hi), layout)[0]

    def _n_train(self, layout: FeatureLayout) -> int:
        n_train = self._json("baseline.json")["n_train"]
        if not 0 <= n_train <= layout.count:
            raise DataError(f"artifact 'baseline.json' holds n_train {n_train!r} for "
                            f"{layout.count} feature rows; re-run 'train'")
        return n_train

    def _load_scores(self, count: int):
        """scores.params' train errors, test indices and test errors: errors
        finite and >= 0 for the `count` segments, in order."""
        data = self._require("scores.params").read_bytes()
        try:
            tag, arrays = load_arrays(data)
            train, idx, test = (arrays.get(key, np.zeros((0, 0))) for key in SCORE_ARRAYS)
            if tag != "scores" or {a.ndim for a in (train, idx, test)} != {1}:
                raise DataError(f"holds tag {tag!r} and arrays {sorted(arrays)}, not the 1-D "
                                f"{', '.join(SCORE_ARRAYS)} of tag 'scores'")
            test_idx = np.arange(len(train), count)
            if len(train) + len(test) != count or not np.array_equal(idx, test_idx):
                raise DataError(f"the {len(train)} + {len(test)} rows are not the {count} "
                                f"segments in order")
            if not all(np.all((e >= 0) & (e < np.inf)) for e in (train, test)):   # NaN fails
                raise DataError("an error is negative or not finite")
        except DataError as exc:
            raise DataError(f"artifact 'scores.params': {exc}; re-run 'score'") from None
        return train, test_idx, test

    def _preictal_len_s(self, meta: dict) -> float:
        """The configured pre-ictal interval, or the default for the record's length."""
        if self.cfg.preictal_len_s is None:
            return default_preictal_len_s(meta["duration_s"])
        return self.cfg.preictal_len_s

    # ---- stages -------------------------------------------------------------

    def stage_convert(self):
        with self.cache.read_sources() as (source, inputs):
            if Path(self.cfg.record).suffix.lower() == ".edf":
                record = parse_edf(source.read(), self.cfg.channel)
            else:   # read in blocks, each hashed as it is read
                record = parse_csv(source, patient_id=self.cfg.patient_id or "unknown")
        annotations = load_annotations(inputs.pop()) if inputs else []
        record = replace(record, patient_id=self.cfg.patient_id or record.patient_id,
                         annotations=annotations)
        with self.cache.writing("record.npy") as f:
            np.save(f, record.samples)
        self.cache.write("record.json", _json_dumps({
            "patient_id": record.patient_id,
            "sampling_rate_hz": record.sampling_rate_hz,
            "duration_s": record.duration_s,
        }))
        self.cache.write("annotations.csv", serialize_annotations(annotations))

    def stage_preprocess(self):
        meta, anns = self._json("record.json"), self._annotations()
        # the raw samples are dropped once filtered
        filtered = lowpass(EcgRecord(patient_id=meta["patient_id"],
                                     sampling_rate_hz=meta["sampling_rate_hz"],
                                     samples=np.load(self._require("record.npy")),
                                     annotations=anns), self.settings.filter)
        seg_cfg = replace(self.settings.segmentation, sampling_rate_hz=filtered.sampling_rate_hz)
        segments = label_phases(segment(filtered, seg_cfg), anns,
                                preictal_len_s=self._preictal_len_s(meta),
                                postictal_len_s=self.settings.evaluation.postictal_len_s)
        self.cache.write("segments.bin", dump_segments(segments))

    # Extract and score fan out once over the whole record (`blocks.fan_out`),
    # in blocks of one transform call or one score batch, so neither a long
    # record's segments nor its feature tensor is ever resident whole: each
    # thread holds one block's rows.  A block reads segments.bin and reads or
    # writes features.bin through handles of its own, so the threads share no
    # file position.

    def stage_extract(self):
        path, rep = self._require("segments.bin"), self.cfg.representation
        with path.open("rb") as f:
            source = read_segments_layout(f)
        window = source.config.window_samples
        layout = FeatureLayout(rep, feature_shape(rep, window), source.count)
        rows = rows_per_call(rep, window)
        with self.cache.writing("features.bin") as out:
            out.write(layout.header)
            out.truncate(layout.offset + layout.count * layout.row_bytes)

            def run(lo, hi):
                with path.open("rb") as f:
                    block = load_segments(read_rows(f, source, lo, hi), source)
                feats = dump_features(extract_features(block, rep), rep, header=False)
                with open(out.name, "r+b") as f:
                    f.seek(layout.offset + lo * layout.row_bytes)
                    f.write(feats)

            fan_out(run, row_blocks(source.count, rows), rows)

    def stage_train(self):
        segments, plan = self._segment_index(), self.settings.train
        train_idx, test_idx = select_baseline(segments, self._json("record.json")["duration_s"],
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
        self.cache.write("model.params", blob)
        self.cache.write("model.json", manifest_json + "\n")
        self.cache.write("baseline.json", _json_dumps({
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
                               self._json("model.json"), stats)

        def run(lo, hi):
            with path.open("rb") as f:
                rows = self._feature_rows(f, layout, lo, hi)
            return score(trained, apply_normalization(rows, stats))

        # the batches of scoring the whole tensor at once: a one-row tail joins
        # the batch before it
        all_errors = np.concatenate(
            fan_out(run, row_blocks(layout.count, SCORE_BATCH, min_rows=2), SCORE_BATCH))
        arrays = (all_errors[:n_train], np.arange(n_train, layout.count, dtype=np.float64),
                  all_errors[n_train:])
        self.cache.write("scores.params", dump_arrays(dict(zip(SCORE_ARRAYS, arrays)), "scores"))

    def stage_evaluate(self):
        segments, meta, anns = self._segment_index(), self._json("record.json"), self._annotations()
        train_err, test_idx, test_err = self._load_scores(len(segments))
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

        self.cache.write("errors.csv", export_csv(test_raw, test_smooth, flags))
        self.cache.write("evaluation.json", _json_dumps({
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
        evaluation = self._json("evaluation.json")
        _, test_idx, test_err = self._load_scores(len(segments))
        patient_id = evaluation["patient_id"]

        result = evaluation["metrics"]
        self.cache.write("metrics.json", _json_dumps({
            key: evaluation[key] for key in ("patient_id", "metrics", "confusion", "counting_note")}))
        header = ["patient_id"] + sorted(result)
        row = [patient_id] + [_csv_cell(result[k]) for k in sorted(result)]
        self.cache.write("metrics.csv", ",".join(header) + "\n" + ",".join(row) + "\n")

        test_raw = series_from_errors(test_err, test_idx)
        test_smooth = smooth(test_raw, self.cfg.smoothing_w)
        threshold = Threshold(**evaluation["threshold"])   # checked: exactly its fields
        times = segments.start_times_s()[test_idx]
        svg = render_report_svg(
            test_raw, test_smooth, threshold, anns, times,
            preictal_len_s=evaluation["eval_config"]["preictal_len_s"],
            title=(f"{patient_id}: {self.cfg.architecture} / "
                   f"{self.cfg.representation}, {self.cfg.window_s}s windows"))
        self.cache.write("report.svg", svg)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def run(subcommand: str, cfg: PipelineConfig) -> dict:
    return Pipeline(cfg).run(subcommand)
