"""Spans around calls into the program, installed from outside it.

The tracer replaces public names on the program's modules and classes with
wrappers that record a span (name, start, end, parent) per call, kept in
memory. A sampler thread reads the process's resident set so stage spans can
report their peak. `per_layer_metrics` turns the spans into the per-layer
metrics listed in LAYER_METRICS; every time is a self time (the span's
duration minus its child spans) unless the metric says otherwise.
"""
from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

STAGES = ("convert", "preprocess", "extract", "train", "score", "evaluate", "report")
NN_LAYERS = ("Lstm", "MultiHeadAttention", "Conv1d", "BatchNorm", "Dense", "LayerNorm",
             "FeedForward", "TransformerEncoderLayer", "Dropout", "Relu", "RepeatVector",
             "TakeLast")

# name -> (unit, better); the order is the order of printing
LAYER_METRICS: dict[str, tuple[str, str]] = {
    **{f"pipeline.{s}_s": ("s", "lower") for s in STAGES},
    **{f"pipeline.{s}_peak_rss_mb": ("MB", "lower") for s in ("extract", "train", "score")},
    "pipeline.stages_run": ("count", "lower"),
    "pipeline.stages_reused": ("count", "higher"),
    "ingest.parse_csv_s": ("s", "lower"),
    "ingest.parse_edf_s": ("s", "lower"),
    "ingest.input_mb_per_s": ("MB/s", "higher"),
    "ingest.serialize_csv_s": ("s", "lower"),
    "ingest.write_edf_s": ("s", "lower"),
    "ingest.generate_synthetic_s": ("s", "lower"),
    "preprocess.lowpass_s": ("s", "lower"),
    "preprocess.segment_s": ("s", "lower"),
    "preprocess.label_phases_s": ("s", "lower"),
    "features.extract_ms_per_segment": ("ms", "lower"),
    "features.normalize_s": ("s", "lower"),
    **{f"cache.{op}_{kind}_s": ("s", "lower")
       for op in ("dump", "load") for kind in ("segments", "features")},
    "cache.load_segments_calls": ("count", "lower"),
    "cache.load_features_calls": ("count", "lower"),
    "cache.read_mb": ("MB", "lower"),
    "models.train_s": ("s", "lower"),
    "models.epochs": ("count", "lower"),
    "models.steps": ("count", "lower"),
    "models.step_ms": ("ms", "lower"),
    "models.score_ms_per_segment": ("ms", "lower"),
    **{f"nn.{layer}.{d}_ms": ("ms", "lower") for layer in NN_LAYERS
       for d in ("forward", "backward")},
    "nn.adam_step_ms": ("ms", "lower"),
    "nn.mse_loss_ms": ("ms", "lower"),
    "anomaly.smooth_ms": ("ms", "lower"),
    "anomaly.detect_ms": ("ms", "lower"),
    "anomaly.export_csv_ms": ("ms", "lower"),
    "evaluation.total_ms": ("ms", "lower"),
    "report.render_svg_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_PAGE = os.sysconf("SC_PAGE_SIZE")
# sampling every 2 ms slowed a traced scalogram round by a quarter
RSS_SAMPLE_S = 0.02


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE


class Tracer:
    """Records spans for calls to the wrapped names while installed."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, info]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.rss: list[tuple[float, int]] = []
        self._stop = threading.Event()
        self._sampler: threading.Thread | None = None

    # ---- installing wrappers ------------------------------------------------

    def wrap(self, owner, attr: str, name, info=None):
        """Replace owner.attr by a wrapper; name is a string or a function of
        the call's arguments; info(args, kwargs, result) is kept on the span."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name if isinstance(name, str) else name(args, kwargs),
                          0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if info is not None:
                spans[idx][4] = info(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self):
        import preictal.ingest as ingest
        import preictal.models as models
        import preictal.models.training as training
        import preictal.nn as nn
        import preictal.pipeline as pipeline
        import preictal.features as features
        import preictal.preprocess as preprocess

        size = lambda args, kwargs, result: len(args[0])
        for mod in (pipeline, ingest):
            self.wrap(mod, "parse_csv", "ingest.parse_csv", size)
            self.wrap(mod, "parse_edf", "ingest.parse_edf", size)
        for fn in ("generate_synthetic", "serialize_csv", "write_edf"):
            self.wrap(ingest, fn, f"ingest.{fn}")
        for mod in (pipeline, preprocess):
            for fn in ("lowpass", "segment", "label_phases"):
                self.wrap(mod, fn, f"preprocess.{fn}")
        for mod in (pipeline, features):
            self.wrap(mod, "extract_features", "features.extract_features", size)
            self.wrap(mod, "fit_normalization", "features.normalize")
            self.wrap(mod, "apply_normalization", "features.normalize")
        for fn in ("dump_segments", "dump_features"):
            self.wrap(pipeline, fn, f"cache.{fn}")
        for fn in ("load_segments", "load_features"):
            self.wrap(pipeline, fn, f"cache.{fn}", size)
        epochs = lambda args, kwargs, result: len(result.loss_history) - 1
        scored = lambda args, kwargs, result: len(result)
        for mod in (pipeline, models):
            self.wrap(mod, "train", "models.train", epochs)
            self.wrap(mod, "score", "models.score", scored)
        self.wrap(training, "adam_step", "nn.adam_step")
        self.wrap(training, "mse_loss", "nn.mse_loss")
        mode = lambda args, kwargs: ("nn.Sequential.forward_train"
                                     if kwargs.get("training", args[2] if len(args) > 2 else False)
                                     else "nn.Sequential.forward_infer")
        self.wrap(nn.Sequential, "forward", mode)
        self.wrap(nn.Sequential, "backward", "nn.Sequential.backward")
        for layer in NN_LAYERS:
            cls = getattr(nn, layer)
            self.wrap(cls, "forward", f"nn.{layer}.forward")
            self.wrap(cls, "backward", f"nn.{layer}.backward")
        for fn in ("smooth", "detect", "export_csv"):
            self.wrap(pipeline, fn, f"anomaly.{fn}")
        for fn in ("count_confusion", "classify_alarm_intervals", "seizure_outcomes",
                   "events_to_intervals", "interictal_hours", "metrics"):
            self.wrap(pipeline, fn, "evaluation")
        self.wrap(pipeline, "render_report_svg", "report.render_svg")
        for stage in STAGES:
            self.wrap(pipeline.Pipeline, f"stage_{stage}", f"pipeline.{stage}")
        self.wrap(pipeline.Pipeline, "run", "pipeline.run")

        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()

    def uninstall(self):
        self._stop.set()
        if self._sampler is not None:
            self._sampler.join()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _sample(self):
        while not self._stop.is_set():
            self.rss.append((time.perf_counter(), _rss_bytes()))
            self._stop.wait(RSS_SAMPLE_S)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path: Path):
        path.write_text(json.dumps({"spans": self.spans, "rss": self.rss}))

    # ---- aggregation ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def peak_rss_mb(self, name: str) -> float:
        peak = 0
        for span in self.spans:
            if span[0] == name:
                inside = [rss for t, rss in self.rss if span[1] <= t <= span[2]]
                peak = max([peak, *inside])
        return peak / 1e6


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    spans = tracer.spans
    self_s = tracer.self_times()
    inclusive: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    info: dict[str, float] = defaultdict(float)
    model: dict[str, float] = defaultdict(float)    # whole-model calls only
    model_calls: dict[str, int] = defaultdict(int)
    for name, start, end, parent, extra in spans:
        inclusive[name] += end - start
        count[name] += 1
        if extra is not None:
            info[name] += extra
        if name.startswith("nn.Sequential.") and (
                parent < 0 or not spans[parent][0].startswith("nn.")):
            model[name] += end - start
            model_calls[name] += 1
    batches = (model_calls["nn.Sequential.forward_train"]
               + model_calls["nn.Sequential.forward_infer"])

    def per(total: float, n: float, scale: float = 1e3) -> float:
        return total * scale / n if n else 0.0

    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"pipeline.{stage}_s"] = self_s.get(f"pipeline.{stage}", 0.0)
    for stage in ("extract", "train", "score"):
        m[f"pipeline.{stage}_peak_rss_mb"] = tracer.peak_rss_mb(f"pipeline.{stage}")
    stages_run = sum(count[f"pipeline.{s}"] for s in STAGES)
    m["pipeline.stages_run"] = stages_run
    m["pipeline.stages_reused"] = len(STAGES) * count["pipeline.run"] - stages_run
    parse_s = self_s.get("ingest.parse_csv", 0.0) + self_s.get("ingest.parse_edf", 0.0)
    m["ingest.parse_csv_s"] = self_s.get("ingest.parse_csv", 0.0)
    m["ingest.parse_edf_s"] = self_s.get("ingest.parse_edf", 0.0)
    m["ingest.input_mb_per_s"] = per(info["ingest.parse_csv"] + info["ingest.parse_edf"],
                                     parse_s, 1e-6)
    for fn in ("serialize_csv", "write_edf", "generate_synthetic"):
        m[f"ingest.{fn}_s"] = self_s.get(f"ingest.{fn}", 0.0)
    for fn in ("lowpass", "segment", "label_phases"):
        m[f"preprocess.{fn}_s"] = self_s.get(f"preprocess.{fn}", 0.0)
    m["features.extract_ms_per_segment"] = per(inclusive["features.extract_features"],
                                               info["features.extract_features"])
    m["features.normalize_s"] = self_s.get("features.normalize", 0.0)
    for op in ("dump", "load"):
        for kind in ("segments", "features"):
            m[f"cache.{op}_{kind}_s"] = self_s.get(f"cache.{op}_{kind}", 0.0)
    m["cache.load_segments_calls"] = count["cache.load_segments"]
    m["cache.load_features_calls"] = count["cache.load_features"]
    m["cache.read_mb"] = (info["cache.load_segments"] + info["cache.load_features"]) / 1e6
    steps = count["nn.adam_step"]
    m["models.train_s"] = self_s.get("models.train", 0.0)
    m["models.epochs"] = int(info["models.train"])
    m["models.steps"] = steps
    m["models.step_ms"] = per(model["nn.Sequential.forward_train"]
                              + model["nn.Sequential.backward"]
                              + inclusive["nn.mse_loss"] + inclusive["nn.adam_step"], steps)
    m["models.score_ms_per_segment"] = per(inclusive["models.score"], info["models.score"])
    for layer in NN_LAYERS:
        m[f"nn.{layer}.forward_ms"] = per(self_s.get(f"nn.{layer}.forward", 0.0), batches)
        m[f"nn.{layer}.backward_ms"] = per(self_s.get(f"nn.{layer}.backward", 0.0),
                                           model_calls["nn.Sequential.backward"])
    m["nn.adam_step_ms"] = per(inclusive["nn.adam_step"], count["nn.adam_step"])
    m["nn.mse_loss_ms"] = per(inclusive["nn.mse_loss"], count["nn.mse_loss"])
    for fn in ("smooth", "detect", "export_csv"):
        m[f"anomaly.{fn}_ms"] = per(inclusive[f"anomaly.{fn}"], count[f"anomaly.{fn}"])
    m["evaluation.total_ms"] = per(self_s.get("evaluation", 0.0), count["pipeline.evaluate"])
    m["report.render_svg_ms"] = per(inclusive["report.render_svg"], count["report.render_svg"])
    m["trace.overhead_s"] = overhead_s
    if list(m) != list(LAYER_METRICS):
        raise RuntimeError("per-layer metrics out of step with LAYER_METRICS")
    return m

