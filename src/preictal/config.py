"""Plain-text `key = value` pipeline configuration.

Every key is listed here, and unknown keys are rejected so typos cannot
silently fall back to defaults.  Each key's default and range rule live on
the stage object that uses it.  See README.md for the full key table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .anomaly import DEFAULT_K, DEFAULT_SMOOTHING_W, check_smoothing_w
from .errors import ConfigError, DataError
from .evaluation import EvalConfig
from .features import REPRESENTATIONS
from .models import ARCHITECTURES, TrainPlan
from .preprocess import FilterConfig, SegmentationConfig

_BOOL_TRUE = {"true", "yes", "1", "on"}
_BOOL_FALSE = {"false", "no", "0", "off"}


@dataclass
class PipelineConfig:
    # inputs
    record: str = ""
    annotations: str = ""          # optional sidecar CSV
    channel: str = "ECG"           # EDF channel label (which Siena lead is used
                                   # is unstated upstream, so it is configuration)
    patient_id: str = ""           # defaults to the record's own id
    # preprocessing
    window_s: int = SegmentationConfig.window_s
    overlap_s: int = SegmentationConfig.overlap_s
    cutoff_hz: float = FilterConfig.cutoff_hz
    filter_order: int = FilterConfig.filter_order
    zero_phase: bool = FilterConfig.zero_phase
    # representation & model
    representation: str = "spectrogram"
    architecture: str = "mh_c_lstm_ae"
    # training
    epochs: int = TrainPlan.epochs
    batch_size: int = TrainPlan.batch_size
    patience: int = TrainPlan.patience
    min_delta: float = TrainPlan.min_delta
    holdout_fraction: float = TrainPlan.holdout_fraction
    min_baseline_segments: int = TrainPlan.min_baseline_segments
    seed: int = TrainPlan.seed
    # anomaly post-processing
    smoothing_w: int = DEFAULT_SMOOTHING_W
    k: float = DEFAULT_K
    # evaluation
    preictal_len_s: float | None = None   # None -> dynamic: 3600 s if record >= 4 h else 1800 s
    postictal_len_s: float = EvalConfig.postictal_len_s
    refractory_gap_s: float = EvalConfig.refractory_gap_s
    # output
    out: str = "runs/out"


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}   # the config keys


def _parse_value(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "bool":
            low = raw.lower()
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "int":
            return int(raw)
        if kind == "float | None" and raw.lower() in ("", "auto", "none"):
            return None
        if kind.startswith("float"):
            value = float(raw)
            if math.isfinite(value):
                return value
            raise ValueError(f"not finite: {raw!r}")
        return raw
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from exc


def validate_config(text: str, overrides: dict | None = None) -> PipelineConfig:
    """Parse `key = value` lines (# comments allowed) and apply defaults.

    Raises ConfigError on unknown keys, unparsable or out-of-range values.
    """
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        values[key] = _parse_value(key, raw)

    for key, val in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config override {key!r}")
        values[key] = val

    cfg = PipelineConfig(**values)
    stage_settings(cfg)
    return cfg


class StageSettings(NamedTuple):
    filter: FilterConfig
    segmentation: SegmentationConfig   # at the default rate until preprocess knows the record's
    train: TrainPlan
    evaluation: EvalConfig             # an auto preictal_len_s follows record.json duration_s


def stage_settings(cfg: PipelineConfig) -> StageSettings:
    """Build the objects that own each range rule; building them checks cfg."""
    for key, names in (("representation", REPRESENTATIONS), ("architecture", ARCHITECTURES)):
        if getattr(cfg, key) not in names:
            raise ConfigError(f"{key} must be one of {names}, got {getattr(cfg, key)!r}")
    try:
        check_smoothing_w(cfg.smoothing_w)
    except DataError as exc:
        raise ConfigError(f"smoothing_w: {exc}") from exc
    return StageSettings(*(_from_config(cls, cfg) for cls in
                           (FilterConfig, SegmentationConfig, TrainPlan, EvalConfig)))


def _from_config(cls, cfg: PipelineConfig):
    """cls from cfg's same-named fields; a field cfg lacks or holds as None keeps its default."""
    given = {f.name: getattr(cfg, f.name, None) for f in fields(cls)}
    return cls(**{name: value for name, value in given.items() if value is not None})

