"""Plain-text `key = value` pipeline configuration.

Every paper-silent default lives here, visible and overridable; unknown keys
are rejected so typos cannot silently fall back to defaults.  See README.md
for the full key table.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

from .anomaly import check_smoothing_w
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
    window_s: int = 1
    overlap_s: int = 0
    cutoff_hz: float = 40.0
    filter_order: int = 4
    zero_phase: bool = True
    # representation & model
    representation: str = "spectrogram"
    architecture: str = "mh_c_lstm_ae"
    # training
    epochs: int = 50
    batch_size: int = 32
    patience: int = 5
    min_delta: float = 1e-5
    holdout_fraction: float = 0.1
    min_baseline_segments: int = 60
    seed: int = 0
    # anomaly post-processing
    smoothing_w: int = 31
    k: float = 2.0
    # evaluation
    preictal_len_s: float | None = None   # None -> dynamic: 3600 s if record >= 4 h else 1800 s
    postictal_len_s: float = 600.0
    refractory_gap_s: float = 60.0
    # output
    out: str = "runs/out"

    def require_inputs(self):
        if not self.record:
            raise ConfigError("config key 'record' is required")


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}
_VALID_KEYS = set(_FIELD_TYPES)


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
        if kind == "float":
            return float(raw)
        if kind == "float | None":
            if raw.lower() in ("", "auto", "none"):
                return None
            return float(raw)
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
        if key not in _VALID_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        values[key] = _parse_value(key, raw)

    for key, val in (overrides or {}).items():
        if key not in _VALID_KEYS:
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
    preictal = {} if cfg.preictal_len_s is None else {"preictal_len_s": cfg.preictal_len_s}
    return StageSettings(
        filter=FilterConfig(cutoff_hz=cfg.cutoff_hz, order=cfg.filter_order,
                            zero_phase=cfg.zero_phase),
        segmentation=SegmentationConfig(window_s=cfg.window_s, overlap_s=cfg.overlap_s),
        train=TrainPlan(epochs=cfg.epochs, batch_size=cfg.batch_size, patience=cfg.patience,
                        min_delta=cfg.min_delta, seed=cfg.seed,
                        min_baseline_segments=cfg.min_baseline_segments,
                        holdout_fraction=cfg.holdout_fraction),
        evaluation=EvalConfig(postictal_len_s=cfg.postictal_len_s,
                              refractory_gap_s=cfg.refractory_gap_s, **preictal))

