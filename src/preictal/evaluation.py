"""Segment-level confusion metrics with class weighting, per-hour alarm rate,
and seizure-level prediction outcomes.

Counting rules: PREICTAL segments form the positive class, INTERICTAL the
negative class; ICTAL and POSTICTAL segments are excluded entirely (counting
the seizure itself as either class would distort specificity).  Weighted
counts scale TP and FN by w_pos = N_neg / N_pos with w_neg = 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anomaly import AlarmEvent
from .errors import ConfigError, DataError
from .ingest.records import SeizureAnnotation
from .preprocess import POSTICTAL_LEN_S, Phase

LONG_RECORD_CUTOFF_S = 4 * 3600
PREICTAL_LONG_S = 3600.0
PREICTAL_SHORT_S = 1800.0


def default_preictal_len_s(record_duration_s: float) -> float:
    """Dynamic pre-ictal interval: an hour for long records (>= 4 h), else 30 min."""
    return PREICTAL_LONG_S if record_duration_s >= LONG_RECORD_CUTOFF_S else PREICTAL_SHORT_S


@dataclass(frozen=True)
class EvalConfig:
    preictal_len_s: float = PREICTAL_LONG_S
    postictal_len_s: float = POSTICTAL_LEN_S
    refractory_gap_s: float = 60.0

    def __post_init__(self):
        if self.preictal_len_s <= 0:
            raise ConfigError("preictal_len_s must be positive (or 'auto')")
        if self.postictal_len_s < 0 or self.refractory_gap_s < 0:
            raise ConfigError("postictal_len_s and refractory_gap_s must be >= 0")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int
    w_pos: float

    @property
    def tp_weighted(self) -> float:
        return self.tp * self.w_pos

    @property
    def fn_weighted(self) -> float:
        return self.fn * self.w_pos


def count_confusion(anomaly_flags: np.ndarray, phases: np.ndarray) -> ConfusionCounts:
    """Count flagged/unflagged PREICTAL and INTERICTAL segments.

    w_pos is the negative/positive frequency ratio of the counted segments
    (1 when there are no positives, so weighted counts degrade gracefully).
    """
    flags = np.asarray(anomaly_flags, dtype=bool)
    ph = np.asarray(phases)
    if flags.shape != ph.shape:
        raise DataError(f"flags {flags.shape} and phases {ph.shape} differ in length")
    pos = ph == Phase.PREICTAL
    neg = ph == Phase.INTERICTAL
    tp = int(np.sum(pos & flags))
    fn = int(np.sum(pos & ~flags))
    fp = int(np.sum(neg & flags))
    tn = int(np.sum(neg & ~flags))
    n_pos, n_neg = tp + fn, fp + tn
    w_pos = (n_neg / n_pos) if n_pos > 0 else 1.0
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn, w_pos=w_pos)


@dataclass(frozen=True)
class EvalResult:
    accuracy: float | None            # Eq.-style accuracy over weighted counts
    accuracy_unweighted: float | None
    specificity: float | None
    fpr_ratio: float | None           # FP / (FP + TN), unweighted
    fpr_per_hour: float | None        # inter-ictal alarm events per inter-ictal hour
    seizures_total: int
    seizures_predicted: int
    mean_prediction_time_min: float | None


def _ratio(num: float, den: float) -> float | None:
    return None if den == 0 else num / den


def metrics(counts: ConfusionCounts, inter_ictal_hours: float,
            interictal_alarm_events: int, seizures_total: int = 0,
            seizures_predicted: int = 0,
            mean_prediction_time_min: float | None = None) -> EvalResult:
    """Assemble the metric set; undefined ratios are reported as None, not 0.

    Accuracy and specificity use the weighted counts; the FPR ratio uses the
    unweighted FP/TN.  Both FPR variants are reported: the unitless ratio and
    a true alarms-per-hour rate.
    """
    if inter_ictal_hours < 0:
        raise DataError("inter_ictal_hours must be >= 0")
    wtp, wfn = counts.tp_weighted, counts.fn_weighted
    accuracy = _ratio(wtp + counts.tn, wtp + counts.fp + counts.tn + wfn)
    accuracy_unweighted = _ratio(counts.tp + counts.tn,
                                 counts.tp + counts.fp + counts.tn + counts.fn)
    specificity = _ratio(counts.tn, counts.tn + counts.fp)
    fpr_ratio = _ratio(counts.fp, counts.fp + counts.tn)
    fpr_per_hour = _ratio(interictal_alarm_events, inter_ictal_hours)
    return EvalResult(
        accuracy=accuracy,
        accuracy_unweighted=accuracy_unweighted,
        specificity=specificity,
        fpr_ratio=fpr_ratio,
        fpr_per_hour=fpr_per_hour,
        seizures_total=seizures_total,
        seizures_predicted=seizures_predicted,
        mean_prediction_time_min=mean_prediction_time_min,
    )


def seizure_outcomes(alarm_intervals_s: list[tuple[float, float]],
                     annotations: list[SeizureAnnotation],
                     cfg: EvalConfig) -> tuple[list[bool], list[float]]:
    """Seizure-level outcomes on a shared seconds timebase.

    A seizure counts as predicted when at least one alarm interval overlaps
    its pre-ictal interval [onset - preictal_len, onset); the prediction time
    is onset minus the start of the earliest such alarm, in minutes.
    """
    predicted: list[bool] = []
    times: list[float] = []
    for ann in annotations:
        window = (ann.onset_s - cfg.preictal_len_s, ann.onset_s)
        hits = [a for a in alarm_intervals_s if a[0] < window[1] and a[1] > window[0]]
        predicted.append(bool(hits))
        if hits:
            earliest = min(h[0] for h in hits)
            times.append(max(ann.onset_s - earliest, 0.0) / 60.0)
    return predicted, times


def classify_alarm_intervals(alarm_intervals_s: list[tuple[float, float]],
                             annotations: list[SeizureAnnotation],
                             cfg: EvalConfig) -> dict[str, list[tuple[float, float]]]:
    """Split alarm intervals into predictive / post-ictal / false.

    Predictive: overlaps some [onset - preictal_len, offset].  Post-ictal:
    otherwise overlaps an (offset, offset + postictal_len] window (ignored by
    alarm-rate accounting, mirroring the segment-level exclusion).  The rest
    are inter-ictal false alarms.
    """
    out: dict[str, list[tuple[float, float]]] = {"predictive": [], "postictal": [], "false": []}
    for a0, a1 in alarm_intervals_s:
        bucket = "false"
        for ann in annotations:
            if a0 < ann.offset_s and a1 > ann.onset_s - cfg.preictal_len_s:
                bucket = "predictive"
                break
            if a0 < ann.offset_s + cfg.postictal_len_s and a1 > ann.offset_s:
                bucket = "postictal"
        out[bucket].append((a0, a1))
    return out


def events_to_intervals(events: list[AlarmEvent], series_indices: np.ndarray,
                        start_times_s: np.ndarray, window_s: float) -> list[tuple[float, float]]:
    """Map alarm events (positions into a scored series) to second intervals."""
    out = []
    for ev in events:
        seg_a = int(series_indices[ev.start])
        seg_b = int(series_indices[ev.end])
        out.append((float(start_times_s[seg_a]), float(start_times_s[seg_b]) + window_s))
    return out


def interictal_hours(phases: np.ndarray, hop_s: float) -> float:
    """Unique inter-ictal time covered by the scored segments, in hours."""
    return float(np.sum(np.asarray(phases) == Phase.INTERICTAL)) * hop_s / 3600.0
