"""Post-processing of reconstruction errors: moving-average smoothing, the
tau = mu + k*sigma statistical threshold, and alarm-event extraction."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

DEFAULT_SMOOTHING_W = 31
DEFAULT_K = 2.0


@dataclass(frozen=True)
class ErrorSeries:
    """Per-segment reconstruction errors; smoothing produces a new series."""
    errors: np.ndarray
    indices: np.ndarray
    smoothed: bool = False

    def __post_init__(self):
        errors = np.ascontiguousarray(self.errors, dtype=np.float64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        if len(errors) != len(indices):
            raise DataError("errors and indices differ in length")
        if len(errors) == 0:
            raise DataError("empty error series")
        if np.any(errors < 0):
            raise DataError("reconstruction errors must be nonnegative")
        errors.flags.writeable = False
        indices.flags.writeable = False
        object.__setattr__(self, "errors", errors)
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return len(self.errors)


def series_from_errors(errors: np.ndarray, indices: np.ndarray | None = None) -> ErrorSeries:
    errors = np.asarray(errors, dtype=np.float64)
    if indices is None:
        indices = np.arange(len(errors), dtype=np.int64)
    return ErrorSeries(errors=errors, indices=np.asarray(indices, dtype=np.int64))


def check_smoothing_w(w: int):
    if w < 1 or w % 2 == 0:
        raise DataError(f"smoothing window must be odd and >= 1, got {w}")


def smooth(series: ErrorSeries, w: int = DEFAULT_SMOOTHING_W) -> ErrorSeries:
    """Centered moving average with half-width floor(w/2).

    At the edges the window is clamped to the series and the divisor is the
    number of points actually included, so edge values are unbiased means
    rather than being dragged toward zero.
    """
    if series.smoothed:
        raise DataError("series is already smoothed")
    check_smoothing_w(w)
    half = w // 2
    n = len(series)
    csum = np.concatenate([[0.0], np.cumsum(series.errors)])
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half, n - 1)
    means = (csum[hi + 1] - csum[lo]) / (hi - lo + 1)
    return ErrorSeries(errors=means, indices=series.indices, smoothed=True)


@dataclass(frozen=True)
class Threshold:
    mu: float
    sigma: float
    k: float

    @property
    def tau(self) -> float:
        return self.mu + self.k * self.sigma


def fit_threshold(train_series: ErrorSeries, k: float = DEFAULT_K) -> Threshold:
    """Population mean/std of the (smoothed) training errors; tau = mu + k*sigma."""
    if not train_series.smoothed:
        raise DataError("fit_threshold expects a smoothed training series "
                        "(smooth with the same w used at test time)")
    mu = float(np.mean(train_series.errors))
    sigma = float(np.std(train_series.errors))
    return Threshold(mu=mu, sigma=sigma, k=float(k))


@dataclass(frozen=True)
class AlarmEvent:
    """A maximal run of above-threshold segments, refractory-merged; start/end
    are inclusive positions into the series' index array."""
    start: int
    end: int

    def __post_init__(self):
        if self.end < self.start:
            raise DataError(f"alarm event end {self.end} before start {self.start}")


def detect(series: ErrorSeries, threshold: Threshold,
           refractory_gap: int = 0) -> tuple[np.ndarray, list[AlarmEvent]]:
    """Per-segment flags (strictly above tau) and merged alarm events.

    Runs of consecutive flags separated by at most refractory_gap
    below-threshold segments merge into one event.  The merge affects only
    per-hour alarm accounting, never the segment-level confusion counts.
    """
    if not series.smoothed:
        raise DataError("detect expects a smoothed series")
    if refractory_gap < 0:
        raise DataError("refractory_gap must be >= 0")
    flags = series.errors > threshold.tau

    events: list[AlarmEvent] = []
    run_start = None
    last_true = None
    for i, on in enumerate(flags):
        if on:
            if run_start is None:
                run_start = i
            elif i - last_true - 1 > refractory_gap:
                events.append(AlarmEvent(start=run_start, end=last_true))
                run_start = i
            last_true = i
    if run_start is not None:
        events.append(AlarmEvent(start=run_start, end=last_true))
    return flags, events


def export_csv(raw: ErrorSeries, smoothed: ErrorSeries, flags: np.ndarray) -> str:
    """`segment_index,raw_error,smoothed_error,anomaly_flag` rows."""
    if not (len(raw) == len(smoothed) == len(flags)):
        raise DataError("raw, smoothed and flags differ in length")
    rows = zip(raw.indices.tolist(), raw.errors.tolist(), smoothed.errors.tolist(),
               np.asarray(flags, dtype=np.int8).tolist())
    return "segment_index,raw_error,smoothed_error,anomaly_flag\n" + "".join(
        [f"{idx},{r:.17g},{s:.17g},{f}\n" for idx, r, s, f in rows])
