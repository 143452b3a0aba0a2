"""Baseline selection: the initial inter-ictal run caps the training set."""
from __future__ import annotations

import numpy as np

from ..errors import DataError
from ..preprocess import Phase, SegmentIndex
from .training import TrainPlan

BASELINE_CAP_S = 30 * 60          # never train on more than 30 minutes
BASELINE_CAP_FRACTION = 0.20      # nor on more than 20% of the record


class BaselineUnavailableError(DataError):
    """No usable baseline before the first pre-ictal interval; skip the record."""


def baseline_cap_s(record_duration_s: float) -> float:
    return min(BASELINE_CAP_S, BASELINE_CAP_FRACTION * record_duration_s)


def select_baseline(segments: SegmentIndex, record_duration_s: float,
                    min_segments: int = TrainPlan.min_baseline_segments
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Split segment indices into (train, test).

    Train = the initial contiguous INTERICTAL run, truncated to
    min(30 min, 20% of the record); test = everything after it.  Train is
    always the prefix 0..n_train-1, so its feature rows are the first
    n_train rows of the record's.  Requires phases to be labeled first
    (label_phases).
    """
    phases = segments.phases
    run_end = 0
    while run_end < len(segments) and phases[run_end] == Phase.INTERICTAL:
        run_end += 1

    cap_s = baseline_cap_s(record_duration_s)
    cfg = segments.config
    # last segment whose window still ends inside the cap
    cap_samples = int(cap_s * cfg.sampling_rate_hz)
    if cap_samples < cfg.window_samples:
        cap_count = 0
    else:
        cap_count = (cap_samples - cfg.window_samples) // cfg.hop_samples + 1
    n_train = min(run_end, cap_count)

    if n_train < min_segments:
        raise BaselineUnavailableError(
            f"only {n_train} usable baseline segments before the first pre-ictal "
            f"interval (need {min_segments}); record skipped"
        )
    train = np.arange(n_train, dtype=np.int64)
    test = np.arange(n_train, len(segments), dtype=np.int64)
    return train, test
