"""Core record types: ECG recordings, seizure annotations, synthetic recipes."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..errors import DataError


class SeizureType(Enum):
    IAS = "IAS"      # focal onset impaired awareness
    WIAS = "WIAS"    # focal onset without impaired awareness
    FBTC = "FBTC"    # focal to bilateral tonic-clonic
    OTHER = "OTHER"


@dataclass(frozen=True)
class SeizureAnnotation:
    """One seizure event, in seconds from record start."""
    onset_s: float
    offset_s: float
    seizure_type: SeizureType = SeizureType.OTHER

    def __post_init__(self):
        if not 0 <= self.onset_s < self.offset_s:
            raise DataError(
                f"annotation must satisfy 0 <= onset < offset, "
                f"got onset={self.onset_s}, offset={self.offset_s}"
            )


@dataclass
class EcgRecord:
    """A continuous single-channel ECG recording plus its seizure annotations.

    Samples are millivolts, float64.  Instances are treated as immutable
    after construction (the sample buffer is made read-only) so they can be
    shared freely across threads.
    """
    patient_id: str
    sampling_rate_hz: int
    samples: np.ndarray
    annotations: list[SeizureAnnotation] = field(default_factory=list)

    def __post_init__(self):
        if int(self.sampling_rate_hz) != self.sampling_rate_hz or self.sampling_rate_hz <= 0:
            raise DataError(f"sampling_rate_hz must be a positive integer, got {self.sampling_rate_hz}")
        self.sampling_rate_hz = int(self.sampling_rate_hz)
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise DataError("samples must be a non-empty 1-d array")
        self.samples.flags.writeable = False
        validate_annotations(self.annotations, self.duration_s)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sampling_rate_hz


def validate_annotations(annotations: list[SeizureAnnotation], duration_s: float | None = None):
    """Check ordering, non-overlap and (optionally) containment in the record."""
    prev = None
    for ann in annotations:
        if prev is not None:
            if ann.onset_s < prev.onset_s:
                raise DataError("annotations must be sorted by onset")
            if ann.onset_s < prev.offset_s:
                raise DataError(
                    f"annotation [{ann.onset_s}, {ann.offset_s}] overlaps "
                    f"previous [{prev.onset_s}, {prev.offset_s}]"
                )
        prev = ann
    if duration_s is not None:
        for ann in annotations:
            if ann.offset_s > duration_s:
                raise DataError(
                    f"annotation offset {ann.offset_s} s beyond record end ({duration_s} s)"
                )


@dataclass(frozen=True)
class SyntheticEvent:
    """One injected seizure: heart rate ramps and pulses jitter during the lead window."""
    onset_s: float
    preictal_lead_s: float
    hr_ramp_bpm: float
    jitter_std: float


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic synthetic ECG with injectable pre-ictal anomalies.

    hrv_bpm adds a slow sinusoidal heart-rate modulation (respiratory-style
    variability) so baseline pulses sweep all window phases; leave it at 0
    for a strictly periodic pulse train.
    """
    duration_s: float
    base_hr_bpm: float = 60.0
    noise_std: float = 0.0
    events: tuple[SyntheticEvent, ...] = ()
    rng_seed: int = 0
    sampling_rate_hz: int = 512
    hrv_bpm: float = 0.0
    hrv_period_s: float = 4.1   # respiratory-rate modulation
