"""Low-pass filtering, fixed-length segmentation, and seizure-phase labeling."""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np
from scipy import signal as sps

from .errors import ConfigError, DataError
from .ingest.records import EcgRecord, SeizureAnnotation

WINDOW_CHOICES_S = (1, 5, 10)
OVERLAP_CHOICES_S = (0, 1, 3, 5)
POSTICTAL_LEN_S = 600.0   # post-ictal segments are labeled for this long after each offset
FILTER_CHUNK = 1 << 16    # samples per lfilter call of a zero-phase pass


class Phase(IntEnum):
    INTERICTAL = 0
    PREICTAL = 1
    ICTAL = 2
    POSTICTAL = 3


@dataclass(frozen=True)
class FilterConfig:
    """Order-4 recursive low-pass; zero-phase mode runs it forward and backward."""
    cutoff_hz: float = 40.0
    filter_order: int = 4
    zero_phase: bool = True

    def __post_init__(self):
        if self.cutoff_hz <= 0:
            raise ConfigError(f"cutoff_hz must be positive, got {self.cutoff_hz}")
        if self.filter_order < 1:
            raise ConfigError(f"filter_order must be >= 1, got {self.filter_order}")

    def validate(self, sampling_rate_hz: int):
        if self.cutoff_hz >= sampling_rate_hz / 2:
            raise ConfigError(
                f"cutoff {self.cutoff_hz} Hz must lie in (0, Nyquist={sampling_rate_hz / 2}) Hz"
            )


@dataclass(frozen=True)
class SegmentationConfig:
    window_s: int = 1
    overlap_s: int = 0
    sampling_rate_hz: int = 512

    def __post_init__(self):
        if self.window_s not in WINDOW_CHOICES_S:
            raise ConfigError(f"window_s must be one of {WINDOW_CHOICES_S}, got {self.window_s}")
        if self.overlap_s not in OVERLAP_CHOICES_S:
            raise ConfigError(f"overlap_s must be one of {OVERLAP_CHOICES_S}, got {self.overlap_s}")
        if self.overlap_s >= self.window_s:
            raise ConfigError(f"overlap_s ({self.overlap_s}) must be smaller than window_s ({self.window_s})")
        if self.sampling_rate_hz <= 0:
            raise ConfigError("sampling_rate_hz must be positive")

    @property
    def window_samples(self) -> int:
        return self.window_s * self.sampling_rate_hz

    @property
    def hop_samples(self) -> int:
        return (self.window_s - self.overlap_s) * self.sampling_rate_hz


class SegmentIndex:
    """Where each segment of a record starts, and its phase: what the stages
    after feature extraction read of a segment set."""

    def __init__(self, start_samples: np.ndarray, phases: np.ndarray,
                 config: SegmentationConfig):
        self.start_samples = np.ascontiguousarray(start_samples, dtype=np.int64)
        self.phases = np.ascontiguousarray(phases, dtype=np.int8)
        self.config = config
        if len(self.start_samples) != len(self.phases):
            raise DataError("segment arrays disagree on count")
        self.start_samples.flags.writeable = False
        self.phases.flags.writeable = False

    def __len__(self) -> int:
        return len(self.start_samples)

    def start_times_s(self) -> np.ndarray:
        return self.start_samples / self.config.sampling_rate_hz


class SegmentSet(SegmentIndex):
    """Fixed-length windows cut from one record, stored as a (count, window) array."""

    def __init__(self, samples: np.ndarray, start_samples: np.ndarray,
                 phases: np.ndarray, config: SegmentationConfig):
        super().__init__(start_samples, phases, config)
        self.samples = np.ascontiguousarray(samples, dtype=np.float64)
        if len(self.samples) != len(self):
            raise DataError("segment arrays disagree on count")
        if self.samples.ndim != 2 or self.samples.shape[1] != config.window_samples:
            raise DataError(
                f"segment width {self.samples.shape} does not match window_samples {config.window_samples}"
            )
        self.samples.flags.writeable = False

    def with_phases(self, phases: np.ndarray) -> "SegmentSet":
        return SegmentSet(self.samples, self.start_samples, phases, self.config)


def lowpass(record: EcgRecord, cfg: FilterConfig = FilterConfig()) -> EcgRecord:
    """Low-pass the record, preserving DC/baseline wander.

    Zero-phase mode filters forward and backward (no group delay, squared
    magnitude response); padlen is stretched well past the filter's transient
    so the result is symmetric under time reversal.
    """
    cfg.validate(record.sampling_rate_hz)
    b, a = sps.butter(cfg.filter_order, cfg.cutoff_hz / (record.sampling_rate_hz / 2), btype="low")
    if cfg.zero_phase:
        padlen = min(len(record.samples) - 1, max(3 * record.sampling_rate_hz, 3 * len(a)))
        filtered = _filtfilt(b, a, record.samples, padlen)
    else:
        filtered = sps.lfilter(b, a, record.samples)
    return EcgRecord(patient_id=record.patient_id, sampling_rate_hz=record.sampling_rate_hz,
                     samples=filtered, annotations=list(record.annotations))


def _filtfilt(b: np.ndarray, a: np.ndarray, x: np.ndarray, padlen: int) -> np.ndarray:
    """`sps.filtfilt(b, a, x, padlen=padlen)` bit for bit: the same odd
    extension, initial states and two passes, each run in chunks that carry
    the filter's state.  The forward pass writes one array from the
    extension's pieces, never joined, and the backward pass overwrites it
    from its end, so only x and that array are ever whole."""
    zi = sps.lfilter_zi(b, a)
    ext = (2 * x[:1] - x[padlen:0:-1], x, 2 * x[-1:] - x[-2:-(padlen + 2):-1])
    y, pos, z = np.empty(len(x) + 2 * padlen), 0, zi * (ext[0] if padlen else x)[0]
    for piece in ext:
        for lo in range(0, len(piece), FILTER_CHUNK):   # no call on an empty piece
            part = piece[lo:lo + FILTER_CHUNK]
            y[pos:pos + len(part)], z = sps.lfilter(b, a, part, zi=z)
            pos += len(part)
    z = zi * y[-1]
    for hi in range(len(y), 0, -FILTER_CHUNK):
        lo = max(hi - FILTER_CHUNK, 0)
        part, z = sps.lfilter(b, a, y[lo:hi][::-1], zi=z)
        y[lo:hi] = part[::-1]
    return y[padlen:padlen + len(x)]


def segment(record: EcgRecord, cfg: SegmentationConfig) -> SegmentSet:
    """Cut into windows of window_samples advancing by hop_samples.

    count = 1 + floor((N - window) / hop); the trailing partial window is
    discarded.  Phases start all-INTERICTAL; see label_phases.
    """
    if cfg.sampling_rate_hz != record.sampling_rate_hz:
        raise ConfigError(
            f"segmentation config expects fs={cfg.sampling_rate_hz}, record has {record.sampling_rate_hz}"
        )
    n = len(record.samples)
    w, hop = cfg.window_samples, cfg.hop_samples
    if n < w:
        raise DataError(f"record of {n} samples is shorter than one {w}-sample window")
    count = 1 + (n - w) // hop
    # a strided view of the record: SegmentSet copies it only when windows overlap
    windows = np.lib.stride_tricks.sliding_window_view(record.samples, w)[::hop]
    return SegmentSet(windows, np.arange(count, dtype=np.int64) * hop,
                      np.zeros(count, dtype=np.int8), cfg)


def label_phases(segments: SegmentSet, annotations: list[SeizureAnnotation],
                 preictal_len_s: float, postictal_len_s: float = POSTICTAL_LEN_S) -> SegmentSet:
    """Label each segment by its overlap with the annotated seizure windows.

    ICTAL if it overlaps [onset, offset]; PREICTAL if it overlaps
    [onset - preictal_len_s, onset); POSTICTAL if it overlaps
    (offset, offset + postictal_len_s]; otherwise INTERICTAL.
    Precedence: ICTAL > PREICTAL > POSTICTAL.
    """
    fs = segments.config.sampling_rate_hz
    seg_start = segments.start_samples / fs
    seg_end = seg_start + segments.config.window_s
    phases = np.full(len(segments), Phase.INTERICTAL, dtype=np.int8)

    for ann in annotations:
        post = (seg_start <= ann.offset_s + postictal_len_s) & (seg_end > ann.offset_s)
        phases[post & (phases == Phase.INTERICTAL)] = Phase.POSTICTAL
    for ann in annotations:
        pre = (seg_start < ann.onset_s) & (seg_end > ann.onset_s - preictal_len_s)
        phases[pre & (phases != Phase.ICTAL)] = Phase.PREICTAL
    for ann in annotations:
        ictal = (seg_start <= ann.offset_s) & (seg_end > ann.onset_s)
        phases[ictal] = Phase.ICTAL

    return segments.with_phases(phases)
