"""Time-frequency representations: DWT coefficient vectors, CWT scalograms,
and STFT spectrograms, plus training-set z-score normalization.

Each transform maps segments along the last axis of its input and returns a
plain ndarray: a 1-d segment gives one feature tensor, a (count, window)
block gives count of them stacked along axis 0.
"""
from __future__ import annotations

import numpy as np

from ..blocks import fan_out, row_blocks
from ..errors import ConfigError
from ..preprocess import SegmentSet
from .cwt import cwt_scalogram, mexican_hat
from .normalize import (SIGMA_FLOOR, NormalizationStats, apply_normalization,
                        fit_normalization)
from .stft import (HOP_SAMPLES, N_BINS, WINDOW_SAMPLES, frame_count,
                   stft_spectrogram, stft_transform)
from .wavelets import (WaveletFilterBank, dwt_decompose, dwt_reconstruct,
                       sym4_bank)

REPRESENTATIONS = ("dwt", "scalogram", "spectrogram")


def feature_shape(representation: str, window_samples: int) -> tuple[int, ...]:
    """Output shape of one segment's feature tensor."""
    if representation == "dwt":
        return (window_samples,)
    if representation == "scalogram":
        return (128, -(-window_samples // 4))
    if representation == "spectrogram":
        return (frame_count(window_samples), N_BINS)
    raise ConfigError(f"unknown representation {representation!r} (choose from {REPRESENTATIONS})")


_TRANSFORMS = {"dwt": dwt_decompose, "scalogram": cwt_scalogram,
               "spectrogram": stft_spectrogram}

# Segments per transform call.  One call on a whole record would allocate FFT
# buffers in proportion to the record's length (24 h of 1 s windows: about
# 3.5 GB per scalogram scale); a block keeps the temporaries at a few MB.
BLOCK_ROWS = 64
# The DWT's level-1 gather is a float64 (rows * window/2, taps) matrix; past
# about 1 MiB a block runs slower per segment than a smaller one, so long
# windows take fewer rows per call (64 at 512 samples, 6 at 5,120).
DWT_GATHER_BYTES = 1 << 20


def rows_per_call(representation: str, window_samples: int) -> int:
    """Segments per transform call of the representation at a window length."""
    if representation != "dwt":
        return BLOCK_ROWS
    gather_row_bytes = window_samples // 2 * len(sym4_bank().h) * 8
    return max(1, min(BLOCK_ROWS, DWT_GATHER_BYTES // gather_row_bytes))


def extract_features(segments: SegmentSet, representation: str) -> np.ndarray:
    """Stack one feature tensor per segment along axis 0 (raw, un-normalized);
    the transform calls fan out over the CPUs (`blocks.fan_out`)."""
    window = segments.config.window_samples
    shape = feature_shape(representation, window)
    transform = _TRANSFORMS[representation]
    rows = rows_per_call(representation, window)
    spans = list(row_blocks(len(segments), rows))
    if len(spans) == 1:   # one call: its result is the output, not copied into it
        return transform(segments.samples)
    out = np.empty((len(segments), *shape))

    def run(lo, hi):
        out[lo:hi] = transform(segments.samples[lo:hi])

    fan_out(run, spans, rows)
    return out


__all__ = [
    "REPRESENTATIONS", "feature_shape", "rows_per_call", "extract_features",
    "WaveletFilterBank", "dwt_decompose", "dwt_reconstruct", "sym4_bank",
    "cwt_scalogram", "mexican_hat",
    "stft_spectrogram", "stft_transform", "frame_count",
    "WINDOW_SAMPLES", "HOP_SAMPLES", "N_BINS",
    "NormalizationStats", "fit_normalization", "apply_normalization", "SIGMA_FLOOR",
]
