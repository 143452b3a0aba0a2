"""Time-frequency representations: DWT coefficient vectors, CWT scalograms,
and STFT spectrograms, plus training-set z-score normalization."""
from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..preprocess import SegmentSet
from .cwt import Scalogram, cwt_scalogram, cwt_transform, mexican_hat
from .normalize import (SIGMA_FLOOR, NormalizationStats, apply_normalization,
                        fit_normalization)
from .stft import (HOP_SAMPLES, N_BINS, WINDOW_SAMPLES, Spectrogram,
                   frame_count, stft_spectrogram, stft_transform)
from .wavelets import (DwtFeature, WaveletFilterBank, dwt_decompose,
                       dwt_reconstruct, split_vector, sym4_bank)

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


_TRANSFORMS = {
    "dwt": lambda x: dwt_decompose(x).vector,
    "scalogram": lambda x: cwt_scalogram(x).values,
    "spectrogram": lambda x: stft_spectrogram(x).values,
}


def extract_features(segments: SegmentSet, representation: str) -> np.ndarray:
    """Stack one feature tensor per segment along axis 0 (raw, un-normalized)."""
    shape = feature_shape(representation, segments.config.window_samples)
    transform = _TRANSFORMS[representation]
    out = np.empty((len(segments), *shape))
    for i in range(len(segments)):
        out[i] = transform(segments.samples[i])
    return out


__all__ = [
    "REPRESENTATIONS", "feature_shape", "extract_features",
    "DwtFeature", "WaveletFilterBank", "dwt_decompose", "dwt_reconstruct",
    "split_vector", "sym4_bank",
    "Scalogram", "cwt_scalogram", "cwt_transform", "mexican_hat",
    "Spectrogram", "stft_spectrogram", "stft_transform", "frame_count",
    "WINDOW_SAMPLES", "HOP_SAMPLES", "N_BINS",
    "NormalizationStats", "fit_normalization", "apply_normalization", "SIGMA_FLOOR",
]
