"""Short-time Fourier transform with a fixed 512-sample window and hop 128."""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DataError

WINDOW_SAMPLES = 512
HOP_SAMPLES = 128
N_BINS = WINDOW_SAMPLES // 2 + 1   # one-sided


def frame_count(n_samples: int) -> int:
    """Centered frames over a reflect-padded signal: 1 + floor(N / hop)."""
    return 1 + n_samples // HOP_SAMPLES


def _window(kind: str) -> np.ndarray:
    if kind == "hann":
        # periodic Hann, the spectral-analysis convention
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW_SAMPLES) / WINDOW_SAMPLES)
    if kind == "rect":
        # test mode: makes the Parseval and exact-bin oracles exact
        return np.ones(WINDOW_SAMPLES)
    raise DataError(f"unknown window kind {kind!r}")


def stft_transform(segments: np.ndarray, window: str = "hann") -> np.ndarray:
    """Complex one-sided STFT X(t, f) of each segment along the last axis;
    shape (..., 1 + floor(N/128), 257).  Frames are sliced at the hop from the
    segment reflect-padded by window/2 on each side."""
    x = np.asarray(segments, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise DataError("stft expects segments of at least 2 samples along the last axis")
    pad = WINDOW_SAMPLES // 2
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(pad, pad)], mode="reflect")
    frames = sliding_window_view(padded, WINDOW_SAMPLES, axis=-1)[..., ::HOP_SAMPLES, :]
    return np.fft.rfft(frames * _window(window), n=WINDOW_SAMPLES, axis=-1)


def stft_spectrogram(segments: np.ndarray, window: str = "hann") -> np.ndarray:
    """S(t, f) = |X(t, f)|^2 of each segment along the last axis: frames as
    rows, one-sided bins as columns; shape (..., 1 + floor(N/128), 257)."""
    x = stft_transform(segments, window=window)
    return x.real ** 2 + x.imag ** 2
