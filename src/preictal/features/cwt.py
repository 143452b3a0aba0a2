"""Mexican-hat continuous wavelet transform and its squared-energy scalogram."""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.signal import fftconvolve

from ..errors import DataError

N_SCALES = 128        # integer scales 1..128
TIME_STRIDE = 4       # scalogram time axis keeps every 4th translation
KERNEL_HALF_WIDTH = 8  # kernel sampled on [-8a, 8a]; |psi| < 1e-12 beyond


def mexican_hat(t: np.ndarray) -> np.ndarray:
    """psi(t) = (1 - t^2) exp(-t^2 / 2); real and even, so the conjugated,
    time-reversed convolution kernel is psi itself."""
    t = np.asarray(t, dtype=np.float64)
    return (1.0 - t * t) * np.exp(-0.5 * t * t)


@lru_cache(maxsize=N_SCALES)
def _kernel(scale: int) -> np.ndarray:
    m = np.arange(-KERNEL_HALF_WIDTH * scale, KERNEL_HALF_WIDTH * scale + 1)
    k = mexican_hat(m / scale) / np.sqrt(scale)
    k.flags.writeable = False
    return k


def cwt_scalogram(segments: np.ndarray) -> np.ndarray:
    """Energy E(a, b) = C(a, b)^2 of each segment along the last axis: integer
    scales a = 1..128 as rows, translations b strided by 4 as columns; shape
    (..., 128, ceil(N/4)).  Row a of C convolves the signal with the unit-step-
    sampled, 1/sqrt(a)-normalized kernel, zero-padded at the edges."""
    x = np.asarray(segments, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise DataError("cwt expects non-empty segments along the last axis")
    out = np.empty((*x.shape[:-1], N_SCALES, -(-x.shape[-1] // TIME_STRIDE)))
    for a in range(1, N_SCALES + 1):
        kernel = _kernel(a).reshape((1,) * (x.ndim - 1) + (-1,))
        c = fftconvolve(x, kernel, mode="same", axes=-1)
        out[..., a - 1, :] = np.square(c[..., ::TIME_STRIDE])
    return out
