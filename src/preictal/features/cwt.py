"""Mexican-hat continuous wavelet transform and its squared-energy scalogram.

Each scale's row is the 'same'-mode convolution `scipy.signal.fftconvolve`
computes, done by the same FFTs: the signal's and the kernel's spectra at
next_fast_len(n + 16a), multiplied, transformed back and centered.  That length
never decreases as the scale grows, so the signal is transformed once per
length (45 lengths for 128 scales at 512 samples) rather than once per scale,
and each kernel's spectrum is cached per (scale, length); the bytes are those
of one `fftconvolve` call per scale.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import fft

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


@lru_cache(maxsize=N_SCALES)
def _kernel_spectrum(scale: int, n_fft: int) -> np.ndarray:
    spectrum = fft.rfft(_kernel(scale), n_fft)
    spectrum.flags.writeable = False
    return spectrum


def cwt_scalogram(segments: np.ndarray) -> np.ndarray:
    """Energy E(a, b) = C(a, b)^2 of each segment along the last axis: integer
    scales a = 1..128 as rows, translations b strided by 4 as columns; shape
    (..., 128, ceil(N/4)).  Row a of C convolves the signal with the unit-step-
    sampled, 1/sqrt(a)-normalized kernel, zero-padded at the edges."""
    x = np.asarray(segments, dtype=np.float64)
    n = x.shape[-1] if x.ndim else 0
    if n == 0:
        raise DataError("cwt expects non-empty segments along the last axis")
    out = np.empty((*x.shape[:-1], N_SCALES, -(-n // TIME_STRIDE)))
    n_fft = spectrum = None
    for a in range(1, N_SCALES + 1):
        half = KERNEL_HALF_WIDTH * a
        if n == 1:
            # fftconvolve skips the FFT of a length-1 axis and multiplies by
            # the kernel's center sample
            c = x * _kernel(a)[half]
        else:
            length = fft.next_fast_len(n + 2 * half, True)
            if length != n_fft:
                n_fft, spectrum = length, fft.rfft(x, length)
            c = fft.irfft(spectrum * _kernel_spectrum(a, n_fft), n_fft)[..., half:half + n]
        out[..., a - 1, :] = np.square(c[..., ::TIME_STRIDE])
    return out
