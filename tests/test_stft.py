import numpy as np
import pytest

from preictal.errors import DataError
from preictal.features import (HOP_SAMPLES, N_BINS, WINDOW_SAMPLES,
                               frame_count, stft_spectrogram, stft_transform)

FS = 512


def oracle_frames(x):
    """Independent framing: reflect pad by window/2, slice at the hop."""
    padded = np.pad(x, WINDOW_SAMPLES // 2, mode="reflect")
    n = 1 + len(x) // HOP_SAMPLES
    return np.stack([padded[k * HOP_SAMPLES:k * HOP_SAMPLES + WINDOW_SAMPLES]
                     for k in range(n)])


def oracle_dft(frame):
    """Brute-force two-sided DFT (no FFT)."""
    n = len(frame)
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return basis @ frame


def test_frame_and_bin_counts_all_windows():
    for n, frames in ((512, 5), (2560, 21), (5120, 41)):
        assert frame_count(n) == frames
        spec = stft_spectrogram(np.zeros(n))
        assert spec.shape == (frames, N_BINS)
    assert N_BINS == WINDOW_SAMPLES // 2 + 1 == 257


def test_nonnegative_and_quadratic_scaling():
    rng = np.random.default_rng(0)
    x = rng.normal(size=512)
    s1 = stft_spectrogram(x)
    s2 = stft_spectrogram(2.0 * x)
    assert np.all(s1 >= 0)
    np.testing.assert_allclose(s2, 4.0 * s1, rtol=1e-12)


def test_empty_rejected():
    with pytest.raises(DataError):
        stft_spectrogram(np.array([]))


def test_rect_mode_matches_brute_force_dft():
    rng = np.random.default_rng(1)
    x = rng.normal(size=512)
    ours = stft_transform(x, window="rect")
    frames = oracle_frames(x)
    for k in range(len(frames)):
        full = oracle_dft(frames[k])
        np.testing.assert_allclose(ours[k], full[:N_BINS], atol=1e-8)


def test_parseval_identity_rect_mode():
    rng = np.random.default_rng(2)
    x = rng.normal(size=512)
    spec = stft_transform(x, window="rect")
    frames = oracle_frames(x)
    for k in range(len(frames)):
        # reassemble the two-sided energy from the one-sided buffer
        mags = np.abs(spec[k]) ** 2
        two_sided = mags[0] + mags[-1] + 2 * mags[1:-1].sum()
        rhs = WINDOW_SAMPLES * np.sum(frames[k] ** 2)
        assert abs(two_sided - rhs) / rhs < 1e-6


def test_sine_argmax_bins_match_oracle():
    t = np.arange(512) / FS
    x = np.sin(2 * np.pi * 64 * t)
    ours = stft_spectrogram(x, window="rect")
    frames = oracle_frames(x)
    oracle_argmax = []
    for k in range(len(frames)):
        mag = np.abs(oracle_dft(frames[k])[:N_BINS])
        oracle_argmax.append(int(np.argmax(mag)))
    # frame 0 is half reflection: the mirrored sine cancels exactly at its own
    # bin, so the oracle puts its peak one bin off; all frames with original
    # content anchored on the left peak exactly at bin 64
    assert oracle_argmax == [63, 64, 64, 64, 64]
    assert [int(np.argmax(ours[k])) for k in range(len(ours))] == oracle_argmax


def test_hann_window_suppresses_leakage():
    t = np.arange(512) / FS
    x = np.sin(2 * np.pi * 64.5 * t)   # off-bin tone
    rect = stft_spectrogram(x, window="rect")[2]
    hann = stft_spectrogram(x, window="hann")[2]
    # far-off-bin leakage should be much lower for the tapered window
    assert hann[200:].max() < rect[200:].max() / 10
