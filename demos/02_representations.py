#!/usr/bin/env python3
"""The three time-frequency representations of one ECG segment, plus the
self-checks that make them trustworthy (perfect reconstruction, Parseval,
peak-scale behavior).  Each transform works on the last axis and returns a
plain array, so the same call takes one segment or a stack of them."""
import numpy as np

from preictal.features import (cwt_scalogram, dwt_decompose, dwt_reconstruct,
                               fit_normalization, apply_normalization,
                               stft_spectrogram, stft_transform, sym4_bank)
from preictal.ingest import SyntheticSpec, generate_synthetic
from preictal.preprocess import SegmentationConfig, lowpass, segment

record = lowpass(generate_synthetic(SyntheticSpec(duration_s=30.0, base_hr_bpm=66.0,
                                                  noise_std=0.01, rng_seed=2)))
segs = segment(record, SegmentationConfig(1, 0, 512))
x = segs.samples[10]

bank = sym4_bank()
print("sym4 bank (derived, not hard-coded):")
print("  h =", np.round(bank.h, 6))
print(f"  sum(h)-sqrt(2) = {bank.h.sum() - np.sqrt(2):.2e}, sum(g) = {bank.g.sum():.2e}")

coeffs = dwt_decompose(x)   # cA3 || cD3 || cD2 || cD1
err = np.max(np.abs(dwt_reconstruct(coeffs) - x))
n = len(x)
print(f"DWT: parts {(n // 8, n // 8, n // 4, n // 2)} -> vector {len(coeffs)}; "
      f"roundtrip err {err:.2e}")

scal = cwt_scalogram(x)
peak_scale = int(np.argmax(scal.sum(axis=1))) + 1
print(f"CWT scalogram: shape {scal.shape}, peak scale {peak_scale} "
      f"(QRS width sets it)")

spec = stft_spectrogram(x)
peak_bin = 1 + int(np.argmax(spec.sum(axis=0)[1:]))  # skip the DC bin
print(f"STFT spectrogram: shape {spec.shape}, dominant non-DC bin {peak_bin} "
      f"({peak_bin} Hz at 1 Hz/bin)")

# Parseval sanity in the rectangular test mode
X = stft_transform(x, window="rect")
mags = np.abs(X[2]) ** 2
two_sided = mags[0] + mags[-1] + 2 * mags[1:-1].sum()
frame = np.pad(x, 256, mode="reflect")[2 * 128:2 * 128 + 512]
print(f"Parseval (rect mode, frame 2): lhs/rhs = "
      f"{two_sided / (512 * np.sum(frame ** 2)):.12f}")

# normalization: z-scoring with training-set statistics
feats = stft_spectrogram(segs.samples)   # one call over every segment
stats = fit_normalization(feats)
normed = apply_normalization(feats, stats)
print(f"normalized training set: per-dim mean {np.abs(normed.mean(axis=0)).max():.1e}, "
      f"std range [{normed.std(axis=0).min():.3f}, {normed.std(axis=0).max():.3f}]")
