"""Orthogonal wavelet filter bank and periodized multilevel DWT.

The sym4 taps are not hard-coded: they are derived at import time by
spectral factorization of the degree-3 half-band polynomial, picking the
near-symmetric factor (that choice is what distinguishes a symlet from the
minimum-phase Daubechies filter of the same order).  The construction is
validated by the orthonormality/perfect-reconstruction tests rather than by
comparison against published constants.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from ..errors import DataError

SYM4_VANISHING_MOMENTS = 4
DWT_LEVELS = 3


@dataclass(frozen=True)
class WaveletFilterBank:
    """Decomposition pair (h low-pass, g high-pass); being orthogonal, the
    bank reconstructs with the same taps."""
    h: np.ndarray   # low-pass decomposition
    g: np.ndarray   # high-pass decomposition


def _orthogonal_candidates(vanishing_moments: int) -> list[np.ndarray]:
    """All real spectral factorizations of the Daubechies half-band polynomial."""
    K = vanishing_moments
    # P(y) = sum_{k<K} C(K-1+k, k) y^k ; roots mapped to reciprocal z-pairs via
    # y = (2 - z - 1/z)/4  =>  z^2 - (2 - 4y) z + 1 = 0
    p_coeffs = [comb(K - 1 + k, k) for k in range(K)]
    y_roots = sorted(np.roots(p_coeffs[::-1]),
                     key=lambda r: (round(r.real, 12), round(r.imag, 12)))

    groups = []   # per root group: (inside-unit-circle choice, outside choice)
    consumed = set()
    for i, y in enumerate(y_roots):
        if i in consumed:
            continue
        consumed.add(i)
        b = 2 - 4 * y
        disc = np.sqrt(complex(b * b - 4))
        z_a, z_b = (b + disc) / 2, (b - disc) / 2
        z_in = z_a if abs(z_a) < 1 else z_b
        z_out = z_b if abs(z_a) < 1 else z_a
        if abs(y.imag) < 1e-12:
            groups.append(([z_in], [z_out]))
        else:
            for j, y2 in enumerate(y_roots):
                if j not in consumed and abs(y2 - np.conj(y)) < 1e-9:
                    consumed.add(j)
                    break
            groups.append(([z_in, np.conj(z_in)], [z_out, np.conj(z_out)]))

    # ((1+z)/2)^K carries the K vanishing moments
    binom = np.array([comb(K, k) for k in range(K + 1)], dtype=np.float64) / 2.0 ** K

    candidates = []
    for picks in itertools.product((0, 1), repeat=len(groups)):
        roots = [z for grp, p in zip(groups, picks) for z in grp[p]]
        factor = np.poly(roots).real
        h = np.convolve(binom, factor)
        h *= np.sqrt(2.0) / h.sum()
        candidates.append(h)
    return candidates


@lru_cache(maxsize=None)
def sym4_bank() -> WaveletFilterBank:
    """Construct the 8-tap near-symmetric orthonormal bank (4 vanishing moments)."""
    candidates = _orthogonal_candidates(SYM4_VANISHING_MOMENTS)
    asymmetry = [float(np.sum((h - h[::-1]) ** 2)) for h in candidates]
    h = candidates[int(np.argmin(asymmetry))]
    # quadrature mirror: g[k] = (-1)^k h[L-1-k]
    L = len(h)
    g = ((-1.0) ** np.arange(L)) * h[::-1]
    h.flags.writeable = False
    g.flags.writeable = False
    return WaveletFilterBank(h=h, g=g)


@lru_cache(maxsize=32)
def _analysis_indices(n: int, taps: int) -> np.ndarray:
    """Index matrix for one periodized analysis level: row n' gathers x[(2n'-k) mod n]."""
    pos = 2 * np.arange(n // 2, dtype=np.int64)[:, None] - np.arange(taps, dtype=np.int64)[None, :]
    return np.mod(pos, n)


def dwt_decompose(segments: np.ndarray, levels: int = DWT_LEVELS) -> np.ndarray:
    """Multilevel periodized sym4 DWT of each segment along the last axis,
    concatenated cA_L || cD_L || ... || cD_1; same shape as the input.

    Each level convolves with (h, g) and downsamples by two with wrap-around
    indexing, so coefficient counts halve exactly per level.
    """
    bank = sym4_bank()
    x = np.asarray(segments, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] % (2 ** levels) != 0:
        raise DataError(f"segments of shape {x.shape}: last axis not divisible by 2^{levels}")
    details = []
    approx = x
    for _ in range(levels):
        idx = _analysis_indices(approx.shape[-1], len(bank.h))
        # a C-ordered (rows, taps) matrix keeps the BLAS product's bytes the same
        # for a block of segments as for one; the 3-d gather's product does not
        gathered = np.take(approx, idx, axis=-1).reshape(-1, len(bank.h))
        shape = (*approx.shape[:-1], len(idx))
        approx = (gathered @ bank.h).reshape(shape)
        details.insert(0, (gathered @ bank.g).reshape(shape))
    return np.concatenate((approx, *details), axis=-1)


def dwt_reconstruct(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of dwt_decompose for one segment's coefficient vector (exact up
    to roundoff for an orthonormal bank)."""
    bank = sym4_bank()
    c = np.asarray(coefficients, dtype=np.float64)
    if c.ndim != 1 or len(c) % (2 ** DWT_LEVELS) != 0:
        raise DataError(f"coefficients of shape {c.shape} do not split into {DWT_LEVELS} levels")
    n = len(c)
    approx = c[:n >> DWT_LEVELS]
    for j in range(DWT_LEVELS, 0, -1):   # cD_j sits at [n >> j, n >> (j - 1))
        idx = _analysis_indices(2 * len(approx), len(bank.h))   # used transposed
        x = np.zeros(2 * len(approx))
        np.add.at(x, idx, approx[:, None] * bank.h)
        np.add.at(x, idx, c[n >> j:n >> (j - 1), None] * bank.g)
        approx = x
    return approx
