import numpy as np
import pytest

from preictal.errors import DataError
from preictal.features import dwt_decompose, dwt_reconstruct, sym4_bank


class TestFilterBank:
    def test_lowpass_sums_to_sqrt2(self):
        bank = sym4_bank()
        assert abs(bank.h.sum() - np.sqrt(2)) < 1e-10

    def test_highpass_sums_to_zero(self):
        assert abs(sym4_bank().g.sum()) < 1e-10

    def test_unit_norm(self):
        bank = sym4_bank()
        assert abs(np.dot(bank.h, bank.h) - 1.0) < 1e-10
        assert abs(np.dot(bank.g, bank.g) - 1.0) < 1e-10

    def test_even_shift_orthonormality(self):
        bank = sym4_bank()
        for m in (1, 2, 3):
            assert abs(np.dot(bank.h[2 * m:], bank.h[:-2 * m])) < 1e-10
            assert abs(np.dot(bank.g[2 * m:], bank.g[:-2 * m])) < 1e-10
        for m in (-3, -2, -1, 0, 1, 2, 3):
            shifted = np.roll(np.pad(bank.g, 8), 2 * m)
            assert abs(np.dot(np.pad(bank.h, 8), shifted)) < 1e-10

    def test_eight_taps(self):
        bank = sym4_bank()
        assert len(bank.h) == len(bank.g) == 8

    def test_four_vanishing_moments(self):
        # high-pass filter annihilates polynomials of degree < 4
        g = sym4_bank().g
        k = np.arange(8.0)
        for power in range(4):
            assert abs(np.dot(g, k ** power)) < 1e-8


class TestDecompose:
    def test_constant_input(self):
        feat = dwt_decompose(np.ones(512))
        assert np.max(np.abs(feat[64:])) < 1e-9   # cD3 || cD2 || cD1
        np.testing.assert_allclose(feat[:64], 2 ** 1.5, atol=1e-9)

    def test_part_lengths(self):
        assert_part_layout(np.random.default_rng(7).normal(size=512))

    def test_brute_force_matrix_oracle(self):
        # compare one analysis level against the explicit orthogonal matrix
        bank = sym4_bank()
        n = 64
        w = np.zeros((n, n))
        for row in range(n // 2):
            for k in range(8):
                w[row, (2 * row - k) % n] += bank.h[k]
                w[row + n // 2, (2 * row - k) % n] += bank.g[k]
        rng = np.random.default_rng(3)
        x = rng.normal(size=n)
        coeffs = w @ x
        feat = dwt_decompose(x, levels=1)
        np.testing.assert_allclose(feat, coeffs, atol=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=512)
        back = dwt_reconstruct(dwt_decompose(x))
        assert np.max(np.abs(back - x)) < 1e-8

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=512), rng.normal(size=512)
        a, b = 1.7, -0.3
        lhs = dwt_decompose(a * x + b * y)
        rhs = a * dwt_decompose(x) + b * dwt_decompose(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_length_not_divisible(self):
        with pytest.raises(DataError, match="divisible"):
            dwt_decompose(np.zeros(500))
        with pytest.raises(DataError, match="split"):
            dwt_reconstruct(np.zeros(500))

    def test_all_window_lengths(self):
        rng = np.random.default_rng(6)
        for n in (512, 2560, 5120):
            assert_part_layout(rng.normal(size=n))


def assert_part_layout(x):
    """cA3 || cD3 || cD2 || cD1 with lengths n/8, n/8, n/4, n/2: cD1 is the
    level-1 detail and the first half is the level-2 transform of cA1."""
    n = len(x)
    feat, one = dwt_decompose(x), dwt_decompose(x, levels=1)
    assert feat.shape == (n,)
    assert np.array_equal(feat[n // 2:], one[n // 2:])
    assert np.array_equal(feat[:n // 2], dwt_decompose(one[:n // 2], levels=2))


def propagate_clean_positions(n, levels, taps=8):
    """Index oracle: which coefficient positions never saw the periodic wrap."""
    clean = [np.ones(n, dtype=bool)]
    size = n
    masks = []
    prev_clean = np.ones(n, dtype=bool)
    for _ in range(levels):
        out = np.zeros(size // 2, dtype=bool)
        for row in range(size // 2):
            src = [2 * row - k for k in range(taps)]
            out[row] = all(0 <= s < size and prev_clean[s] for s in src)
        masks.append(out)
        prev_clean = out
        size //= 2
    return masks


def test_linear_input_interior_details_vanish():
    # vanishing moments annihilate a ramp except where periodization wraps it
    n = 512
    x = np.arange(n, dtype=np.float64)
    feat = dwt_decompose(x)
    masks = propagate_clean_positions(n, levels=3)
    details = [feat[256:], feat[128:256], feat[64:128]]  # cD1, cD2, cD3
    for detail, mask in zip(details, masks):
        assert mask.sum() > len(mask) // 2
        assert np.max(np.abs(detail[mask])) < 1e-9
        # and the wrap really does excite the boundary coefficients
        assert np.max(np.abs(detail[~mask])) > 1.0
