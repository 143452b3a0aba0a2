import numpy as np
import pytest
from scipy.signal import fftconvolve

from preictal.errors import DataError
from preictal.features import cwt_scalogram, mexican_hat
from preictal.features.cwt import KERNEL_HALF_WIDTH, N_SCALES, TIME_STRIDE, _kernel


def test_kernel_values_at_origin_and_unit():
    assert mexican_hat(np.array([0.0]))[0] == 1.0
    np.testing.assert_allclose(mexican_hat(np.array([-1.0, 1.0])), 0.0, atol=1e-15)


def test_kernel_sampling_grid():
    for a in (1, 5, 128):
        k = _kernel(a)
        assert len(k) == 2 * KERNEL_HALF_WIDTH * a + 1
        # 1/sqrt(a) normalization at the center
        assert abs(k[len(k) // 2] - 1 / np.sqrt(a)) < 1e-15


def test_zero_input_zero_scalogram():
    s = cwt_scalogram(np.zeros(512))
    assert s.shape == (128, 128)
    assert np.all(s == 0.0)


def test_shape_for_all_windows():
    for n in (512, 2560, 5120):
        s = cwt_scalogram(np.zeros(n))
        assert s.shape == (128, -(-n // 4))


def test_nonnegative_and_quadratic_scaling():
    rng = np.random.default_rng(0)
    x = rng.normal(size=512)
    s1 = cwt_scalogram(x)
    s2 = cwt_scalogram(2.0 * x)
    assert np.all(s1 >= 0)
    assert np.array_equal(s2, 4.0 * s1)   # exact for a power-of-two factor


def test_empty_rejected():
    with pytest.raises(DataError):
        cwt_scalogram(np.array([]))


def quadrature_scale_energy(width, n=512, dt=0.05):
    """Direct numerical evaluation of the continuous transform by quadrature."""
    center = n / 2
    t = np.arange(-KERNEL_HALF_WIDTH * 130, n + KERNEL_HALF_WIDTH * 130, dt)
    x = np.exp(-((t - center) ** 2) / (2 * width ** 2))
    energies = []
    for a in range(1, 129):
        total = 0.0
        for b in range(0, n, 16):
            psi = mexican_hat((t - b) / a) / np.sqrt(a)
            c = np.trapezoid(x * psi, dx=dt)
            total += c * c
        energies.append(total)
    return np.array(energies)


def test_gaussian_bump_peak_scale_matches_quadrature_oracle():
    width = 12.0
    n = 512
    x = np.exp(-((np.arange(n) - n / 2) ** 2) / (2 * width ** 2))
    ours = cwt_scalogram(x).sum(axis=1)
    oracle = quadrature_scale_energy(width, n=n)
    assert abs(int(np.argmax(ours)) - int(np.argmax(oracle))) <= 2


def fftconvolve_scalogram(segments):
    """The transform as one `fftconvolve` call per scale."""
    x = np.asarray(segments, dtype=np.float64)
    out = np.empty((*x.shape[:-1], N_SCALES, -(-x.shape[-1] // TIME_STRIDE)))
    for a in range(1, N_SCALES + 1):
        kernel = _kernel(a).reshape((1,) * (x.ndim - 1) + (-1,))
        c = fftconvolve(x, kernel, mode="same", axes=-1)
        out[..., a - 1, :] = np.square(c[..., ::TIME_STRIDE])
    return out


# one signal FFT per transform length gives the bytes of one fftconvolve per
# scale: batches of one to a full call, odd and short lengths, more leading
# axes, and length 1, where fftconvolve multiplies instead
@pytest.mark.parametrize("shape", [(512,), (1, 512), (3, 512), (48, 512), (64, 512),
                                   (7, 2560), (5, 1000), (2, 3, 511), (4, 17), (2, 1)])
def test_matches_one_fftconvolve_per_scale_bytewise(shape):
    x = np.random.default_rng(sum(shape)).normal(size=shape)
    got, want = cwt_scalogram(x), fftconvolve_scalogram(x)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
