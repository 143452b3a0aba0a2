import numpy as np
import pytest

from preictal.nn import (AdamState, Dense, adam_step, dump_arrays, load_arrays,
                         make_rng, mse_loss)


def test_zero_gradient_leaves_params_unchanged():
    p = np.array([1.0, -2.0, 3.0])
    g = np.zeros(3)
    before = p.copy()
    adam_step([("p", p, g)], AdamState())
    assert np.array_equal(p, before)


def test_first_step_magnitude_and_direction():
    # closed form: update = -lr * g / (|g| + eps) ~= -lr * sign(g)
    p = np.array([1.0, 1.0])
    g = np.array([0.5, -0.25])
    state = AdamState()
    adam_step([("p", p, g)], state)
    expected = 1.0 - 1e-3 * np.sign(g) * (np.abs(g) / (np.abs(g) + 1e-8))
    np.testing.assert_allclose(p, expected, rtol=1e-12)
    assert abs(abs(p[0] - 1.0) - 1e-3) < 1e-9


def test_moments_track_parameter_shapes():
    rng = make_rng(0)
    layer = Dense(4, 3, rng)
    x = np.random.default_rng(1).normal(size=(8, 4))
    out = layer.forward(x, training=True)
    _, grad = mse_loss(out, np.zeros_like(out))
    layer.zero_grads()
    layer.backward(grad)
    state = AdamState()
    adam_step(layer.named_params(), state)
    for name, param, _ in layer.named_params():
        assert state.m[name].shape == param.shape
        assert state.v[name].shape == param.shape


def test_training_reduces_loss():
    rng = make_rng(2)
    layer = Dense(6, 6, rng)
    data_rng = np.random.default_rng(3)
    x = data_rng.normal(size=(32, 6))
    target = x @ (0.2 * data_rng.normal(size=(6, 6)))
    state = AdamState()

    def loss_of():
        return mse_loss(layer.forward(x, training=True), target)[0]

    first = loss_of()
    for _ in range(800):
        out = layer.forward(x, training=True)
        _, grad = mse_loss(out, target)
        layer.zero_grads()
        layer.backward(grad)
        adam_step(layer.named_params(), state)
    assert loss_of() < first / 10


def test_array_dump_roundtrip():
    rng = np.random.default_rng(4)
    arrays = {
        "enc.0.w": rng.normal(size=(4, 7)),
        "enc.0.b": rng.normal(size=7),
        "scalar": np.array(3.5),
    }
    blob = dump_arrays(arrays, "test_arch:v1")
    tag, back = load_arrays(blob)
    assert tag == "test_arch:v1"
    assert list(back) == list(arrays)
    for name in arrays:
        assert np.array_equal(back[name], arrays[name])
        assert back[name].shape == arrays[name].shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_update_matches_the_plain_expression_bytewise(dtype):
    # the update in out= buffers rounds as the textbook expression does
    rng = np.random.default_rng(4)
    p = rng.normal(size=(7, 5)).astype(dtype)
    ref_p, ref_m, ref_v = p.copy(), np.zeros_like(p), np.zeros_like(p)
    state = AdamState()
    b1, b2 = state.beta1, state.beta2
    for step in range(1, 7):
        g = rng.normal(size=p.shape).astype(dtype)
        adam_step([("p", p, g)], state)
        ref_m = b1 * ref_m + (1 - b1) * g
        ref_v = b2 * ref_v + (1 - b2) * g * g
        ref_p -= (state.lr * (ref_m / (1.0 - b1 ** step))
                  / (np.sqrt(ref_v / (1.0 - b2 ** step)) + state.eps))
        assert p.dtype == dtype
        assert (p.tobytes(), state.m["p"].tobytes(), state.v["p"].tobytes()) == \
            (ref_p.tobytes(), ref_m.tobytes(), ref_v.tobytes()), step
