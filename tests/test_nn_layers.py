import numpy as np
import pytest

from preictal import blocks
from preictal.errors import DataError
from preictal.nn import (BatchNorm, Conv1d, Dense, Dropout, FeedForward,
                         LayerNorm, Lstm, MultiHeadAttention, Relu,
                         RepeatVector, Sequential, TakeLast,
                         TransformerEncoderLayer, make_rng, mse_loss, softmax)

FD_STEP = 1e-5
TOLERANCE = 1e-4


def max_rel_grad_error(layer, x, training=True, step=FD_STEP, n_probe=30):
    """Central finite differences vs the layer's backward pass."""
    probe_rng = np.random.default_rng(99)
    out = layer.forward(x, training=training)
    gout = probe_rng.normal(size=out.shape)
    layer.zero_grads()
    dx = layer.backward(gout)

    def objective():
        return float(np.sum(layer.forward(x, training=training) * gout))

    def check(array, grads):
        flat, gflat = array.reshape(-1), grads.reshape(-1)
        idx = probe_rng.choice(flat.size, size=min(n_probe, flat.size), replace=False)
        worst = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            hi = objective()
            flat[i] = orig - step
            lo = objective()
            flat[i] = orig
            fd = (hi - lo) / (2 * step)
            denom = max(abs(gflat[i]), abs(fd), 1e-6)
            worst = max(worst, abs(gflat[i] - fd) / denom)
        return worst

    worst = check(x, dx)
    for _, param, grad in layer.named_params():
        worst = max(worst, check(param, grad))
    return worst


DATA = np.random.default_rng(5)

LAYER_CASES = [
    ("dense", lambda rng: Dense(5, 7, rng), (4, 5)),
    ("conv_d1", lambda rng: Conv1d(3, 5, rng, dilation=1), (2, 9, 3)),
    ("conv_d2", lambda rng: Conv1d(3, 5, rng, dilation=2), (2, 9, 3)),
    ("conv_d4", lambda rng: Conv1d(3, 5, rng, dilation=4), (2, 9, 3)),
    ("conv_d4_short", lambda rng: Conv1d(3, 5, rng, dilation=4), (2, 3, 3)),  # taps in padding
    ("lstm_3steps", lambda rng: Lstm(4, 6, rng), (3, 3, 4)),
    ("attention", lambda rng: MultiHeadAttention(8, rng, heads=4), (2, 5, 8)),
    ("batchnorm", lambda rng: BatchNorm(6), (5, 4, 6)),
    ("layernorm", lambda rng: LayerNorm(6), (5, 4, 6)),
    ("feedforward", lambda rng: FeedForward(6, rng), (3, 4, 6)),
]


@pytest.mark.parametrize("name,make,shape", LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
def test_gradients_match_finite_differences(name, make, shape):
    layer = make(make_rng(0))
    x = DATA.normal(size=shape)
    assert max_rel_grad_error(layer, x) < TOLERANCE


def test_transformer_block_gradients():
    # deeper composite: optimal FD step is coarser (roundoff dominates at 1e-5)
    layer = TransformerEncoderLayer(8, make_rng(0), dropout=0.0)
    x = DATA.normal(size=(2, 5, 8))
    assert max_rel_grad_error(layer, x, step=1e-4) < TOLERANCE


def test_zero_output_grad_gives_zero_param_grads():
    layer = Dense(6, 4, make_rng(1))
    x = DATA.normal(size=(3, 6))
    layer.forward(x, training=True)
    layer.zero_grads()
    layer.backward(np.zeros((3, 4)))
    for _, _, grad in layer.named_params():
        assert np.all(grad == 0.0)


def test_identity_dense_passthrough():
    layer = Dense(5, 5, make_rng(0))
    layer.params["w"][...] = np.eye(5)
    layer.params["b"][...] = 0.0
    x = DATA.normal(size=(4, 5))
    assert np.array_equal(layer.forward(x), x)


def test_dropout_inference_passthrough():
    layer = Dropout(0.2, rng=make_rng(3))
    x = DATA.normal(size=(8, 10))
    assert layer.forward(x, training=False) is x


def test_dropout_train_scaling_preserves_mean():
    layer = Dropout(0.25, rng=make_rng(4))
    x = np.ones((200, 200))
    out = layer.forward(x, training=True)
    kept = out[out != 0]
    np.testing.assert_allclose(kept, 1 / 0.75)
    assert abs(out.mean() - 1.0) < 0.02


def test_attention_rows_sum_to_one():
    scores = DATA.normal(scale=10.0, size=(3, 4, 6, 6))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    reference = e / e.sum(axis=-1, keepdims=True)   # the out-of-place formula
    weights = softmax(scores)
    assert weights is scores                        # computed in the input's buffer
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
    assert weights.tobytes() == reference.tobytes()


def test_attention_dim_must_divide():
    with pytest.raises(DataError, match="divisible"):
        MultiHeadAttention(10, make_rng(0), heads=4)


@pytest.mark.parametrize("dilation", [1, 2, 4])
def test_conv_same_padding_preserves_steps(dilation):
    layer = Conv1d(3, 4, make_rng(6), dilation=dilation)
    for steps in (5, 9, 32):
        out = layer.forward(DATA.normal(size=(2, steps, 3)))
        assert out.shape == (2, steps, 4)


@pytest.mark.parametrize("dilation, steps", [(1, 1), (1, 5), (2, 1), (2, 3), (2, 9),
                                            (4, 1), (4, 3), (4, 5), (4, 9)])
def test_conv_windows_match_pad_and_stack(dilation, steps):
    # t <= dilation puts whole taps in the zero padding
    layer = Conv1d(3, 4, make_rng(6), dilation=dilation)
    x = DATA.normal(size=(2, steps, 3))
    pad = dilation * (layer.kernel - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    windows = np.stack([xp[:, k * dilation:k * dilation + steps, :]
                        for k in range(layer.kernel)], axis=2)
    expected = windows.reshape(2, steps, -1) @ layer.params["w"].reshape(-1, 4) + layer.params["b"]
    assert layer.forward(x).tobytes() == expected.tobytes()


def test_first_layer_skips_only_the_input_gradient():
    for make, shape in [(lambda rng: Dense(5, 7, rng), (4, 5)),
                        (lambda rng: Conv1d(3, 5, rng, dilation=4), (2, 3, 3)),
                        (lambda rng: Lstm(4, 6, rng), (3, 3, 4)),
                        (lambda rng: Sequential([Conv1d(3, 5, rng), Relu()]), (2, 9, 3))]:
        full, skip = make(make_rng(0)), make(make_rng(0))
        x = DATA.normal(size=shape)
        grad = np.ones_like(full.forward(x, training=True))
        skip.forward(x, training=True)
        assert full.backward(grad) is not None
        assert skip.backward(grad, input_grad=False) is None
        for (name, _, a), (_, _, b) in zip(full.named_params(), skip.named_params()):
            assert a.tobytes() == b.tobytes(), name


def test_shape_mismatch_reports_both_shapes():
    layer = Dense(5, 7, make_rng(7))
    with pytest.raises(DataError, match=r"\(\.\.\., 5\).*\(4, 6\)"):
        layer.forward(np.zeros((4, 6)))


def test_backward_before_forward_rejected():
    layer = Lstm(3, 4, make_rng(9))
    with pytest.raises(DataError, match="before forward"):
        layer.backward(np.zeros((2, 5, 4)))


# RepeatVector is left out: it keeps no state, its backward sums over the repeat axis
STATEFUL_LAYERS = [
    ("Dense", lambda rng: Dense(5, 7, rng), (4, 5)),
    ("Relu", lambda rng: Relu(), (4, 5)),
    ("Dropout", lambda rng: Dropout(0.2, rng), (4, 5)),
    ("Conv1d", lambda rng: Conv1d(3, 5, rng, dilation=2), (2, 9, 3)),
    ("Lstm", lambda rng: Lstm(4, 6, rng), (3, 3, 4)),
    ("MultiHeadAttention", lambda rng: MultiHeadAttention(8, rng, heads=4), (2, 5, 8)),
    ("BatchNorm", lambda rng: BatchNorm(6), (5, 4, 6)),
    ("LayerNorm", lambda rng: LayerNorm(6), (5, 4, 6)),
    ("FeedForward", lambda rng: FeedForward(6, rng), (3, 4, 6)),
    ("TakeLast", lambda rng: TakeLast(), (2, 5, 3)),
    ("TransformerEncoderLayer", lambda rng: TransformerEncoderLayer(8, rng), (2, 5, 8)),
    ("Sequential", lambda rng: Sequential([Lstm(4, 6, rng), TakeLast(), RepeatVector(3)]),
     (3, 3, 4)),
]


@pytest.mark.parametrize("name,make,shape", STATEFUL_LAYERS, ids=[c[0] for c in STATEFUL_LAYERS])
def test_backward_after_inference_forward_rejected(name, make, shape):
    layer = make(make_rng(0))
    x = DATA.normal(size=shape)
    grad = np.ones_like(layer.forward(x, training=True))
    layer.backward(grad)
    layer.forward(x, training=False)   # keeps nothing, so the training cache is gone
    with pytest.raises(DataError, match="before forward"):
        layer.backward(grad)


def test_batchnorm_running_stats_only_update_in_training():
    layer = BatchNorm(4)
    x = DATA.normal(2.0, 3.0, size=(64, 4))
    before = layer.buffers["running_mean"].copy()
    layer.forward(x, training=False)
    assert np.array_equal(layer.buffers["running_mean"], before)
    layer.forward(x, training=True)
    assert not np.array_equal(layer.buffers["running_mean"], before)


def test_batchnorm_train_normalizes_batch():
    layer = BatchNorm(4)
    x = DATA.normal(5.0, 2.0, size=(256, 4))
    out = layer.forward(x, training=True)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)


def test_repeat_and_takelast_are_adjoint_shapes():
    rep = RepeatVector(6)
    last = TakeLast()
    x = DATA.normal(size=(3, 5))
    seq = rep.forward(x)
    assert seq.shape == (3, 6, 5)
    assert np.array_equal(last.forward(seq), x)


def test_mse_loss_values():
    zero, _ = mse_loss(np.ones((2, 2)), np.ones((2, 2)))
    assert zero == 0.0
    one, _ = mse_loss(np.ones(4), np.zeros(4))
    assert one == 1.0
    val, grad = mse_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    assert val == 2.5
    np.testing.assert_allclose(grad, [1.0, 2.0])


def test_mse_loss_shape_mismatch():
    with pytest.raises(DataError, match="mismatch"):
        mse_loss(np.zeros(3), np.zeros(4))


def test_no_nan_inf_through_deep_stack():
    rng = make_rng(8)
    model = Sequential([
        Dense(6, 8, rng), Relu(), LayerNorm(8),
        TransformerEncoderLayer(8, rng, dropout=0.2),
        Lstm(8, 5, rng), BatchNorm(5), TakeLast(), RepeatVector(4),
        Lstm(5, 6, rng),
    ])
    x = DATA.normal(size=(4, 4, 6)) * 100.0
    out = model.forward(x, training=True)
    assert np.all(np.isfinite(out))


def whole_batch_attention(layer, x, grad):
    """Forward output, input gradient and parameter gradients of `layer`,
    with the core (scores to context and back) as whole-batch products."""
    p, scale = layer.params, layer.head_dim ** 0.5
    q, k, v = (layer._split(x @ p["w" + n] + p["b" + n]) for n in "qkv")
    scores = q @ k.transpose(0, 1, 3, 2)
    scores /= scale
    attn = softmax(scores)
    ctx = layer._merge(attn @ v)
    out = ctx @ p["wo"] + p["bo"]
    grads = {"wo": ctx.reshape(-1, layer.dim).T @ grad.reshape(-1, layer.dim),
             "bo": grad.reshape(-1, layer.dim).sum(axis=0)}
    dctx = layer._split(grad @ p["wo"].T)
    dattn = dctx @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores /= scale
    dx = np.zeros_like(x)
    for n, d in (("q", dscores @ k), ("k", dscores.transpose(0, 1, 3, 2) @ q), ("v", dv)):
        d2 = layer._merge(d).reshape(-1, layer.dim)
        grads["w" + n] = x.reshape(-1, layer.dim).T @ d2
        grads["b" + n] = d2.sum(axis=0)
        dx += (d2 @ p["w" + n].T).reshape(x.shape)
    return [out, dx] + [grads[name] for name in layer.params]


# 128 steps: four rows per core block, so 5 rows are two blocks and 32 are eight
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 5, 32])
def test_attention_bytes_do_not_depend_on_cpu_count(monkeypatch, dtype, batch):
    rng = np.random.default_rng(batch)
    x = rng.normal(size=(batch, 128, 32)).astype(dtype)
    grad = rng.normal(size=x.shape).astype(dtype)
    layer = MultiHeadAttention(32, make_rng(0), heads=4).astype(dtype)
    want = [a.tobytes() for a in whole_batch_attention(layer, x, grad)]
    for cpus in (1, 2, 3):
        monkeypatch.setattr(blocks, "cpu_count", lambda: cpus)
        out = layer.forward(x, training=True)
        layer.zero_grads()
        dx = layer.backward(grad)
        got = [out, dx] + [layer.grads[name] for name in layer.params]
        assert [a.tobytes() for a in got] == want, cpus
        assert layer.forward(x).tobytes() == want[0], cpus   # inference


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_bits_match_where_on_special_values(dtype):
    info = np.finfo(dtype)
    bits = np.dtype(f"u{info.dtype.itemsize}")
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0,
                        info.smallest_subnormal, -info.smallest_subnormal,
                        info.tiny, -info.tiny, info.max, -info.max], dtype=dtype)
    noise = np.random.default_rng(0).integers(0, np.iinfo(bits).max, size=4000,
                                              dtype=bits, endpoint=True).view(dtype)
    x = np.concatenate([special, noise])   # every sign, exponent and NaN payload kind
    grad = np.concatenate([special[::-1], noise[::-1]]).reshape(2, -1)
    x = x.reshape(2, -1)
    layer = Relu()
    out = layer.forward(x, training=True)
    dx = layer.backward(grad)
    assert out.dtype == dx.dtype == dtype
    assert out.tobytes() == np.where(x > 0, x, 0.0).tobytes()
    assert dx.tobytes() == np.where(x > 0, grad, 0.0).tobytes()
