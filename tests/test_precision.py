"""The models run in float32: every layer keeps a float32 input in float32,
training keeps every array float32, and float32 scores stay close to the
float64 ones of the same weights."""
import json

import numpy as np
import pytest

from preictal.features import REPRESENTATIONS, apply_normalization, extract_features, fit_normalization
from preictal.ingest.synthetic import SyntheticSpec, generate_synthetic
from preictal.models import (ARCHITECTURES, TrainPlan, build, dump_trained, instantiate,
                             load_trained, score, to_model_input, train)
from preictal.models.training import TrainedModel
from preictal.nn import (AdamState, BatchNorm, Conv1d, Dense, Dropout, FeedForward, LayerNorm,
                         Lstm, MultiHeadAttention, Relu, RepeatVector, Sequential, TakeLast,
                         TransformerEncoderLayer, adam_step, load_arrays, make_rng, mse_loss)
from preictal.preprocess import SegmentationConfig, lowpass, segment

# the worst float32/float64 score gap over the nine pairs here is about 8e-7
SCORE_RTOL = 1e-5


def _layers():
    rng = make_rng(0)
    seq = (2, 5, 8)
    cases = [
        (Dense(8, 6, rng), seq),
        (Relu(), seq),
        (Dropout(0.5, make_rng(1)), seq),
        (Conv1d(8, 4, rng, dilation=2), seq),
        (Lstm(8, 6, rng), seq),
        (MultiHeadAttention(8, rng, heads=4), seq),
        (BatchNorm(8), seq),
        (LayerNorm(8), seq),
        (FeedForward(8, rng), seq),
        (TakeLast(), seq),
        (RepeatVector(3), (2, 8)),
        (TransformerEncoderLayer(8, rng, heads=2), seq),
        (Sequential([Lstm(8, 6, rng), TakeLast(), RepeatVector(5), Dense(6, 8, rng)]), seq),
    ]
    return [pytest.param(layer, shape, id=type(layer).__name__) for layer, shape in cases]


def _assert_float32(model):
    for name, arr in model.named_arrays():
        assert arr.dtype == np.float32, name
    for name, _, grad in model.named_params():
        assert grad.dtype == np.float32, name


@pytest.mark.parametrize("layer, shape", _layers())
def test_layer_keeps_float32(layer, shape):
    layer.astype(np.float32)
    x = np.random.default_rng(2).normal(size=shape).astype(np.float32)
    assert layer.forward(x, training=False).dtype == np.float32
    out = layer.forward(x, training=True)
    assert out.dtype == np.float32
    assert layer.backward(np.ones_like(out)).dtype == np.float32
    _assert_float32(layer)


@pytest.fixture(scope="module")
def segments():
    rec = lowpass(generate_synthetic(SyntheticSpec(duration_s=40.0, rng_seed=5)))
    return segment(rec, SegmentationConfig(1, 0, 512))


@pytest.fixture(scope="module")
def normalized(segments):
    out = {}
    for rep in REPRESENTATIONS:
        feats = extract_features(segments, rep)
        stats = fit_normalization(feats)
        out[rep] = apply_normalization(feats, stats), stats
    return out


@pytest.mark.parametrize("kind", ARCHITECTURES)
def test_training_keeps_every_array_float32(kind, normalized):
    norm, stats = normalized["dwt"]
    spec = build(kind, "dwt", 512)
    model = instantiate(spec, seed=0)
    _assert_float32(model)
    batch = to_model_input(norm[:8], "dwt").astype(np.float32)
    _, grad = mse_loss(model.forward(batch, training=True), batch)
    assert grad.dtype == np.float32
    model.zero_grads()
    model.backward(grad)
    state = adam_step(model.named_params(), AdamState())
    _assert_float32(model)
    for name in state.m:
        assert state.m[name].dtype == state.v[name].dtype == np.float32, name

    trained = train(spec, norm, stats, TrainPlan(epochs=1, batch_size=8, seed=0))
    _assert_float32(trained.model)
    assert score(trained, norm).dtype == np.float64


@pytest.mark.parametrize("kind", ARCHITECTURES)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_float32_scores_match_float64(kind, representation, normalized):
    norm, stats = normalized[representation]
    spec = build(kind, representation, 512)
    model = instantiate(spec, seed=0)
    errors32 = score(TrainedModel(spec, model, stats, TrainPlan()), norm)

    model.astype(np.float64)   # the same weights, upcast exactly
    inputs = to_model_input(norm, representation)
    errors64 = np.mean((model.forward(inputs) - inputs) ** 2, axis=(1, 2))
    assert errors64.dtype == np.float64
    np.testing.assert_allclose(errors32, errors64, rtol=SCORE_RTOL, atol=0)


@pytest.mark.parametrize("kind", ARCHITECTURES)
def test_reloaded_model_scores_bit_identically(kind, normalized):
    norm, stats = normalized["spectrogram"]
    trained = train(build(kind, "spectrogram", 512), norm, stats,
                    TrainPlan(epochs=2, batch_size=8, seed=1))
    blob, manifest = dump_trained(trained)
    # the file holds <f8 values that are float32 values exactly
    _, stored = load_arrays(blob)
    for name, arr in stored.items():
        assert np.array_equal(arr.astype(np.float32).astype(np.float64), arr), name
    back = load_trained(blob, json.loads(manifest), stats)
    for (name, a), (_, b) in zip(trained.model.named_arrays(), back.model.named_arrays()):
        assert b.dtype == np.float32 and a.tobytes() == b.tobytes(), name
    assert score(back, norm).tobytes() == score(trained, norm).tobytes()
