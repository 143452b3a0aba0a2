"""The three reconstruction architectures and their sequence-input layouts.

Input layouts per representation (steps x features):
  dwt          -- the length-N coefficient vector reshaped to 32 x N/32
  scalogram    -- transposed to time-major: ceil(N/4) x 128
  spectrogram  -- frames x 257, as produced

Decoders mirror encoders as reversed layer order with transposed shapes;
weights are independent, never tied.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..features import feature_shape
from ..nn import (BatchNorm, Conv1d, Dense, Dropout, Lstm,
                  MultiHeadAttention, Relu, RepeatVector, Sequential,
                  TakeLast, TransformerEncoderLayer, make_rng)
from ..nn.layers import _child_rng

ARCHITECTURES = ("lstm_ae", "mh_c_lstm_ae", "t_ee")

DWT_STEPS = 32

DEFAULT_HYPER = {
    "lstm_hidden": 64,
    "latent": 32,
    "conv_channels": 32,
    "heads": 4,
    "encoder_layers": 2,
    "embed_dim": 64,
    "ff_inner": 128,
    "dropout": 0.2,
}


@dataclass(frozen=True)
class ArchitectureSpec:
    kind: str
    representation: str
    steps: int
    features: int

    @property
    def tag(self) -> str:
        return f"{self.kind}:{self.representation}:{self.steps}x{self.features}"


def sequence_layout(representation: str, window_samples: int) -> tuple[int, int]:
    """(steps, features) a model sees for one segment of this representation."""
    shape = feature_shape(representation, window_samples)
    if representation == "dwt":
        n = shape[0]
        if n % DWT_STEPS != 0:
            raise ConfigError(f"dwt vector length {n} not divisible by {DWT_STEPS} steps")
        return DWT_STEPS, n // DWT_STEPS
    if representation == "scalogram":
        scales, t = shape
        return t, scales
    return shape  # spectrogram: (frames, bins)


def to_model_input(features: np.ndarray, representation: str) -> np.ndarray:
    """Map stacked (normalized) feature tensors to (batch, steps, model_features)."""
    if representation == "dwt":
        b, n = features.shape
        return features.reshape(b, DWT_STEPS, n // DWT_STEPS)
    if representation == "scalogram":
        return features.transpose(0, 2, 1)
    return features


def build(kind: str, representation: str, window_samples: int) -> ArchitectureSpec:
    """Validate and freeze an architecture description (no parameters yet)."""
    steps, features = sequence_layout(representation, window_samples)
    if kind not in ARCHITECTURES:
        raise ConfigError(f"unknown architecture {kind!r} (choose from {ARCHITECTURES})")
    return ArchitectureSpec(kind=kind, representation=representation,
                            steps=steps, features=features)


def instantiate(spec: ArchitectureSpec, seed: int) -> Sequential:
    """Create the layer stack with seeded initialization, in float32: the
    weights are drawn in float64 and rounded once."""
    return _layers(spec, make_rng(seed)).astype(np.float32)


def _layers(spec: ArchitectureSpec, rng: np.random.Generator) -> Sequential:
    h = DEFAULT_HYPER
    steps, feats = spec.steps, spec.features
    drop = h["dropout"]

    if spec.kind == "lstm_ae":
        hidden, latent = h["lstm_hidden"], h["latent"]
        return Sequential([
            # encoder
            Lstm(feats, hidden, rng),
            BatchNorm(hidden),
            Dropout(drop, rng=_child_rng(rng)),
            Lstm(hidden, latent, rng),
            TakeLast(),
            # latent -> mirrored decoder; LSTM outputs are tanh-bounded, so a
            # per-step linear read-out restores the unbounded feature range
            RepeatVector(steps),
            Lstm(latent, hidden, rng),
            Dropout(drop, rng=_child_rng(rng)),
            BatchNorm(hidden),
            Lstm(hidden, hidden, rng),
            Dense(hidden, feats, rng),
        ])

    if spec.kind == "mh_c_lstm_ae":
        ch, hidden, heads = h["conv_channels"], h["lstm_hidden"], h["heads"]
        return Sequential([
            # encoder: dilated conv blocks (conv-BN-relu), temporal model,
            # then attention; the attention output sequence (steps x hidden)
            # is the latent space, so compression is channel-wise
            Conv1d(feats, ch, rng, dilation=1), BatchNorm(ch), Relu(),
            Conv1d(ch, ch, rng, dilation=2), BatchNorm(ch), Relu(),
            Conv1d(ch, ch, rng, dilation=4), BatchNorm(ch), Relu(),
            Lstm(ch, hidden, rng),
            Dropout(drop, rng=_child_rng(rng)),
            MultiHeadAttention(hidden, rng, heads=heads),
            # latent -> mirrored decoder
            MultiHeadAttention(hidden, rng, heads=heads),
            Dropout(drop, rng=_child_rng(rng)),
            Lstm(hidden, ch, rng),
            Conv1d(ch, ch, rng, dilation=4), BatchNorm(ch), Relu(),
            Conv1d(ch, ch, rng, dilation=2), BatchNorm(ch), Relu(),
            Conv1d(ch, feats, rng, dilation=1),
        ])

    # t_ee: embedding, two encoder blocks, linear head back to the input shape
    dim = h["embed_dim"]
    blocks = [TransformerEncoderLayer(dim, rng, heads=h["heads"],
                                      inner=h["ff_inner"], dropout=drop)
              for _ in range(h["encoder_layers"])]
    return Sequential([Dense(feats, dim, rng), *blocks, Dense(dim, feats, rng)])


def parameter_count(model: Sequential) -> int:
    return sum(p.size for _, p, _ in model.named_params())
