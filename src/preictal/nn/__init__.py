"""Minimal neural-network kernel with reverse-mode gradients.

The dtype follows the input: every layer computes in its input's dtype.
Models run in float32 (`Layer.astype`); the gradient checks run the same
layers in float64.

Deterministic by construction: parameter init and dropout masks come from
seeded PCG64 generators (numpy default_rng), so a fixed seed reproduces
parameters bit-for-bit at a fixed BLAS thread count (for example
OPENBLAS_NUM_THREADS=1); matrix products may round differently when the
thread count changes.

Layers keep backward state only after a training forward: inference
(`forward(training=False)`) stores nothing, so scoring costs no more memory
than the activations in flight, and a backward after it raises DataError.
Since an inference forward keeps no state, threads may share one model for
scoring.

`MultiHeadAttention` fans its core (scores, softmax and their gradients) out
over the CPUs in fixed blocks of batch rows (`preictal.blocks.fan_out`),
with the bytes of one whole-batch call at any CPU count.  Only one fan-out
runs at a time, so inside scoring's own fan-out the core runs in a plain
loop on the scoring thread.

`Layer.astype` lays a model's parameters out as views into one contiguous
array (`param_buffer`) and its gradients as views into another
(`grad_buffer`), so training updates them with one `adam_step` triple.
Training also calls `backward(grad, input_grad=False)`, so the first layer
returns no input gradient, which nothing reads: `Dense` and `Conv1d` skip its
products, and `Lstm` only skips storing it (its recurrent gradient comes from
the same product, and a product without the input rows rounds differently).
Both keep every update bit-identical to per-array Adam after a full backward
pass.
"""
import numpy as np

from .layers import (BatchNorm, Conv1d, Dense, Dropout, FeedForward, Layer,
                     LayerNorm, Lstm, MultiHeadAttention, Relu,
                     RepeatVector, Sequential, TakeLast,
                     TransformerEncoderLayer, glorot, softmax)
from .losses import mse_loss
from .optim import AdamState, adam_step
from .params_io import dump_arrays, load_arrays


def make_rng(seed: int) -> np.random.Generator:
    """Seedable deterministic generator (PCG64) used for init and dropout."""
    return np.random.default_rng(seed)


__all__ = [
    "Layer", "Sequential", "Dense", "Relu", "Dropout", "Conv1d", "Lstm",
    "MultiHeadAttention", "BatchNorm", "LayerNorm", "FeedForward",
    "TakeLast", "RepeatVector", "TransformerEncoderLayer",
    "softmax", "glorot", "mse_loss", "AdamState", "adam_step",
    "dump_arrays", "load_arrays", "make_rng",
]
