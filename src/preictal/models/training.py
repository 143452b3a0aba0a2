"""Patient-specific training of the reconstruction models, plus scoring.

Models are trained exclusively on normalized baseline (inter-ictal) feature
tensors; the anomaly score of any segment is the MSE between its features
and the model's reconstruction.  Both run in float32; scores come back as
float64 holding the float32 values exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..blocks import fan_out, row_blocks
from ..errors import ConfigError, DataError, NumericError, check_json, field_kinds
from ..features import REPRESENTATIONS, NormalizationStats
from ..nn import AdamState, Sequential, adam_step, dump_arrays, load_arrays, make_rng, mse_loss
from .architectures import (ARCHITECTURES, DEFAULT_HYPER, ArchitectureSpec, instantiate,
                            to_model_input)


@dataclass(frozen=True)
class TrainPlan:
    epochs: int = 50
    batch_size: int = 32
    patience: int = 5          # early stop after this many epochs without improvement
    min_delta: float = 1e-5
    seed: int = 0
    min_baseline_segments: int = 60
    holdout_fraction: float = 0.1   # tail of the baseline used only for early stopping

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ConfigError("epochs, batch_size and patience must all be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.holdout_fraction < 1:
            raise ConfigError(f"holdout_fraction must be in [0, 1), got {self.holdout_fraction}")
        if self.min_baseline_segments < 1:
            raise ConfigError("min_baseline_segments must be >= 1")


@dataclass
class TrainedModel:
    spec: ArchitectureSpec
    model: Sequential
    stats: NormalizationStats
    plan: TrainPlan
    loss_history: list[float] = field(default_factory=list)

    @property
    def initial_loss(self) -> float:
        return self.loss_history[0]

    @property
    def final_loss(self) -> float:
        return min(self.loss_history)


def _model_input(spec: ArchitectureSpec, features: np.ndarray) -> np.ndarray:
    inputs = to_model_input(np.asarray(features, dtype=np.float32), spec.representation)
    if inputs.shape[1:] != (spec.steps, spec.features):
        raise DataError(f"feature layout {inputs.shape[1:]} does not match the model's "
                        f"({spec.steps}, {spec.features})")
    return inputs


def _squared_errors(model: Sequential, batch: np.ndarray) -> np.ndarray:
    """Inference-mode (reconstruction - input) ** 2 of one batch."""
    return (model.forward(batch, training=False) - batch) ** 2


def _epoch_loss(model: Sequential, inputs: np.ndarray, batch_size: int) -> float:
    """Inference-mode mean reconstruction MSE over a stacked input tensor."""
    return sum(float(np.sum(_squared_errors(model, inputs[lo:hi])))
               for lo, hi in row_blocks(len(inputs), batch_size)) / inputs.size


def fit_step(model: Sequential, batch: np.ndarray, optimizer: AdamState) -> float:
    """One optimizer step on a batch; returns the batch loss, and updates no
    parameter when that loss is not finite.

    The backward pass skips the first layer's input gradient, which nothing
    reads, and Adam updates the model's parameter buffer as one array: the
    same elementwise operations as per parameter, so the same bits.
    """
    out = model.forward(batch, training=True)
    loss, grad = mse_loss(out, batch)
    if np.isfinite(loss):
        model.zero_grads()
        model.backward(grad, input_grad=False)
        adam_step([("params", model.param_buffer, model.grad_buffer)], optimizer)
    return loss


def train(spec: ArchitectureSpec, train_features: np.ndarray, stats: NormalizationStats,
          plan: TrainPlan = TrainPlan()) -> TrainedModel:
    """Train on normalized baseline features; deterministic for a fixed seed.

    train_features must already be normalized with stats fit on themselves.
    The tail holdout_fraction of the baseline is kept out of the optimizer
    and drives early stopping: the checkpoint with the lowest holdout loss
    is returned, so the model is frozen before it starts memorizing noise
    and its training-error statistics transfer to unseen data.  The loss
    history records the monitored (holdout) inference-mode MSE per epoch;
    entry 0 is the untrained model.
    """
    if len(train_features) == 0:
        raise DataError("empty training set")
    inputs = _model_input(spec, train_features)
    n_fit = len(inputs) - int(plan.holdout_fraction * len(inputs))
    fit_set = inputs[:n_fit]
    monitor_set = inputs[n_fit:] if n_fit < len(inputs) else inputs

    model = instantiate(spec, plan.seed)
    shuffle_rng = make_rng(plan.seed + 1)
    optimizer = AdamState()

    history = [_epoch_loss(model, monitor_set, plan.batch_size)]
    best_loss = history[0]
    best_params = {name: arr.copy() for name, arr in model.named_arrays()}
    stall = 0

    for epoch in range(plan.epochs):
        order = shuffle_rng.permutation(len(fit_set))
        for lo in range(0, len(fit_set), plan.batch_size):
            loss = fit_step(model, fit_set[order[lo:lo + plan.batch_size]], optimizer)
            if not np.isfinite(loss):
                raise NumericError(f"training diverged (loss {loss}) at epoch {epoch}")

        epoch_loss = _epoch_loss(model, monitor_set, plan.batch_size)
        if not np.isfinite(epoch_loss):
            raise NumericError(f"training diverged (loss {epoch_loss}) at epoch {epoch}")
        history.append(epoch_loss)
        if epoch_loss < best_loss - plan.min_delta:
            stall = 0
        else:
            stall += 1
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_params = {name: arr.copy() for name, arr in model.named_arrays()}
        if stall >= plan.patience:
            break

    for name, arr in model.named_arrays():
        arr[...] = best_params[name]
    return TrainedModel(spec=spec, model=model, stats=stats, plan=plan, loss_history=history)


SCORE_BATCH = 32   # rows per inference batch: its temporaries grow with it, its speed does not


def score(trained: TrainedModel, features_normalized: np.ndarray,
          batch_size: int = SCORE_BATCH) -> np.ndarray:
    """Per-segment reconstruction MSE, in segment order (inference mode).

    No batch holds a single row unless the input does: a one-row product takes
    another BLAS path and rounds differently, so a one-row tail joins the batch
    before it and a segment's score does not depend on the record's length.
    The batches fan out over the CPUs (`blocks.fan_out`); an inference forward
    keeps no state, so the threads share the model.
    """
    inputs = _model_input(trained.spec, features_normalized)

    def run(lo, hi):
        return np.sum(_squared_errors(trained.model, inputs[lo:hi]), axis=(1, 2))

    sums = fan_out(run, row_blocks(len(inputs), batch_size, min_rows=2), batch_size)
    count = trained.spec.steps * trained.spec.features
    return (np.concatenate(sums or [np.empty(0, np.float32)]) / count).astype(np.float64)


MODEL_FORMAT_VERSION = 1
# the TrainPlan fields model.json records
MODEL_PLAN_FIELDS = ("seed", "epochs", "batch_size", "patience", "min_delta", "holdout_fraction")
# every model.json key load_trained reads, with its kind (errors.check_json)
MODEL_JSON = {"format_version": "int", "architecture": ARCHITECTURES,
              "representation": REPRESENTATIONS, "steps": "int > 0", "features": "int > 0",
              "hyper": "dict", "normalization_digest": "str", "loss_history": "list[float]",
              **field_kinds(TrainPlan, MODEL_PLAN_FIELDS)}


def dump_trained(trained: TrainedModel) -> tuple[bytes, str]:
    """(parameter file bytes, sidecar manifest JSON) for one trained model."""
    arrays = dict(trained.model.named_arrays())
    blob = dump_arrays(arrays, trained.spec.tag)
    stats_digest = _stats_digest(trained.stats)
    manifest = json.dumps({
        "format_version": MODEL_FORMAT_VERSION,
        "architecture": trained.spec.kind,
        "representation": trained.spec.representation,
        "steps": trained.spec.steps,
        "features": trained.spec.features,
        "hyper": DEFAULT_HYPER,
        **{name: getattr(trained.plan, name) for name in MODEL_PLAN_FIELDS},
        "normalization_digest": stats_digest,
        "loss_history": trained.loss_history,
    }, indent=2, sort_keys=True)
    return blob, manifest


def load_trained(blob: bytes, meta: dict, stats: NormalizationStats) -> TrainedModel:
    """The model from dump_trained's parameter bytes and its parsed sidecar."""
    try:
        meta = check_json(meta, MODEL_JSON)
        plan = TrainPlan(**{name: meta[name] for name in MODEL_PLAN_FIELDS})
    except (ConfigError, DataError) as exc:   # the manifest is data, not configuration
        raise DataError(f"artifact 'model.json': {exc}") from exc
    for key, want in (("format_version", MODEL_FORMAT_VERSION), ("hyper", DEFAULT_HYPER),
                      ("normalization_digest", _stats_digest(stats))):   # of the stats given
        if meta[key] != want:
            raise DataError(f"artifact 'model.json' holds {key} {meta[key]!r}, not {want!r}")
    spec = ArchitectureSpec(kind=meta["architecture"], representation=meta["representation"],
                            steps=meta["steps"], features=meta["features"])
    model = instantiate(spec, plan.seed)
    tag, arrays = load_arrays(blob)
    if tag != spec.tag:
        raise DataError(f"parameter file tag {tag!r} does not match manifest ({spec.tag!r})")
    for name, arr in model.named_arrays():
        if name not in arrays:
            raise DataError(f"parameter file missing array {name!r}")
        if arrays[name].shape != arr.shape:
            raise DataError(f"array {name!r} has shape {arrays[name].shape}, expected {arr.shape}")
        arr[...] = arrays[name]
    return TrainedModel(spec=spec, model=model, stats=stats, plan=plan,
                        loss_history=list(meta["loss_history"]))


def _stats_digest(stats: NormalizationStats) -> str:
    import hashlib
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(stats.mean, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(stats.std, dtype="<f8").tobytes())
    return h.hexdigest()
