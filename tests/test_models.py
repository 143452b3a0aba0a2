import json

import numpy as np
import pytest

from preictal.errors import ConfigError, DataError
from preictal.features import (apply_normalization, extract_features, feature_shape,
                               fit_normalization)
from preictal.ingest import EcgRecord, SeizureAnnotation
from preictal.models import (ARCHITECTURES, BaselineUnavailableError,
                             TrainPlan, build, dump_trained, instantiate,
                             load_trained, parameter_count, score,
                             select_baseline, sequence_layout, to_model_input,
                             train)
from preictal.models.training import SCORE_BATCH, TrainedModel, fit_step, row_blocks
from preictal.nn import AdamState, adam_step, mse_loss
from preictal.preprocess import Phase, SegmentationConfig, SegmentSet, label_phases, segment

REPRESENTATIONS = ("dwt", "scalogram", "spectrogram")


class TestLayouts:
    def test_sequence_layouts_1s(self):
        assert sequence_layout("dwt", 512) == (32, 16)
        assert sequence_layout("scalogram", 512) == (128, 128)
        assert sequence_layout("spectrogram", 512) == (5, 257)

    def test_to_model_input_shapes(self):
        assert to_model_input(np.zeros((3, 512)), "dwt").shape == (3, 32, 16)
        assert to_model_input(np.zeros((3, 128, 130)), "scalogram").shape == (3, 130, 128)
        assert to_model_input(np.zeros((3, 5, 257)), "spectrogram").shape == (3, 5, 257)


@pytest.mark.parametrize("kind", ARCHITECTURES)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_reconstruction_shape_contract(kind, representation):
    spec = build(kind, representation, 512)
    model = instantiate(spec, seed=0)
    x = np.random.default_rng(0).normal(size=(2, spec.steps, spec.features))
    out = model.forward(x, training=False)
    assert out.shape == x.shape
    assert np.all(np.isfinite(out))


def test_unknown_architecture_rejected():
    with pytest.raises(ConfigError, match="unknown architecture"):
        build("gru_ae", "dwt", 512)


def test_mh_c_lstm_intermediate_time_axis_preserved():
    spec = build("mh_c_lstm_ae", "spectrogram", 512)
    model = instantiate(spec, seed=0)
    x = np.random.default_rng(1).normal(size=(2, spec.steps, spec.features))
    for layer in model.layers:
        x = layer.forward(x, training=False)
        assert x.shape[1] == spec.steps


def test_t_ee_parameter_count_closed_form():
    spec = build("t_ee", "spectrogram", 512)
    model = instantiate(spec, seed=0)
    f, dim, inner, layers = 257, 64, 128, 2
    attention = 4 * (dim * dim + dim)
    norms = 2 * (dim + dim)
    ff = (dim * inner + inner) + (inner * dim + dim)
    per_layer = attention + norms + ff
    expected = (f * dim + dim) + layers * per_layer + (dim * f + f)
    assert parameter_count(model) == expected == 100161


class TestSelectBaseline:
    def _labeled(self, duration_s, annotations, preictal_len_s):
        rec = EcgRecord(patient_id="t", sampling_rate_hz=512,
                        samples=np.zeros(512 * duration_s), annotations=annotations)
        segs = segment(rec, SegmentationConfig(1, 0, 512))
        return label_phases(segs, annotations, preictal_len_s=preictal_len_s)

    def test_two_hour_record_cap(self):
        # initial inter-ictal run is 1800 s; the 20%-of-record cap (1440 s)
        # is tighter than the 30-minute cap and wins
        segs = self._labeled(7200, [SeizureAnnotation(5400.0, 5460.0)], 3600.0)
        train_idx, test_idx = select_baseline(segs, 7200.0)
        assert len(train_idx) == 1440
        assert test_idx[0] == 1440 and test_idx[-1] == 7199

    def test_no_seizures_takes_20_percent(self):
        segs = self._labeled(3000, [], 1800.0)
        train_idx, _ = select_baseline(segs, 3000.0)
        assert len(train_idx) == 600

    def test_thirty_minute_cap_binds_for_long_records(self):
        segs = self._labeled(12000, [], 1800.0)
        train_idx, _ = select_baseline(segs, 12000.0)
        assert len(train_idx) == 1800

    def test_early_onset_unusable(self):
        segs = self._labeled(3600, [SeizureAnnotation(60.0, 90.0)], 1800.0)
        with pytest.raises(BaselineUnavailableError, match="skipped"):
            select_baseline(segs, 3600.0)

    def test_sets_disjoint_and_cover(self):
        segs = self._labeled(3000, [SeizureAnnotation(2400.0, 2460.0)], 600.0)
        train_idx, test_idx = select_baseline(segs, 3000.0)
        assert set(train_idx).isdisjoint(test_idx)
        assert len(train_idx) + len(test_idx) == len(segs)
        assert np.all(segs.phases[train_idx] == Phase.INTERICTAL)


def small_training_setup(baseline_segments, representation="spectrogram", count=48):
    feats = extract_features(
        baseline_segments.with_phases(baseline_segments.phases), representation)[:count]
    stats = fit_normalization(feats)
    return apply_normalization(feats, stats), stats


class TestTraining:
    def test_loss_decreases(self, baseline_segments):
        norm, stats = small_training_setup(baseline_segments)
        spec = build("t_ee", "spectrogram", 512)
        trained = train(spec, norm, stats, TrainPlan(epochs=6, batch_size=16, seed=0))
        assert trained.final_loss < trained.initial_loss

    def test_empty_training_set_rejected(self):
        spec = build("t_ee", "spectrogram", 512)
        stats = fit_normalization(np.zeros((2, 5, 257)))
        with pytest.raises(DataError, match="empty"):
            train(spec, np.zeros((0, 5, 257)), stats)

    def test_fixed_seed_bit_identical(self, baseline_segments):
        norm, stats = small_training_setup(baseline_segments)
        spec = build("lstm_ae", "spectrogram", 512)
        plan = TrainPlan(epochs=3, batch_size=16, seed=11)
        blob_a, manifest_a = dump_trained(train(spec, norm, stats, plan))
        blob_b, manifest_b = dump_trained(train(spec, norm, stats, plan))
        assert blob_a == blob_b
        assert manifest_a == manifest_b

    def test_different_seeds_differ(self, baseline_segments):
        norm, stats = small_training_setup(baseline_segments)
        spec = build("t_ee", "spectrogram", 512)
        a = train(spec, norm, stats, TrainPlan(epochs=2, batch_size=16, seed=0))
        b = train(spec, norm, stats, TrainPlan(epochs=2, batch_size=16, seed=1))
        assert dump_trained(a)[0] != dump_trained(b)[0]
        assert np.isfinite(a.final_loss) and np.isfinite(b.final_loss)

    def test_dump_load_roundtrip_scores_identically(self, baseline_segments):
        norm, stats = small_training_setup(baseline_segments)
        spec = build("t_ee", "spectrogram", 512)
        trained = train(spec, norm, stats, TrainPlan(epochs=3, batch_size=16, seed=5))
        blob, manifest = dump_trained(trained)
        back = load_trained(blob, json.loads(manifest), stats)
        np.testing.assert_array_equal(score(trained, norm), score(back, norm))


@pytest.fixture(scope="module")
def trained(baseline_segments):
    norm, stats = small_training_setup(baseline_segments)
    spec = build("t_ee", "spectrogram", 512)
    return train(spec, norm, stats, TrainPlan(epochs=10, batch_size=16, seed=2)), norm


class TestScore:

    def test_training_set_consistency(self, trained):
        model, norm = trained
        errors = score(model, norm)
        assert errors.mean() <= 2 * model.final_loss

    def test_deterministic(self, trained):
        model, norm = trained
        dup = np.stack([norm[0], norm[0]])
        errors = score(model, dup)
        assert errors[0] == errors[1]

    def test_zero_segment_scores_positive(self, trained):
        model, norm = trained
        errors = score(model, np.zeros((1,) + norm.shape[1:]))
        assert errors[0] > 0

    def test_layout_mismatch_rejected(self, trained):
        model, _ = trained
        with pytest.raises(DataError, match="does not match"):
            score(model, np.zeros((2, 7, 257)))

    def test_edited_hyper_rejected_on_load(self, trained):
        model, _ = trained
        blob, manifest = dump_trained(model)
        meta = json.loads(manifest)
        meta["hyper"]["latent"] = 16
        with pytest.raises(DataError, match="hyper"):
            load_trained(blob, meta, model.stats)

    @pytest.mark.parametrize("key, value", [("format_version", 2),
                                            ("normalization_digest", "0" * 64)])
    def test_mismatched_manifest_rejected_on_load(self, trained, key, value):
        model, _ = trained
        blob, manifest = dump_trained(model)
        with pytest.raises(DataError, match=f"'model.json' holds {key}"):
            load_trained(blob, {**json.loads(manifest), key: value}, model.stats)

    @pytest.mark.parametrize("key, value", [("seed", -1), ("epochs", 0)])
    def test_out_of_range_plan_rejected_on_load(self, trained, key, value):
        # the manifest is data: its out-of-range values are a DataError, not a ConfigError
        model, _ = trained
        blob, manifest = dump_trained(model)
        with pytest.raises(DataError, match=key):
            load_trained(blob, {**json.loads(manifest), key: value}, model.stats)

    @pytest.mark.parametrize("key, value", [
        ("epochs", "x"), ("holdout_fraction", None), ("seed", 1.5), ("loss_history", 5),
        ("min_delta", "x"), ("batch_size", True), ("patience", 2.0),
        ("min_delta", float("nan")), ("holdout_fraction", float("inf")),
        ("loss_history", [1.0, float("nan")]), ("loss_history", [1.0, False])])
    def test_wrongly_typed_plan_rejected_on_load(self, trained, key, value):
        # a bool is not an int, a float is not an int, and floats must be finite
        model, _ = trained
        blob, manifest = dump_trained(model)
        with pytest.raises(DataError, match=key):
            load_trained(blob, {**json.loads(manifest), key: value}, model.stats)

    @pytest.mark.parametrize("key, value", [
        ("features", 2.5), ("architecture", 3), ("steps", "x"), ("representation", None),
        ("architecture", "gru_ae"), ("representation", "wavelet"), ("steps", 0),
        ("features", -257), ("steps", True)])
    def test_wrongly_typed_layout_rejected_on_load(self, trained, key, value):
        # the manifest is data: a bad layout value is a DataError, not a TypeError
        # or a ConfigError
        model, _ = trained
        blob, manifest = dump_trained(model)
        with pytest.raises(DataError, match=key):
            load_trained(blob, {**json.loads(manifest), key: value}, model.stats)

    def test_int_passes_for_a_float_on_load(self, trained):
        model, _ = trained
        blob, manifest = dump_trained(model)
        meta = {**json.loads(manifest), "min_delta": 0, "loss_history": [1, 0.5]}
        back = load_trained(blob, meta, model.stats)
        assert back.plan.min_delta == 0 and back.loss_history == [1, 0.5]


def _assert_in_buffers(model):
    """Every parameter and gradient is a view into the model's two buffers,
    which they cover exactly."""
    total = 0
    for name, param, grad in model.named_params():
        assert np.shares_memory(param, model.param_buffer), name
        assert np.shares_memory(grad, model.grad_buffer), name
        total += param.size
    assert total == model.param_buffer.size == model.grad_buffer.size


@pytest.mark.parametrize("kind", ARCHITECTURES)
def test_fit_step_matches_per_array_adam_bit_for_bit(kind):
    # the reference runs the full backward and Adam once per parameter array;
    # fit_step skips the first layer's input gradient and updates one buffer
    spec = build(kind, "spectrogram", 512)
    reference, flat = instantiate(spec, seed=4), instantiate(spec, seed=4)
    batch = np.random.default_rng(5).normal(size=(8, spec.steps, spec.features)).astype(np.float32)
    ref_state, flat_state = AdamState(), AdamState()
    for _ in range(3):
        loss, grad = mse_loss(reference.forward(batch, training=True), batch)
        reference.zero_grads()
        reference.backward(grad)
        adam_step(reference.named_params(), ref_state)
        assert fit_step(flat, batch, flat_state) == loss
    for (name, a), (_, b) in zip(reference.named_arrays(), flat.named_arrays()):
        assert a.tobytes() == b.tobytes(), name
    _assert_in_buffers(flat)


@pytest.mark.parametrize("kind", ARCHITECTURES)
def test_parameters_stay_views_into_the_buffers(kind, baseline_segments):
    norm, stats = small_training_setup(baseline_segments, count=24)
    spec = build(kind, "spectrogram", 512)
    _assert_in_buffers(instantiate(spec, seed=0))
    trained = train(spec, norm, stats, TrainPlan(epochs=1, batch_size=8, seed=0))
    blob, manifest = dump_trained(trained)
    back = load_trained(blob, json.loads(manifest), stats)
    _assert_in_buffers(back.model)
    back.model.astype(np.float64)   # cast again: the views follow the new buffers
    assert back.model.param_buffer.dtype == np.float64
    _assert_in_buffers(back.model)


def _untrained(kind, representation, feats):
    spec = build(kind, representation, 512)
    return TrainedModel(spec, instantiate(spec, seed=0), fit_normalization(feats), TrainPlan())


@pytest.fixture(scope="module")
def dwt_rows(event_record):
    from preictal.preprocess import lowpass

    segs, n = segment(lowpass(event_record), SegmentationConfig(1, 0, 512)), 9 * SCORE_BATCH
    feats = extract_features(SegmentSet(segs.samples[:n], segs.start_samples[:n],
                                        segs.phases[:n], segs.config), "dwt")
    return apply_normalization(feats, fit_normalization(feats))


@pytest.mark.parametrize("kind", ARCHITECTURES)
def test_segment_score_ignores_record_length(kind, dwt_rows):
    # alone in a batch, a row's product can take another BLAS path and round
    # differently; a one-row tail joins the batch before it so it never is
    trained = _untrained(kind, "dwt", dwt_rows)
    whole = score(trained, dwt_rows)
    for n in range(SCORE_BATCH + 1, len(dwt_rows), SCORE_BATCH):
        assert whole[:n].tobytes() == score(trained, dwt_rows[:n]).tobytes(), n


@pytest.mark.parametrize("kind, representation", [
    ("lstm_ae", "spectrogram"), ("mh_c_lstm_ae", "dwt"), ("t_ee", "scalogram")])
def test_score_batch_size_changes_no_bit(kind, representation):
    # rows of a product do not depend on how many rows share it (at a fixed
    # BLAS thread count), as long as there are at least two
    feats = np.random.default_rng(3).normal(size=(70, *feature_shape(representation, 512)))
    trained = _untrained(kind, representation, feats)
    assert (score(trained, feats, batch_size=32).tobytes()
            == score(trained, feats, batch_size=256).tobytes())


def test_row_blocks_fold_a_one_row_tail():
    assert list(row_blocks(65, 32)) == [(0, 32), (32, 64), (64, 65)]
    assert list(row_blocks(65, 32, min_rows=2)) == [(0, 32), (32, 65)]
    assert list(row_blocks(64, 32, min_rows=2)) == [(0, 32), (32, 64)]
    assert list(row_blocks(1, 32, min_rows=2)) == [(0, 1)]
    assert list(row_blocks(0, 32)) == []


def test_preictal_errors_exceed_interictal(event_record):
    """The core premise: injected anomalies reconstruct worse than baseline."""
    from preictal.preprocess import lowpass

    segs = segment(lowpass(event_record), SegmentationConfig(1, 0, 512))
    segs = label_phases(segs, event_record.annotations, preictal_len_s=240.0)
    train_idx, test_idx = select_baseline(segs, event_record.duration_s)

    feats = extract_features(segs, "spectrogram")
    stats = fit_normalization(feats[train_idx])
    spec = build("mh_c_lstm_ae", "spectrogram", 512)
    trained = train(spec, apply_normalization(feats[train_idx], stats), stats,
                    TrainPlan(epochs=12, batch_size=32, seed=0))

    errors = score(trained, apply_normalization(feats[test_idx], stats))
    phases = segs.phases[test_idx]
    pre = errors[phases == Phase.PREICTAL]
    inter = errors[phases == Phase.INTERICTAL]
    assert len(pre) and len(inter)
    assert pre.mean() > inter.mean()
