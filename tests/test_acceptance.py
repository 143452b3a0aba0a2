"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figures.  Criterion 9 needs a locally available clinical record
(see the PREICTAL_SIENA_* environment variables) and is skipped otherwise.

Run with:  pytest tests/test_acceptance.py -v -s
"""
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from preictal.anomaly import Threshold, detect, fit_threshold, series_from_errors, smooth
from preictal.config import validate_config
from preictal.evaluation import ConfusionCounts, count_confusion, metrics
from preictal.features import (N_BINS, apply_normalization, cwt_scalogram,
                               dwt_decompose, dwt_reconstruct, extract_features,
                               fit_normalization, frame_count, mexican_hat,
                               stft_spectrogram, stft_transform)
from preictal.ingest import (SyntheticEvent, SyntheticSpec, generate_synthetic,
                             parse_edf, parse_edf_header, serialize_annotations,
                             serialize_csv, write_edf, EcgRecord)
from preictal.models import TrainPlan, build, dump_trained, train
from preictal.nn import (BatchNorm, Conv1d, Dense, FeedForward, LayerNorm,
                         Lstm, MultiHeadAttention, make_rng)
from preictal.pipeline import run
from preictal.preprocess import Phase, SegmentationConfig, lowpass, segment

REPORT = "ACCEPTANCE {n} PASS: {text}"


def report(n, text):
    print(REPORT.format(n=n, text=text))


# --------------------------------------------------------------------------
# 1. DWT perfect reconstruction + vanishing moments, under 10 s


def _clean_detail_masks(n, levels, taps=8):
    masks, size, prev = [], n, np.ones(n, dtype=bool)
    for _ in range(levels):
        out = np.zeros(size // 2, dtype=bool)
        for row in range(size // 2):
            src = [2 * row - k for k in range(taps)]
            out[row] = all(0 <= s < size and prev[s] for s in src)
        masks.append(out)
        prev, size = out, size // 2
    return masks


def test_criterion_1_dwt_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=512)
        back = dwt_reconstruct(dwt_decompose(x))
        worst = max(worst, float(np.max(np.abs(back - x))))
    assert worst < 1e-8

    const = dwt_decompose(np.ones(512))
    const_detail = float(np.max(np.abs(const[64:])))   # cD3 || cD2 || cD1
    assert const_detail < 1e-9

    ramp = dwt_decompose(np.arange(512, dtype=np.float64))
    masks = _clean_detail_masks(512, 3)
    ramp_detail = 0.0
    for detail, mask in zip((ramp[256:], ramp[128:256], ramp[64:128]), masks):
        ramp_detail = max(ramp_detail, float(np.max(np.abs(detail[mask]))))
    assert ramp_detail < 1e-9   # away from the periodic wrap; see ledger

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"PR worst {worst:.2e} over 1000 segments, const detail "
              f"{const_detail:.2e}, ramp interior detail {ramp_detail:.2e}, "
              f"{elapsed:.2f}s < 10s")


# --------------------------------------------------------------------------
# 2. STFT: Parseval, exact-bin sine, closed-form frame/bin counts


def test_criterion_2_stft_oracles():
    rng = np.random.default_rng(7)
    x = rng.normal(size=512)
    spec = stft_transform(x, window="rect")
    padded = np.pad(x, 256, mode="reflect")
    worst_rel = 0.0
    for k in range(len(spec)):
        frame = padded[k * 128:k * 128 + 512]
        mags = np.abs(spec[k]) ** 2
        two_sided = mags[0] + mags[-1] + 2.0 * mags[1:-1].sum()
        rhs = 512.0 * np.sum(frame ** 2)
        worst_rel = max(worst_rel, abs(two_sided - rhs) / rhs)
    assert worst_rel < 1e-6

    t = np.arange(512) / 512.0
    tone = np.sin(2 * np.pi * 64 * t)
    values = stft_spectrogram(tone, window="rect")
    tone_padded = np.pad(tone, 256, mode="reflect")
    argmaxes = []
    for k in range(len(values)):
        frame = tone_padded[k * 128:k * 128 + 512]
        n = len(frame)
        dft = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) @ frame
        oracle = int(np.argmax(np.abs(dft[:N_BINS])))
        ours = int(np.argmax(values[k]))
        assert ours == oracle
        argmaxes.append(ours)
    # frame 0 is pure reflection: the mirrored sine cancels at its exact bin
    assert argmaxes == [63, 64, 64, 64, 64]
    assert all(a == 64 for a in argmaxes[1:])

    counts = {n: (frame_count(n), N_BINS) for n in (512, 2560, 5120)}
    assert counts == {512: (5, 257), 2560: (21, 257), 5120: (41, 257)}
    report(2, f"Parseval rel err {worst_rel:.2e}, sine argmax {argmaxes}, "
              f"frame/bin counts {counts}")


# --------------------------------------------------------------------------
# 3. CWT: Gaussian-bump peak scale vs direct-quadrature oracle


def test_criterion_3_cwt_oracle():
    assert np.all(cwt_scalogram(np.zeros(512)) == 0.0)

    width, n = 12.0, 512
    x = np.exp(-((np.arange(n) - n / 2) ** 2) / (2 * width ** 2))
    ours = int(np.argmax(cwt_scalogram(x).sum(axis=1)))

    dt = 0.05
    t = np.arange(-1100, n + 1100, dt)
    xt = np.exp(-((t - n / 2) ** 2) / (2 * width ** 2))
    energies = []
    for a in range(1, 129):
        total = 0.0
        for b in range(0, n, 16):
            psi = mexican_hat((t - b) / a) / np.sqrt(a)
            c = np.trapezoid(xt * psi, dx=dt)
            total += c * c
        energies.append(total)
    oracle = int(np.argmax(energies)) + 1   # scales start at 1
    assert abs((ours + 1) - oracle) <= 2
    report(3, f"bump peak scale {ours + 1} vs quadrature oracle {oracle} "
              f"(|diff| <= 2); zero input -> zero scalogram")


# --------------------------------------------------------------------------
# 4. Gradient checks for every layer kind, under 60 s


def test_criterion_4_gradient_checks():
    from test_nn_layers import max_rel_grad_error

    t0 = time.perf_counter()
    rng_data = np.random.default_rng(55)
    cases = [
        ("Dense", Dense(5, 7, make_rng(0)), rng_data.normal(size=(4, 5))),
        ("Conv1d d=1", Conv1d(3, 5, make_rng(1), dilation=1), rng_data.normal(size=(2, 9, 3))),
        ("Conv1d d=2", Conv1d(3, 5, make_rng(2), dilation=2), rng_data.normal(size=(2, 9, 3))),
        ("Conv1d d=4", Conv1d(3, 5, make_rng(3), dilation=4), rng_data.normal(size=(2, 9, 3))),
        ("Lstm 3 steps", Lstm(4, 6, make_rng(4)), rng_data.normal(size=(3, 3, 4))),
        ("MultiHeadAttention", MultiHeadAttention(8, make_rng(5), heads=4),
         rng_data.normal(size=(2, 5, 8))),
        ("BatchNorm", BatchNorm(6), rng_data.normal(size=(5, 4, 6))),
        ("LayerNorm", LayerNorm(6), rng_data.normal(size=(5, 4, 6))),
        ("FeedForward", FeedForward(6, make_rng(6)), rng_data.normal(size=(3, 4, 6))),
    ]
    worst = {}
    for name, layer, x in cases:
        worst[name] = max_rel_grad_error(layer, x, step=1e-5)
        assert worst[name] < 1e-4, f"{name}: {worst[name]}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    summary = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(4, f"max rel grad errors: {summary}; {elapsed:.1f}s < 60s")


# --------------------------------------------------------------------------
# 5. Training sanity over 3 architectures x 3 representations


@pytest.fixture(scope="module")
def sanity_segments():
    spec = SyntheticSpec(duration_s=200.0, base_hr_bpm=90.0, noise_std=0.0, rng_seed=7)
    rec = lowpass(generate_synthetic(spec))
    return segment(rec, SegmentationConfig(1, 0, 512))


def test_criterion_5_training_sanity(sanity_segments):
    # batch 8 so 50 epochs supply enough optimizer steps for 200 segments;
    # patience = epochs disables premature plateau stops within the budget;
    # no holdout: this criterion is about the training loss itself
    plan = TrainPlan(epochs=50, batch_size=8, patience=50, seed=0,
                     holdout_fraction=0.0)
    lines = []
    for representation in ("dwt", "spectrogram", "scalogram"):
        feats = extract_features(sanity_segments, representation)
        stats = fit_normalization(feats)
        norm = apply_normalization(feats, stats)
        assert len(norm) == 200
        for kind in ("lstm_ae", "mh_c_lstm_ae", "t_ee"):
            spec = build(kind, representation, 512)
            t0 = time.perf_counter()
            trained = train(spec, norm, stats, plan)
            elapsed = time.perf_counter() - t0
            ratio = trained.final_loss / trained.initial_loss
            assert ratio <= 0.1, f"{kind}/{representation}: {ratio:.3f}"
            assert len(trained.loss_history) - 1 <= 50
            assert elapsed < 300.0, f"{kind}/{representation}: {elapsed:.0f}s"
            lines.append(f"{kind}/{representation} ratio {ratio:.4f} {elapsed:.0f}s")

    # fixed seed reproduces the parameter file bit-for-bit
    feats = extract_features(sanity_segments, "spectrogram")
    stats = fit_normalization(feats)
    norm = apply_normalization(feats, stats)
    spec = build("mh_c_lstm_ae", "spectrogram", 512)
    blob_a, _ = dump_trained(train(spec, norm, stats, plan))
    blob_b, _ = dump_trained(train(spec, norm, stats, plan))
    assert blob_a == blob_b
    report(5, "; ".join(lines) + "; repeated seed bit-identical")


# --------------------------------------------------------------------------
# 6. Smoothing and threshold worked examples; detection monotone in k


def test_criterion_6_smoothing_threshold_units():
    smoothed = smooth(series_from_errors([0.0, 0.0, 3.0, 0.0, 0.0]), w=3)
    assert np.array_equal(smoothed.errors, [0.0, 1.0, 1.0, 1.0, 0.0])

    tau = Threshold(mu=0.1, sigma=0.02, k=2.0).tau
    assert abs(tau - 0.14) < 1e-15

    rng = np.random.default_rng(66)
    violations = 0
    for _ in range(100):
        series = smooth(series_from_errors(rng.random(200)), w=5)
        mu, sigma = series.errors.mean(), series.errors.std()
        ks = np.sort(rng.uniform(0.0, 4.0, size=4))
        counts = [detect(series, Threshold(mu, sigma, k))[0].sum() for k in ks]
        if any(a < b for a, b in zip(counts, counts[1:])):
            violations += 1
    assert violations == 0
    report(6, "Eq-style worked examples exact ([0,1,1,1,0]; tau=0.14); "
              "detection monotone in k over 100 random series")


# --------------------------------------------------------------------------
# 7. Metric identities


def test_criterion_7_metric_identities():
    # enumerated small counts reproduce the closed-form ratios exactly
    for tp in range(0, 4):
        for fp in range(0, 4):
            for tn in range(0, 4):
                for fn in range(0, 4):
                    counts = ConfusionCounts(tp, fp, tn, fn, w_pos=1.0)
                    result = metrics(counts, 1.0, 0)
                    total = tp + fp + tn + fn
                    if total:
                        assert result.accuracy == (tp + tn) / total
                    if tn + fp:
                        assert result.specificity == tn / (tn + fp)
                        assert result.fpr_ratio == fp / (fp + tn)
                        assert result.specificity + result.fpr_ratio == 1.0

    rng = np.random.default_rng(77)
    checked = 0
    while checked < 1000:
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 200, size=4))
        if (tp + fn) == 0 or (fp + tn) == 0:
            continue
        w_pos = (fp + tn) / (tp + fn)
        result = metrics(ConfusionCounts(tp, fp, tn, fn, w_pos=w_pos), 1.0, 0)
        sens = tp / (tp + fn)
        spec = tn / (tn + fp)
        assert abs(result.accuracy - (sens + spec) / 2) < 1e-12
        assert abs(result.specificity + result.fpr_ratio - 1.0) < 1e-15
        checked += 1
    report(7, "Eq ratios exact on enumerated counts; specificity+FPR == 1; "
              "weighted accuracy == (sens+spec)/2 over 1000 random tuples")


# --------------------------------------------------------------------------
# 8. End-to-end on the seeded two-event synthetic record


def test_criterion_8_end_to_end(tmp_path):
    t0 = time.perf_counter()
    spec = SyntheticSpec(
        duration_s=7200.0, base_hr_bpm=90.0, noise_std=0.02, hrv_bpm=5.0,
        events=(SyntheticEvent(onset_s=3000.0, preictal_lead_s=1800.0,
                               hr_ramp_bpm=30.0, jitter_std=0.3),
                SyntheticEvent(onset_s=5700.0, preictal_lead_s=1800.0,
                               hr_ramp_bpm=30.0, jitter_std=0.3)),
        rng_seed=11,
    )
    record = generate_synthetic(spec)
    record_path = tmp_path / "record.csv"
    ann_path = tmp_path / "annotations.csv"
    record_path.write_text(serialize_csv(record))
    ann_path.write_text(serialize_annotations(record.annotations))

    cfg = validate_config(
        f"record = {record_path}\n"
        f"annotations = {ann_path}\n"
        f"patient_id = synthetic-e2e\n"
        f"out = {tmp_path / 'out'}\n"
        f"seed = 0\n"
    )
    run("all", cfg)

    evaluation = json.loads((tmp_path / "out" / "evaluation.json").read_text())
    m = evaluation["metrics"]
    assert m["seizures_total"] == 2
    assert m["seizures_predicted"] == 2
    assert m["specificity"] >= 0.95
    assert m["fpr_per_hour"] is not None and m["fpr_per_hour"] <= 0.2

    svg = (tmp_path / "out" / "report.svg").read_text()
    assert svg.startswith("<svg") or svg.startswith("<?xml") or "<svg" in svg
    assert svg.count('class="threshold"') == 1
    assert svg.count('class="preictal-band"') == 2
    assert svg.count('class="onset"') == 2
    assert svg.rstrip().endswith("</svg>")

    elapsed = time.perf_counter() - t0
    assert elapsed < 15 * 60
    report(8, f"2/2 seizures predicted (times "
              f"{[round(v, 1) for v in evaluation['seizures']['prediction_times_min']]} min), "
              f"specificity {m['specificity']:.4f} >= 0.95, alarm rate "
              f"{m['fpr_per_hour']}/h <= 0.2, SVG well-formed, {elapsed:.0f}s < 900s")


# --------------------------------------------------------------------------
# 9. Directional stretch on locally available clinical data (not CI)


@pytest.mark.skipif("PREICTAL_SIENA_RECORD" not in os.environ,
                    reason="clinical record not available; set PREICTAL_SIENA_RECORD, "
                           "PREICTAL_SIENA_ANNOTATIONS and PREICTAL_SIENA_CHANNEL")
def test_criterion_9_siena_directional(tmp_path):
    record_path = os.environ["PREICTAL_SIENA_RECORD"]
    ann_path = os.environ["PREICTAL_SIENA_ANNOTATIONS"]
    channel = os.environ.get("PREICTAL_SIENA_CHANNEL", "ECG")

    cfg = validate_config(
        f"record = {record_path}\n"
        f"annotations = {ann_path}\n"
        f"channel = {channel}\n"
        f"out = {tmp_path / 'siena'}\n"
        f"seed = 0\n"
    )
    run("all", cfg)
    evaluation = json.loads((tmp_path / "siena" / "evaluation.json").read_text())

    # smoothed detection strictly reduces false-positive segments vs unsmoothed
    from preictal.nn.params_io import load_arrays
    _, arrays = load_arrays((tmp_path / "siena" / "scores.params").read_bytes())
    train_raw = series_from_errors(arrays["train_errors"])
    test_raw = series_from_errors(arrays["test_errors"])
    k = evaluation["threshold"]["k"]

    th_raw = fit_threshold(smooth(train_raw, 1), k=k)
    flags_raw, _ = detect(smooth(test_raw, 1), th_raw)
    th_smooth = fit_threshold(smooth(train_raw, 31), k=k)
    flags_smooth, _ = detect(smooth(test_raw, 31), th_smooth)
    # false-positive space: segments outside any pre-ictal interval
    from preictal.cache import load_segment_index
    with (tmp_path / "siena" / "segments.bin").open("rb") as f:
        segs = load_segment_index(f)
    test_idx = arrays["test_indices"].astype(int)
    inter = segs.phases[test_idx] == Phase.INTERICTAL
    assert np.sum(flags_smooth & inter) < np.sum(flags_raw & inter)
    assert evaluation["metrics"]["seizures_predicted"] >= 1
    report(9, "smoothing strictly reduced false-positive segments; "
              ">= 1 seizure predicted within its pre-ictal interval")


# --------------------------------------------------------------------------
# 10. EDF parser fixtures: exact scaling and header round-trip


def test_criterion_10_edf_parser():
    from test_ingest_edf import make_edf

    digital = [0, 100, -100, 32767]
    rec = parse_edf(make_edf(digital), "ECG")
    expected = [5.0 / 65535.0, 1005.0 / 65535.0, -995.0 / 65535.0, 5.0]
    np.testing.assert_allclose(rec.samples, expected, rtol=0, atol=1e-12)

    rng = np.random.default_rng(101)
    source = EcgRecord(patient_id="PN-AC", sampling_rate_hz=512,
                       samples=np.clip(rng.normal(0, 1.2, 5120), -4.9, 4.9))
    blob = write_edf(source, channel_label="ECG EKG", recording_id="acceptance",
                     start_date="09.08.26", start_time="12.00.00")
    header = parse_edf_header(blob)
    assert header.patient_id == "PN-AC"
    assert header.recording_id == "acceptance"
    assert header.start_date == "09.08.26"
    assert header.start_time == "12.00.00"
    assert header.n_records == 10
    assert header.signals[0].label == "ECG EKG"
    assert header.signals[0].samples_per_record == 512
    assert (header.signals[0].physical_min, header.signals[0].physical_max) == (-5.0, 5.0)
    assert (header.signals[0].digital_min, header.signals[0].digital_max) == (-32768, 32767)

    back = parse_edf(blob, "ECG EKG")
    step = 10.0 / 65535.0
    worst = float(np.max(np.abs(back.samples - source.samples)))
    assert worst <= step
    report(10, f"scaling matches the formula exactly; quantization worst "
               f"{worst:.2e} <= one step {step:.2e}; all header fields round-trip")
