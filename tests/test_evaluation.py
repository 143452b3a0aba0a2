import numpy as np
import pytest

from preictal.errors import DataError
from preictal.evaluation import (ConfusionCounts, EvalConfig,
                                 classify_alarm_intervals, count_confusion,
                                 default_preictal_len_s, interictal_hours,
                                 metrics, seizure_outcomes)
from preictal.ingest import SeizureAnnotation
from preictal.preprocess import Phase

I, P, C, T = Phase.INTERICTAL, Phase.PREICTAL, Phase.ICTAL, Phase.POSTICTAL


class TestCountConfusion:
    def test_all_interictal_no_flags(self):
        counts = count_confusion(np.zeros(50, dtype=bool), np.full(50, I))
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (0, 0, 50, 0)
        assert counts.w_pos == 1.0

    def test_weighted_example(self):
        phases = np.array([P] * 4 + [I] * 96)
        flags = np.array([True] * 4 + [False] * 96)
        counts = count_confusion(flags, phases)
        assert (counts.tp, counts.tn) == (4, 96)
        assert counts.w_pos == 24.0
        assert counts.tp_weighted == 96.0

    def test_ictal_and_postictal_excluded(self):
        phases = np.array([C, C, T, T])
        flags = np.array([True, True, True, True])
        counts = count_confusion(flags, phases)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (0, 0, 0, 0)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="differ"):
            count_confusion(np.zeros(3, dtype=bool), np.zeros(4))


class TestMetrics:
    def test_unweighted_accuracy_example(self):
        counts = ConfusionCounts(tp=3, fp=1, tn=7, fn=1, w_pos=1.0)
        result = metrics(counts, inter_ictal_hours=1.0, interictal_alarm_events=0)
        assert abs(result.accuracy - 10 / 12) < 1e-12
        assert result.accuracy == result.accuracy_unweighted

    def test_specificity_and_fpr(self):
        counts = ConfusionCounts(tp=0, fp=1, tn=99, fn=0, w_pos=1.0)
        result = metrics(counts, 1.0, 0)
        assert result.specificity == 0.99
        assert result.fpr_ratio == 0.01

    def test_specificity_plus_fpr_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            tn, fp = int(rng.integers(0, 500)), int(rng.integers(1, 50))
            counts = ConfusionCounts(tp=1, fp=fp, tn=tn, fn=1, w_pos=2.0)
            result = metrics(counts, 1.0, 0)
            assert abs(result.specificity + result.fpr_ratio - 1.0) < 1e-15

    def test_weighted_accuracy_identity(self):
        # with w_pos = N_neg/N_pos, weighted accuracy == (sens + spec) / 2
        rng = np.random.default_rng(1)
        for _ in range(1000):
            tp, fn = int(rng.integers(0, 50)), int(rng.integers(0, 50))
            fp, tn = int(rng.integers(0, 50)), int(rng.integers(0, 50))
            n_pos, n_neg = tp + fn, fp + tn
            if n_pos == 0 or n_neg == 0:
                continue
            counts = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn, w_pos=n_neg / n_pos)
            result = metrics(counts, 1.0, 0)
            sens = tp / n_pos
            spec = tn / n_neg
            assert abs(result.accuracy - (sens + spec) / 2) < 1e-12

    def test_accuracy_invariant_under_count_scaling(self):
        a = metrics(ConfusionCounts(3, 1, 7, 1, w_pos=2.0), 1.0, 0)
        b = metrics(ConfusionCounts(30, 10, 70, 10, w_pos=2.0), 1.0, 0)
        assert abs(a.accuracy - b.accuracy) < 1e-15

    def test_flag_monotonicity(self):
        rng = np.random.default_rng(2)
        phases = rng.choice([I, P], size=300)
        flags = rng.random(300) < 0.3
        more = flags | (rng.random(300) < 0.3)
        c1 = count_confusion(flags, phases)
        c2 = count_confusion(more, phases)
        assert c2.tp >= c1.tp and c2.fp >= c1.fp

    def test_undefined_ratios_are_none(self):
        counts = ConfusionCounts(tp=0, fp=0, tn=0, fn=0, w_pos=1.0)
        result = metrics(counts, 0.0, 0)
        assert result.accuracy is None
        assert result.specificity is None
        assert result.fpr_per_hour is None

    def test_per_hour_rate(self):
        counts = ConfusionCounts(1, 2, 100, 1, w_pos=1.0)
        result = metrics(counts, inter_ictal_hours=4.0, interictal_alarm_events=2)
        assert result.fpr_per_hour == 0.5


class TestSeizureOutcomes:
    CFG = EvalConfig(preictal_len_s=3600.0)

    def test_predicted_45_minutes_ahead(self):
        onset = 10000.0
        alarms = [(onset - 2700.0, onset - 2640.0)]
        predicted, times = seizure_outcomes(alarms, [SeizureAnnotation(onset, onset + 10)], self.CFG)
        assert predicted == [True]
        assert times == [45.0]

    def test_unpredicted(self):
        predicted, times = seizure_outcomes([], [SeizureAnnotation(5000.0, 5100.0)], self.CFG)
        assert predicted == [False] and times == []

    def test_earliest_alarm_sets_time(self):
        onset = 10000.0
        alarms = [(onset - 600.0, onset - 540.0), (onset - 1200.0, onset - 1140.0)]
        _, times = seizure_outcomes(alarms, [SeizureAnnotation(onset, onset + 10)], self.CFG)
        assert times == [20.0]

    def test_alarm_outside_window_ignored(self):
        onset = 10000.0
        alarms = [(onset - 4000.0, onset - 3700.0)]
        predicted, _ = seizure_outcomes(alarms, [SeizureAnnotation(onset, onset + 10)], self.CFG)
        assert predicted == [False]


def test_classify_alarm_intervals():
    cfg = EvalConfig(preictal_len_s=600.0, postictal_len_s=300.0)
    anns = [SeizureAnnotation(onset_s=2000.0, offset_s=2060.0)]
    buckets = classify_alarm_intervals(
        [(100.0, 160.0),        # inter-ictal false alarm
         (1500.0, 1560.0),      # inside the pre-ictal window
         (2100.0, 2160.0),      # post-ictal
         (3000.0, 3060.0)],     # far after: false alarm
        anns, cfg)
    assert buckets["false"] == [(100.0, 160.0), (3000.0, 3060.0)]
    assert buckets["predictive"] == [(1500.0, 1560.0)]
    assert buckets["postictal"] == [(2100.0, 2160.0)]


def test_interictal_hours():
    phases = np.array([I] * 1800 + [P] * 600 + [C] * 60)
    assert interictal_hours(phases, hop_s=1.0) == 0.5


def test_default_preictal_len():
    assert default_preictal_len_s(4 * 3600.0) == 3600.0
    assert default_preictal_len_s(2 * 3600.0) == 1800.0
