import numpy as np
import pytest

from preictal.anomaly import (AlarmEvent, Threshold, detect, export_csv,
                              fit_threshold, series_from_errors, smooth)
from preictal.errors import DataError


class TestSmooth:
    def test_worked_example(self):
        out = smooth(series_from_errors([0.0, 0.0, 3.0, 0.0, 0.0]), w=3)
        np.testing.assert_array_equal(out.errors, [0.0, 1.0, 1.0, 1.0, 0.0])

    def test_constant_unchanged(self):
        out = smooth(series_from_errors(np.full(20, 0.4)), w=5)
        np.testing.assert_allclose(out.errors, 0.4)

    def test_w1_identity(self):
        raw = series_from_errors([1.0, 5.0, 2.0])
        assert np.array_equal(smooth(raw, w=1).errors, raw.errors)

    def test_even_w_rejected(self):
        with pytest.raises(DataError, match="odd"):
            smooth(series_from_errors([1.0, 2.0]), w=4)

    def test_double_smoothing_rejected(self):
        once = smooth(series_from_errors([1.0, 2.0, 3.0]), w=3)
        with pytest.raises(DataError, match="already"):
            smooth(once, w=3)

    def test_bounded_by_min_max(self):
        rng = np.random.default_rng(0)
        raw = rng.random(200)
        out = smooth(series_from_errors(raw), w=31).errors
        assert out.min() >= raw.min() - 1e-12
        assert out.max() <= raw.max() + 1e-12

    def test_pointwise_monotone(self):
        rng = np.random.default_rng(1)
        lo = rng.random(100)
        hi = lo + rng.random(100)
        s_lo = smooth(series_from_errors(lo), w=7).errors
        s_hi = smooth(series_from_errors(hi), w=7).errors
        assert np.all(s_lo <= s_hi + 1e-12)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(2)
        raw = rng.random(57)
        w = 9
        out = smooth(series_from_errors(raw), w=w).errors
        half = w // 2
        for i in range(len(raw)):
            window = raw[max(0, i - half):min(len(raw), i + half + 1)]
            assert abs(out[i] - window.mean()) < 1e-12


class TestThreshold:
    def test_constant_series(self):
        s = smooth(series_from_errors(np.full(10, 0.3)), w=1)
        th = fit_threshold(s, k=2.0)
        assert abs(th.mu - 0.3) < 1e-15
        assert th.sigma < 1e-15
        assert abs(th.tau - 0.3) < 1e-15

    def test_worked_example(self):
        th = Threshold(mu=0.1, sigma=0.02, k=2.0)
        assert abs(th.tau - 0.14) < 1e-15

    def test_k_zero(self):
        s = smooth(series_from_errors([0.1, 0.2, 0.3]), w=1)
        th = fit_threshold(s, k=0.0)
        assert th.tau == th.mu

    def test_population_std(self):
        s = smooth(series_from_errors([0.0, 2.0]), w=1)
        th = fit_threshold(s, k=1.0)
        assert th.sigma == 1.0

    def test_requires_smoothed(self):
        with pytest.raises(DataError, match="smoothed"):
            fit_threshold(series_from_errors([1.0, 2.0]))


class TestDetect:
    def _series(self, values):
        return smooth(series_from_errors(values), w=1)

    def test_all_below(self):
        flags, events = detect(self._series([0.1, 0.2]), Threshold(1.0, 0.0, 2.0))
        assert not flags.any() and events == []

    def test_strictly_above(self):
        # errors equal to tau must not alarm (degenerate sigma=0 case)
        flags, _ = detect(self._series([0.3, 0.31]), Threshold(0.3, 0.0, 2.0))
        assert list(flags) == [False, True]

    def test_gap_zero_two_events(self):
        tau = Threshold(0.0, 0.5, 2.0)   # tau = 1
        flags, events = detect(self._series([2.0, 2.0, 0.0, 2.0]), tau, refractory_gap=0)
        assert events == [AlarmEvent(0, 1), AlarmEvent(3, 3)]

    def test_gap_one_merges(self):
        tau = Threshold(0.0, 0.5, 2.0)
        _, events = detect(self._series([2.0, 2.0, 0.0, 2.0]), tau, refractory_gap=1)
        assert events == [AlarmEvent(0, 3)]

    def test_event_edges_above_threshold(self):
        rng = np.random.default_rng(3)
        vals = rng.random(300)
        series = self._series(vals)
        th = Threshold(0.5, 0.1, 2.0)
        flags, events = detect(series, th, refractory_gap=3)
        for ev in events:
            assert flags[ev.start] and flags[ev.end]
        for a, b in zip(events, events[1:]):
            assert b.start > a.end

    def test_monotone_in_k(self):
        rng = np.random.default_rng(4)
        series = smooth(series_from_errors(rng.random(500)), w=5)
        mu, sigma = series.errors.mean(), series.errors.std()
        counts = []
        for k in (0.0, 0.5, 1.0, 2.0, 3.0):
            flags, _ = detect(series, Threshold(mu, sigma, k))
            counts.append(flags.sum())
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_events_nonincreasing_in_gap(self):
        rng = np.random.default_rng(5)
        series = smooth(series_from_errors(rng.random(400)), w=3)
        th = Threshold(series.errors.mean(), series.errors.std(), 1.0)
        n_events = [len(detect(series, th, refractory_gap=g)[1]) for g in (0, 1, 2, 5, 10)]
        assert all(a >= b for a, b in zip(n_events, n_events[1:]))

    def test_requires_smoothed(self):
        with pytest.raises(DataError, match="smoothed"):
            detect(series_from_errors([1.0]), Threshold(0.0, 1.0, 2.0))


def test_export_csv_shape():
    raw = series_from_errors([0.5, 1.5, 0.25], indices=[10, 11, 12])
    smoothed = smooth(raw, w=3)
    text = export_csv(raw, smoothed, np.array([False, True, False]))
    lines = text.strip().splitlines()
    assert lines[0] == "segment_index,raw_error,smoothed_error,anomaly_flag"
    assert len(lines) == 4
    assert lines[2].startswith("11,1.5,")
    assert lines[2].endswith(",1")


def test_export_csv_matches_row_by_row_formatting():
    rng = np.random.default_rng(3)
    raw = series_from_errors(rng.exponential(size=300), indices=np.arange(40, 340))
    smoothed = smooth(raw, w=9)
    flags = smoothed.errors > 1.0
    rows = zip(raw.indices, raw.errors, smoothed.errors, flags)
    assert export_csv(raw, smoothed, flags) == (
        "segment_index,raw_error,smoothed_error,anomaly_flag\n"
        + "".join(f"{i},{r:.17g},{s:.17g},{int(f)}\n" for i, r, s, f in rows))
