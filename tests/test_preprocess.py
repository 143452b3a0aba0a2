import numpy as np
import pytest
from scipy import signal as sps

from preictal import preprocess
from preictal.errors import ConfigError, DataError
from preictal.ingest import EcgRecord, SeizureAnnotation
from preictal.preprocess import (FilterConfig, Phase, SegmentationConfig,
                                 label_phases, lowpass, segment)

FS = 512


def record_of(samples, annotations=()):
    return EcgRecord(patient_id="t", sampling_rate_hz=FS, samples=samples,
                     annotations=list(annotations))


def sine(freq, seconds=4.0):
    t = np.arange(int(FS * seconds)) / FS
    return np.sin(2 * np.pi * freq * t)


def amplitude_at(x, freq):
    """Single-bin DFT amplitude (the filter-test oracle)."""
    n = len(x)
    c = np.exp(-2j * np.pi * freq * np.arange(n) / FS)
    return 2.0 * abs(np.dot(x, c)) / n


class TestLowpass:
    def test_passband_1hz(self):
        x = sine(1.0)
        y = lowpass(record_of(x)).samples
        assert abs(amplitude_at(y, 1.0) / amplitude_at(x, 1.0) - 1.0) < 0.01

    def test_stopband_120hz(self):
        x = sine(120.0)
        y = lowpass(record_of(x)).samples
        assert amplitude_at(y, 120.0) / amplitude_at(x, 120.0) < 0.10

    def test_attenuation_at_1p5_cutoff(self):
        x = sine(60.0)
        y = lowpass(record_of(x)).samples
        ratio = amplitude_at(y, 60.0) / amplitude_at(x, 60.0)
        assert 20 * np.log10(1 / ratio) >= 20.0

    def test_constant_unchanged(self):
        x = np.full(FS * 2, 0.7)
        y = lowpass(record_of(x)).samples
        assert np.max(np.abs(y - x)) < 1e-9

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=FS * 4)
        fwd = lowpass(record_of(x)).samples
        rev = lowpass(record_of(x[::-1])).samples[::-1]
        assert np.max(np.abs(fwd - rev)) < 1e-9

    def test_single_pass_mode_has_delay(self):
        x = sine(5.0)
        y = lowpass(record_of(x), FilterConfig(zero_phase=False)).samples
        # group delay shifts the waveform; zero-phase does not
        z = lowpass(record_of(x)).samples
        interior = slice(FS, 3 * FS)
        assert np.max(np.abs(y[interior] - x[interior])) > np.max(np.abs(z[interior] - x[interior]))

    # record lengths below, at and above the extension's 1,536 samples; chunks
    # of 7 samples split the passes and the extension's pieces
    @pytest.mark.parametrize("n", [1, 2, 5, 600, 1537, 5000])
    @pytest.mark.parametrize("chunk", [7, preprocess.FILTER_CHUNK])
    @pytest.mark.parametrize("cfg", [FilterConfig(), FilterConfig(cutoff_hz=5.0, filter_order=2)])
    def test_zero_phase_is_scipy_filtfilt_bit_for_bit(self, n, chunk, cfg, monkeypatch):
        monkeypatch.setattr(preprocess, "FILTER_CHUNK", chunk)
        x = np.random.default_rng(n).normal(size=n).cumsum()
        b, a = sps.butter(cfg.filter_order, cfg.cutoff_hz / (FS / 2), btype="low")
        expected = sps.filtfilt(b, a, x, padlen=min(n - 1, max(3 * FS, 3 * len(a))))
        assert lowpass(record_of(x), cfg).samples.tobytes() == expected.tobytes()

    def test_cutoff_beyond_nyquist_rejected(self):
        with pytest.raises(ConfigError, match="Nyquist"):
            lowpass(record_of(sine(1.0)), FilterConfig(cutoff_hz=300.0))


class TestSegment:
    def test_count_no_overlap(self):
        segs = segment(record_of(np.zeros(5120)), SegmentationConfig(1, 0, FS))
        assert len(segs) == 10

    def test_count_with_overlap(self):
        segs = segment(record_of(np.zeros(5120)), SegmentationConfig(5, 1, FS))
        assert len(segs) == 1 + (5120 - 2560) // 2048  # == 2

    def test_too_short_rejected(self):
        with pytest.raises(DataError, match="shorter"):
            segment(record_of(np.zeros(500)), SegmentationConfig(1, 0, FS))

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=5120 + 300)   # trailing partial window discarded
        segs = segment(record_of(x), SegmentationConfig(1, 0, FS))
        assert np.array_equal(np.concatenate(segs.samples), x[:len(segs) * 512])

    def test_hop_invariant(self):
        segs = segment(record_of(np.zeros(5120)), SegmentationConfig(5, 3, FS))
        hops = np.diff(segs.start_samples)
        assert np.all(hops == segs.config.hop_samples)

    @pytest.mark.parametrize("window_s, overlap_s", [(1, 0), (5, 0), (5, 1), (5, 3), (10, 5)])
    def test_windows_match_an_index_gather(self, window_s, overlap_s):
        rec = record_of(np.random.default_rng(2).normal(size=FS * 23 + 100))
        segs = segment(rec, SegmentationConfig(window_s, overlap_s, FS))
        idx = segs.start_samples[:, None] + np.arange(segs.config.window_samples)
        assert segs.samples.tobytes() == rec.samples[idx].tobytes()
        # windows that do not overlap view the record; overlapping ones are copied
        assert np.shares_memory(segs.samples, rec.samples) == (overlap_s == 0)

    def test_overlap_must_be_smaller(self):
        with pytest.raises(ConfigError, match="smaller"):
            SegmentationConfig(window_s=1, overlap_s=5, sampling_rate_hz=FS)


class TestLabelPhases:
    def _segments(self, seconds, window_s=1):
        return segment(record_of(np.zeros(FS * seconds)),
                       SegmentationConfig(window_s, 0, FS))

    def test_no_annotations_all_interictal(self):
        segs = label_phases(self._segments(20), [], preictal_len_s=3600)
        assert np.all(segs.phases == Phase.INTERICTAL)

    def test_hour_long_preictal(self):
        segs = self._segments(7200)
        ann = SeizureAnnotation(onset_s=3600.0, offset_s=3660.0)
        labeled = label_phases(segs, [ann], preictal_len_s=3600.0)
        assert np.all(labeled.phases[:3600] == Phase.PREICTAL)
        assert labeled.phases[3600] == Phase.ICTAL

    def test_straddling_segment_is_ictal(self):
        segs = self._segments(40, window_s=5)
        ann = SeizureAnnotation(onset_s=22.0, offset_s=30.0)   # segment [20, 25) straddles
        labeled = label_phases(segs, [ann], preictal_len_s=10.0)
        assert labeled.phases[4] == Phase.ICTAL

    def test_postictal_then_interictal(self):
        segs = self._segments(100)
        ann = SeizureAnnotation(onset_s=20.0, offset_s=30.0)
        labeled = label_phases(segs, [ann], preictal_len_s=10.0, postictal_len_s=20.0)
        assert labeled.phases[35] == Phase.POSTICTAL
        assert labeled.phases[60] == Phase.INTERICTAL

    def test_precedence_preictal_over_postictal(self):
        segs = self._segments(100)
        anns = [SeizureAnnotation(onset_s=20.0, offset_s=25.0),
                SeizureAnnotation(onset_s=40.0, offset_s=45.0)]
        labeled = label_phases(segs, anns, preictal_len_s=12.0, postictal_len_s=600.0)
        # [28, 40) is both post-ictal of the first and pre-ictal of the second
        assert labeled.phases[30] == Phase.PREICTAL

    def test_idempotent(self):
        segs = self._segments(100)
        ann = SeizureAnnotation(onset_s=50.0, offset_s=60.0)
        once = label_phases(segs, [ann], preictal_len_s=20.0)
        twice = label_phases(once, [ann], preictal_len_s=20.0)
        assert np.array_equal(once.phases, twice.phases)
