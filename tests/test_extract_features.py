"""extract_features hands blocks of segments to each transform; every row must
carry the same bytes as the transform of that segment alone."""
import numpy as np
import pytest

from preictal.cache import dump_segments, load_segments
from preictal.features import (BLOCK_ROWS, cwt_scalogram, dwt_decompose,
                               extract_features, stft_spectrogram)
from preictal.ingest import EcgRecord
from preictal.preprocess import SegmentationConfig, SegmentSet, segment

PER_SEGMENT = {"dwt": dwt_decompose, "scalogram": cwt_scalogram,
               "spectrogram": stft_spectrogram}
COUNTS = (1, BLOCK_ROWS, BLOCK_ROWS + 3)   # one row, a full block, a partial second block


@pytest.mark.parametrize("window_s", [1, 5, 10])
@pytest.mark.parametrize("representation", sorted(PER_SEGMENT))
def test_block_rows_match_single_segments(representation, window_s):
    fs = 512
    rng = np.random.default_rng(window_s)
    rec = EcgRecord(patient_id="t", sampling_rate_hz=fs,
                    samples=rng.normal(size=fs * window_s * max(COUNTS)))
    # the segment cache's strided rows, as the extract stage reads them
    segs = load_segments(dump_segments(segment(rec, SegmentationConfig(window_s, 0, fs))))
    expected = np.stack([PER_SEGMENT[representation](s) for s in segs.samples])
    for count in COUNTS:
        part = SegmentSet(segs.samples[:count], segs.start_samples[:count],
                          segs.phases[:count], segs.config)
        got = extract_features(part, representation)
        assert got.tobytes() == expected[:count].tobytes(), (representation, window_s, count)
