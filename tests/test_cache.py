import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preictal import cache
from preictal.cache import (dump_features, dump_segments, load_features,
                            load_segment_index, load_segments, read_rows,
                            read_segments_layout)
from preictal.errors import DataError
from preictal.ingest import EcgRecord
from preictal.nn.params_io import dump_arrays, load_arrays
from preictal.preprocess import SegmentationConfig, SegmentSet, segment


def make_segments(overlap_s=0):
    rng = np.random.default_rng(0)
    rec = EcgRecord(patient_id="t", sampling_rate_hz=512,
                    samples=rng.normal(size=512 * 30))
    segs = segment(rec, SegmentationConfig(5, overlap_s, 512))
    phases = np.arange(len(segs)) % 4
    return segs.with_phases(phases.astype(np.int8))


def test_segment_roundtrip():
    segs = make_segments(overlap_s=1)
    back = load_segments(dump_segments(segs))
    assert np.array_equal(back.samples, segs.samples)
    assert np.array_equal(back.start_samples, segs.start_samples)
    assert np.array_equal(back.phases, segs.phases)
    assert back.config == segs.config


def load_index(blob):
    """load_segment_index of ESG1 bytes, as if read from a file."""
    return load_segment_index(io.BytesIO(blob))


@pytest.mark.parametrize("block_bytes", [1, 3 * (16 + 8 * 2560), 1 << 22])
def test_segment_index_reads_starts_phases_and_config(block_bytes, monkeypatch):
    monkeypatch.setattr(cache, "INDEX_BLOCK_BYTES", block_bytes)   # 1 row, 3 rows, all
    segs = make_segments(overlap_s=1)
    index = load_index(dump_segments(segs))
    assert not hasattr(index, "samples")
    assert len(index) == len(segs)
    assert np.array_equal(index.start_samples, segs.start_samples)
    assert np.array_equal(index.phases, segs.phases)
    assert np.array_equal(index.start_times_s(), segs.start_times_s())
    assert index.config == segs.config


@pytest.mark.parametrize("overlap_s", [0, 1])
def test_segment_bytes_are_header_then_zero_padded_chunks(overlap_s):
    segs = make_segments(overlap_s)
    cfg = segs.config
    chunks = np.zeros(len(segs), [("start", "<i8"), ("phase", "u1"), ("pad", "V7"),
                                  ("samples", "<f8", (cfg.window_samples,))])
    chunks["start"], chunks["phase"], chunks["samples"] = (
        segs.start_samples, segs.phases, segs.samples)
    head = b"ESG1" + struct.pack("<IIIII", 1, cfg.sampling_rate_hz, cfg.window_samples,
                                 cfg.hop_samples, len(segs))
    assert bytes(dump_segments(segs)) == head + chunks.tobytes()


def test_segment_rows_read_alone():
    segs = make_segments()
    f = io.BytesIO(dump_segments(segs))
    layout = read_segments_layout(f)
    assert (layout.config, layout.count) == (segs.config, len(segs))
    block = load_segments(read_rows(f, layout, 2, 5), layout)
    assert np.array_equal(block.samples, segs.samples[2:5])
    assert np.array_equal(block.start_samples, segs.start_samples[2:5])
    assert np.array_equal(block.phases, segs.phases[2:5])


def test_bad_phase_in_a_later_block_is_data_error(monkeypatch):
    monkeypatch.setattr(cache, "INDEX_BLOCK_BYTES", 1)   # one row per block
    blob = dump_segments(make_segments())
    blob[cache.SegmentLayout.offset + 4 * (16 + 8 * 2560) + 8] = 7   # row 4's phase
    for load in (load_segments, load_index):
        with pytest.raises(DataError, match="phase outside"):
            load(blob)


def test_segment_bad_magic():
    with pytest.raises(DataError, match="magic"):
        load_segments(b"XXXX" + b"\0" * 60)


def test_segment_truncation_detected():
    blob = dump_segments(make_segments())
    with pytest.raises(DataError, match="truncated"):
        load_segments(blob[:-8])


def test_feature_roundtrip():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(7, 128, 32))
    back, rep = load_features(dump_features(feats, "scalogram"))
    assert rep == "scalogram"
    assert np.array_equal(back, feats)


def test_feature_vector_roundtrip():
    feats = np.random.default_rng(2).normal(size=(4, 512))
    back, rep = load_features(dump_features(feats, "dwt"))
    assert rep == "dwt"
    assert back.shape == (4, 512)


def test_feature_unknown_representation():
    with pytest.raises(DataError, match="unknown representation"):
        dump_features(np.zeros((2, 3)), "mel")


def test_feature_truncation_detected():
    blob = dump_features(np.zeros((3, 8)), "dwt")
    with pytest.raises(DataError, match="truncated"):
        load_features(blob[:-1])


def _small_segments():
    cfg = SegmentationConfig(window_s=1, overlap_s=0, sampling_rate_hz=8)
    return SegmentSet(np.arange(24.0).reshape(3, 8), np.array([0, 8, 16]),
                      np.array([0, 1, 3]), cfg)


# one valid blob per loader; the fuzz tests below cut, flip and replace its bytes
VALID_BLOBS = {
    load_segments: dump_segments(_small_segments()),
    load_index: dump_segments(_small_segments()),
    load_features: dump_features(np.arange(24.0).reshape(2, 3, 4), "scalogram"),
    load_arrays: dump_arrays({"w": np.ones((2, 3)), "b": np.zeros(3)}, "lstm_ae:dwt:32x16"),
}
LOADERS = st.sampled_from(list(VALID_BLOBS))


def _only_data_error(load, blob: bytes):
    try:
        load(blob)
    except DataError:
        pass


MALFORMED_SEGMENT_HEADERS = [
    b"ESG1\x01\x00",
    b"ESG1" + struct.pack("<IIIII", 1, 0, 512, 512, 0),      # 0 Hz
    b"ESG1" + struct.pack("<IIIII", 1, 512, 1024, 1024, 0),  # 2 s window
]


@pytest.mark.parametrize("load, blob", [
    *[(load, blob) for load in (load_segments, load_index)
      for blob in MALFORMED_SEGMENT_HEADERS],
    (load_features, b"FTR1\x01\x00\x00"),
    (load_arrays, b"MDL1\x01\x00\x00\x00\x03"),
    (load_arrays, b"MDL1" + struct.pack("<IH", 1, 1) + b"\xff"),              # tag not UTF-8
    # a zero axis next to axes whose product overflows numpy's size limit
    (load_arrays, b"MDL1" + struct.pack("<IH", 1, 1) + b"t" + struct.pack("<IH", 1, 1)
     + b"w" + struct.pack("<B3I", 3, 0, 2**32 - 1, 2**32 - 1)),
    (load_features, b"FTR1" + struct.pack("<IB3xI3II", 1, 0, 3, 0, 2**32 - 1, 2**32 - 1, 5)),
])
def test_malformed_header_is_data_error(load, blob):
    with pytest.raises(DataError):
        load(blob)


# the fuzz cases: each makes a blob from a valid one and hypothesis's data
def _after_magic(blob: bytes, data) -> bytes:
    return blob[:4] + data.draw(st.binary(max_size=120))


def _truncated(blob: bytes, data) -> bytes:
    return blob[:data.draw(st.integers(0, len(blob)))]


def _byte_flipped(blob: bytes, data) -> bytes:
    blob = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(blob) - 1))
        blob[i] ^= data.draw(st.integers(1, 255))
    return bytes(blob)


@settings(max_examples=300, deadline=None)
@given(LOADERS, st.data())
def test_arbitrary_bytes_after_magic(load, data):
    _only_data_error(load, _after_magic(VALID_BLOBS[load], data))


@settings(max_examples=300, deadline=None)
@given(LOADERS, st.data())
def test_truncated_blob(load, data):
    _only_data_error(load, _truncated(VALID_BLOBS[load], data))


@settings(max_examples=500, deadline=None)
@given(LOADERS, st.data())
def test_byte_flipped_blob(load, data):
    _only_data_error(load, _byte_flipped(VALID_BLOBS[load], data))


def _segments_read(load, blob: bytes):
    """What load makes of blob: the index's arrays and config, or None when
    it raises DataError."""
    try:
        got = load(blob)
    except DataError:
        return None
    return got.start_samples.tolist(), got.phases.tolist(), got.config


# the malformed headers above are refused by both readers
@pytest.mark.parametrize("fuzz", [_after_magic, _truncated, _byte_flipped])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_index_reader_accepts_what_load_segments_accepts(fuzz, data):
    blob = fuzz(VALID_BLOBS[load_segments], data)
    assert _segments_read(load_index, blob) == _segments_read(load_segments, blob)
