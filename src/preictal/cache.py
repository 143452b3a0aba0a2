"""Chunked binary caches for segment sets and feature tensors.

Both formats are little-endian with a fixed header followed by one chunk per
item; byte layouts are documented in docs/formats.md.  A feature cache's
rows have a fixed stride, so each block of rows can be written or read at
its own offset, and a long record's feature tensor is never resident whole.
"""
from __future__ import annotations

import math
import os
import struct
from typing import BinaryIO, NamedTuple

import numpy as np

from .errors import ConfigError, DataError
from .features import REPRESENTATIONS
from .nn.params_io import MAX_NDIM, check_shape, unpack_header
from .preprocess import Phase, SegmentationConfig, SegmentIndex, SegmentSet

SEGMENTS_MAGIC = b"ESG1"
FEATURES_MAGIC = b"FTR1"
VERSION = 1


def _segment_dtype(window: int) -> np.dtype:
    """One ESG1 chunk: start sample, phase byte, 7 pad bytes, then the samples."""
    return np.dtype([("start", "<i8"), ("phase", "u1"), ("pad", "V7"),
                     ("samples", "<f8", (window,))])


def dump_segments(segments: SegmentSet) -> bytearray:
    """ESG1 bytes of the segments: one buffer, the header then the chunks."""
    cfg = segments.config
    head = SEGMENTS_MAGIC + struct.pack(
        "<IIIII", VERSION, cfg.sampling_rate_hz, cfg.window_samples,
        cfg.hop_samples, len(segments))
    dtype = _segment_dtype(cfg.window_samples)
    out = bytearray(len(head) + len(segments) * dtype.itemsize)   # zeroed, pad bytes too
    out[:len(head)] = head
    body = np.frombuffer(out, dtype, count=len(segments), offset=len(head))
    body["start"], body["phase"], body["samples"] = (
        segments.start_samples, segments.phases, segments.samples)
    return out


def _segment_body(data: bytes) -> tuple[np.ndarray, SegmentationConfig]:
    """The checked ESG1 chunks of data, as a structured view, and the
    segmentation they were cut with."""
    if data[:4] != SEGMENTS_MAGIC:
        raise DataError(f"bad segment-cache magic {data[:4]!r}")
    (version, fs, window, hop, count), pos = unpack_header("<IIIII", data, 4, "segment cache")
    if version != VERSION:
        raise DataError(f"unsupported segment-cache version {version}")
    if not 0 < window < 2**31 or not fs or not hop or (window % fs) or (hop % fs):
        raise DataError(f"segment cache header has a bad window/hop: {window}/{hop} "
                        f"samples at {fs} Hz")
    try:
        cfg = SegmentationConfig(window_s=window // fs,
                                 overlap_s=(window - hop) // fs,
                                 sampling_rate_hz=fs)
    except ConfigError as exc:
        raise DataError(f"segment cache header: {exc}") from exc
    expected = pos + count * (16 + 8 * window)
    if len(data) != expected:
        raise DataError(f"segment cache truncated: {len(data)} bytes, expected {expected}")
    body = np.frombuffer(data, _segment_dtype(window), count=count, offset=pos)
    if np.any(body["phase"] > max(Phase)):
        raise DataError(f"segment cache holds a phase outside 0..{max(Phase):d}")
    return body, cfg


def load_segment_index(data: bytes) -> SegmentIndex:
    """The start samples, phases and segmentation of ESG1 bytes, with every
    check of `load_segments`; the samples are never copied."""
    body, cfg = _segment_body(data)
    return SegmentIndex(body["start"], body["phase"], cfg)


def load_segments(data: bytes) -> SegmentSet:
    body, cfg = _segment_body(data)
    return SegmentSet(body["samples"], body["start"], body["phase"], cfg)


class FeatureLayout(NamedTuple):
    """What an FTR1 header declares: the representation, the shape of one
    row (one segment's feature tensor) and the number of rows."""
    representation: str
    item_shape: tuple[int, ...]
    count: int

    @property
    def header(self) -> bytes:
        if self.representation not in REPRESENTATIONS:
            raise DataError(f"unknown representation {self.representation!r}")
        return (FEATURES_MAGIC
                + struct.pack("<IB3xI", VERSION, REPRESENTATIONS.index(self.representation),
                              len(self.item_shape))
                + struct.pack(f"<{len(self.item_shape)}I", *self.item_shape)
                + struct.pack("<I", self.count))

    @property
    def offset(self) -> int:
        """Bytes before the first row."""
        return 20 + 4 * len(self.item_shape)

    @property
    def row_bytes(self) -> int:
        return 8 * math.prod(self.item_shape)


_FEATURES_HEADER_MAX = FeatureLayout("dwt", (1,) * MAX_NDIM, 0).offset   # the longest header


def dump_features(features: np.ndarray, representation: str, header: bool = True):
    """An FTR1 file's bytes for the stacked features: the header, then the
    rows.  header=False gives the rows alone, to write after a header written
    for the whole file, as a contiguous `<f8` array (bytes-like; no copy of
    an input that already is one)."""
    feats = np.ascontiguousarray(features, dtype="<f8")
    if feats.ndim < 2:
        raise DataError("features must be stacked with items along axis 0")
    if not header:
        return feats
    return FeatureLayout(representation, feats.shape[1:], len(feats)).header + feats.tobytes()


def _features_layout(data: bytes, size: int) -> FeatureLayout:
    """The layout of the FTR1 header at the start of data, checked against
    the size in bytes of the whole file."""
    if data[:4] != FEATURES_MAGIC:
        raise DataError(f"bad feature-cache magic {data[:4]!r}")
    (version, tag, ndim), pos = unpack_header("<IB3xI", data, 4, "feature cache")
    if version != VERSION:
        raise DataError(f"unsupported feature-cache version {version}")
    if tag >= len(REPRESENTATIONS):
        raise DataError(f"unknown representation tag {tag}")
    if ndim >= MAX_NDIM:
        raise DataError(f"feature cache declares {ndim} axes per item")
    shape, pos = unpack_header(f"<{ndim}I", data, pos, "feature cache")
    (count,), pos = unpack_header("<I", data, pos, "feature cache")
    if not all(shape):
        raise DataError(f"feature cache declares empty items of shape {shape}")
    check_shape((count, *shape), "feature cache")
    layout = FeatureLayout(REPRESENTATIONS[tag], shape, count)
    expected = layout.offset + layout.row_bytes * count
    if size != expected:
        raise DataError(f"feature cache truncated: {size} bytes, expected {expected}")
    return layout


def read_features_layout(f: BinaryIO) -> FeatureLayout:
    """The checked layout of the FTR1 file open for reading in f."""
    size = os.fstat(f.fileno()).st_size
    f.seek(0)
    return _features_layout(f.read(_FEATURES_HEADER_MAX), size)


def read_feature_rows(f: BinaryIO, layout: FeatureLayout, lo: int, hi: int) -> bytearray:
    """The bytes of rows lo..hi-1 of an FTR1 file, read into a buffer of
    their own: a block costs its own size, never the file's."""
    f.seek(layout.offset + lo * layout.row_bytes)
    data = bytearray((hi - lo) * layout.row_bytes)
    if f.readinto(data) != len(data):
        raise DataError("feature cache shrank while it was read")
    return data


def load_features(data, layout: FeatureLayout | None = None) -> tuple[np.ndarray, str]:
    """Decode FTR1 bytes: a whole file, or, given the layout read from a
    file's header, whole rows read from it.  The array is a view of data."""
    if layout is None:
        layout = _features_layout(data, len(data))
        data = memoryview(data)[layout.offset:]
    if len(data) % layout.row_bytes:
        raise DataError(f"{len(data)} bytes are not whole feature rows of {layout.row_bytes}")
    feats = np.frombuffer(data, dtype="<f8").reshape(-1, *layout.item_shape)
    return feats, layout.representation
