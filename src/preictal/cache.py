"""Chunked binary caches for segment sets and feature tensors.

Both formats are little-endian with a fixed header followed by one chunk per
item; byte layouts are documented in docs/formats.md.  The rows of either
have a fixed stride, so each block of rows can be written or read at its own
offset, and neither a long record's segments nor its feature tensor is ever
resident whole.
"""
from __future__ import annotations

import math
import os
import struct
from typing import BinaryIO, NamedTuple

import numpy as np

from .blocks import row_blocks
from .errors import ConfigError, DataError
from .features import REPRESENTATIONS
from .nn.params_io import MAX_NDIM, check_shape, unpack_header
from .preprocess import Phase, SegmentationConfig, SegmentIndex, SegmentSet

SEGMENTS_MAGIC = b"ESG1"
FEATURES_MAGIC = b"FTR1"
VERSION = 1
INDEX_BLOCK_BYTES = 1 << 19   # load_segment_index reads rows in blocks of about this size


def _segment_dtype(window: int) -> np.dtype:
    """One ESG1 chunk: start sample, phase byte, 7 pad bytes, then the samples."""
    return np.dtype([("start", "<i8"), ("phase", "u1"), ("pad", "V7"),
                     ("samples", "<f8", (window,))])


class SegmentLayout(NamedTuple):
    """What an ESG1 header declares: the segmentation and the number of
    rows (one chunk per segment)."""
    config: SegmentationConfig
    count: int

    what = "segment cache"
    offset = 24   # bytes before the first row

    @property
    def row_bytes(self) -> int:
        return 16 + 8 * self.config.window_samples


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


def _segments_layout(data: bytes, size: int) -> SegmentLayout:
    """The layout of the ESG1 header at the start of data, checked against
    the size in bytes of the whole file."""
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
    layout = SegmentLayout(cfg, count)
    expected = layout.offset + count * layout.row_bytes
    if size != expected:
        raise DataError(f"segment cache truncated: {size} bytes, expected {expected}")
    return layout


def _segment_rows(data, layout: SegmentLayout) -> np.ndarray:
    """Whole ESG1 rows as a structured view of data, their phases checked."""
    if len(data) % layout.row_bytes:
        raise DataError(f"{len(data)} bytes are not whole segment rows of {layout.row_bytes}")
    body = np.frombuffer(data, _segment_dtype(layout.config.window_samples))
    if np.any(body["phase"] > max(Phase)):
        raise DataError(f"segment cache holds a phase outside 0..{max(Phase):d}")
    return body


def read_segments_layout(f: BinaryIO) -> SegmentLayout:
    """The checked layout of the ESG1 file open for reading in f."""
    return _segments_layout(*_head(f, SegmentLayout.offset))


def load_segments(data, layout: SegmentLayout | None = None) -> SegmentSet:
    """Decode ESG1 bytes: a whole file, or, given the layout read from a
    file's header, whole rows read from it."""
    if layout is None:
        layout = _segments_layout(data, len(data))
        data = memoryview(data)[layout.offset:]
    body = _segment_rows(data, layout)
    return SegmentSet(body["samples"], body["start"], body["phase"], layout.config)


def load_segment_index(f: BinaryIO) -> SegmentIndex:
    """The start samples, phases and segmentation of the ESG1 file open for
    reading in f, with every check of `load_segments`.  It reads the rows in
    blocks of about INDEX_BLOCK_BYTES and keeps only those two fields."""
    layout = read_segments_layout(f)
    starts, phases = np.empty(layout.count, np.int64), np.empty(layout.count, np.int8)
    for lo, hi in row_blocks(layout.count, max(1, INDEX_BLOCK_BYTES // layout.row_bytes)):
        body = _segment_rows(read_rows(f, layout, lo, hi), layout)
        starts[lo:hi], phases[lo:hi] = body["start"], body["phase"]
    return SegmentIndex(starts, phases, layout.config)


class FeatureLayout(NamedTuple):
    """What an FTR1 header declares: the representation, the shape of one
    row (one segment's feature tensor) and the number of rows."""
    representation: str
    item_shape: tuple[int, ...]
    count: int

    what = "feature cache"

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


def _head(f: BinaryIO, size: int) -> tuple[bytes, int]:
    """The first size bytes of the file open for reading in f, and the size
    in bytes of the whole file."""
    whole = f.seek(0, os.SEEK_END)
    f.seek(0)
    return f.read(size), whole


def read_features_layout(f: BinaryIO) -> FeatureLayout:
    """The checked layout of the FTR1 file open for reading in f."""
    return _features_layout(*_head(f, _FEATURES_HEADER_MAX))


def read_rows(f: BinaryIO, layout: SegmentLayout | FeatureLayout, lo: int, hi: int) -> bytearray:
    """The bytes of rows lo..hi-1 of an ESG1 or FTR1 file, read into a
    buffer of their own: a block costs its own size, never the file's."""
    f.seek(layout.offset + lo * layout.row_bytes)
    data = bytearray((hi - lo) * layout.row_bytes)
    if f.readinto(data) != len(data):
        raise DataError(f"{layout.what} shrank while it was read")
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
