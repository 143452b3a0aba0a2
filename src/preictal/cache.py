"""Chunked binary caches for segment sets and feature tensors.

Both formats are little-endian with a fixed header followed by one chunk per
item; byte layouts are documented in docs/formats.md.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ConfigError, DataError
from .features import REPRESENTATIONS
from .nn.params_io import MAX_NDIM, check_shape, unpack_header
from .preprocess import Phase, SegmentationConfig, SegmentSet

SEGMENTS_MAGIC = b"ESG1"
FEATURES_MAGIC = b"FTR1"
VERSION = 1


def _segment_dtype(window: int) -> np.dtype:
    """One ESG1 chunk: start sample, phase byte, 7 pad bytes, then the samples."""
    return np.dtype([("start", "<i8"), ("phase", "u1"), ("pad", "V7"),
                     ("samples", "<f8", (window,))])


def dump_segments(segments: SegmentSet) -> bytes:
    cfg = segments.config
    head = SEGMENTS_MAGIC + struct.pack(
        "<IIIII", VERSION, cfg.sampling_rate_hz, cfg.window_samples,
        cfg.hop_samples, len(segments))
    body = np.zeros(len(segments), _segment_dtype(cfg.window_samples))
    body["start"], body["phase"], body["samples"] = (
        segments.start_samples, segments.phases, segments.samples)
    return b"".join((head, body))


def load_segments(data: bytes) -> SegmentSet:
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
    return SegmentSet(body["samples"], body["start"], body["phase"], cfg)


def dump_features(features: np.ndarray, representation: str) -> bytes:
    if representation not in REPRESENTATIONS:
        raise DataError(f"unknown representation {representation!r}")
    feats = np.ascontiguousarray(features, dtype="<f8")
    if feats.ndim < 2:
        raise DataError("features must be stacked with items along axis 0")
    item_shape = feats.shape[1:]
    head = FEATURES_MAGIC + struct.pack("<IB3xI", VERSION, REPRESENTATIONS.index(representation),
                                        len(item_shape))
    head += struct.pack(f"<{len(item_shape)}I", *item_shape)
    head += struct.pack("<I", feats.shape[0])
    return head + feats.tobytes()


def load_features(data: bytes) -> tuple[np.ndarray, str]:
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
    check_shape((count, *shape), "feature cache")
    expected = pos + 8 * math.prod(shape) * count
    if len(data) != expected:
        raise DataError(f"feature cache truncated: {len(data)} bytes, expected {expected}")
    feats = np.frombuffer(data, dtype="<f8", offset=pos).reshape(count, *shape).copy()
    return feats, REPRESENTATIONS[tag]
