"""Binary parameter files: magic, version, architecture tag, per-array shape
table, then raw little-endian float64 data.  Layout documented in
docs/formats.md."""
from __future__ import annotations

import math
import struct

import numpy as np

from ..errors import DataError

MAGIC = b"MDL1"
VERSION = 1
MAX_NDIM = 32   # numpy arrays hold at most 64 axes


def dump_arrays(arrays: dict[str, np.ndarray], arch_tag: str) -> bytes:
    out = [MAGIC, struct.pack("<I", VERSION)]
    tag = arch_tag.encode("utf-8")
    out.append(struct.pack("<H", len(tag)))
    out.append(tag)
    out.append(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        raw = name.encode("utf-8")
        out.append(struct.pack("<H", len(raw)))
        out.append(raw)
        out.append(struct.pack("<B", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    for arr in arrays.values():
        out.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(out)


def unpack_header(fmt: str, data: bytes, pos: int, what: str) -> tuple[tuple, int]:
    """struct.unpack_from(fmt, data, pos) and the position after it; DataError
    when data ends first."""
    end = pos + struct.calcsize(fmt)
    if end > len(data):
        raise DataError(f"{what} truncated in its header: {len(data)} bytes, need {end}")
    return struct.unpack_from(fmt, data, pos), end


def check_shape(shape: tuple[int, ...], what: str):
    """DataError unless numpy can hold a float64 array of this shape; numpy
    refuses one whose non-zero axes overflow even when another axis is 0."""
    if 8 * math.prod(n for n in shape if n) > np.iinfo(np.intp).max:
        raise DataError(f"{what} declares shape {shape}, too big for an array")


def _unpack_name(data: bytes, pos: int) -> tuple[str, int]:
    (length,), pos = unpack_header("<H", data, pos, "parameter file")
    if pos + length > len(data):
        raise DataError("parameter file truncated in a name")
    try:
        return data[pos:pos + length].decode("utf-8"), pos + length
    except UnicodeDecodeError as exc:
        raise DataError(f"parameter file holds a name that is not UTF-8: {exc}") from exc


def load_arrays(data: bytes) -> tuple[str, dict[str, np.ndarray]]:
    if data[:4] != MAGIC:
        raise DataError(f"bad parameter-file magic {data[:4]!r}")
    (version,), pos = unpack_header("<I", data, 4, "parameter file")
    if version != VERSION:
        raise DataError(f"unsupported parameter-file version {version}")
    arch_tag, pos = _unpack_name(data, pos)
    (count,), pos = unpack_header("<I", data, pos, "parameter file")
    shapes: list[tuple[str, tuple[int, ...]]] = []
    for _ in range(count):
        name, pos = _unpack_name(data, pos)
        (ndim,), pos = unpack_header("<B", data, pos, "parameter file")
        if ndim > MAX_NDIM:
            raise DataError(f"array {name!r} declares {ndim} axes")
        shape, pos = unpack_header(f"<{ndim}I", data, pos, "parameter file")
        check_shape(shape, f"array {name!r}")
        shapes.append((name, shape))
    arrays = {}
    for name, shape in shapes:
        end = pos + 8 * math.prod(shape)
        if end > len(data):
            raise DataError(f"parameter file truncated in array {name!r}")
        arrays[name] = np.frombuffer(data[pos:end], dtype="<f8").reshape(shape).copy()
        pos = end
    if pos != len(data):
        raise DataError(f"{len(data) - pos} trailing bytes after parameter arrays")
    return arch_tag, arrays

