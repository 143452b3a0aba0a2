"""Text formats: `time_s,mv` sample CSV and `onset_s,offset_s,type` annotation CSV."""
from __future__ import annotations

import csv
import hashlib
import io
import itertools
import os
import warnings
from typing import BinaryIO, Callable, Iterator

import numpy as np

from ..errors import DataError
from .records import EcgRecord, SeizureAnnotation, SeizureType, validate_annotations

RECORD_HEADER = ("time_s", "mv")
ANNOTATION_HEADER = ("onset_s", "offset_s", "type")

# per-row sample spacing may deviate at most this much from the median step
MAX_DT_DEVIATION = 0.01
# parse_csv reads a record in blocks of about this many bytes
BLOCK_BYTES = 1 << 19
MIN_ROW_BYTES = 4   # "0,0\n": no shorter line holds a sample
SERIALIZE_ROWS = 1 << 16   # serialize_csv formats this many rows per call


class RecordFile:
    """A record file open for reading, which parse_csv reads in blocks.
    `sha256` digests the bytes read since the file's start; len() is the
    file's size."""

    def __init__(self, f: BinaryIO):
        self._f, self.sha256 = f, hashlib.sha256()

    def __len__(self) -> int:
        return os.fstat(self._f.fileno()).st_size

    def read(self, size: int = -1) -> bytes:
        data = self._f.read(size)
        self.sha256.update(data)
        return data

    def reread(self) -> bytes:
        """The whole file, read and digested anew from its start."""
        self._f.seek(0)
        self.sha256 = hashlib.sha256()
        return self.read()


def _rows(text: str, expected_header: tuple[str, ...]) -> list[list[str]]:
    try:
        rows = [r for r in csv.reader(io.StringIO(text)) if r and any(c.strip() for c in r)]
    except csv.Error as exc:   # e.g. a field past the csv module's 131,072-character limit
        raise DataError(f"malformed CSV: {exc}") from exc
    if rows and tuple(c.strip().lower() for c in rows[0]) == expected_header:
        rows = rows[1:]
    return rows


def _first_data_line(data: bytes) -> int | None:
    """The index of the first line that holds samples, or None if none does.

    Blank lines are skipped, and so is a `time_s,mv` header on the first
    non-blank line: its cells compare stripped, lower-cased and unquoted.
    """
    header_seen = False
    for n, line in enumerate(io.BytesIO(data)):
        if not line.rstrip(b"\r\n"):
            continue
        if header_seen or tuple(c.replace('"', "").strip().lower()
                                for c in line.decode().split(",")) != RECORD_HEADER:
            return n
        header_seen = True
    return None


def _load_rows(data: bytes, skiprows: int = 0) -> np.ndarray:
    return np.loadtxt(io.BytesIO(data), dtype=np.float64, delimiter=",", comments=None,
                      quotechar='"', usecols=(0, 1), skiprows=skiprows, ndmin=2,
                      encoding="utf-8")


def _rejected_line(data: bytes, start: int) -> tuple[int, bytes]:
    """The 1-based number and the bytes of the first line from index start
    that the reader rejects.  It halves the line range with the same reader
    call, so only the error path pays for it."""
    newlines = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
    edges = np.concatenate(([0], newlines + 1, [len(data)]))   # line i: edges[i]:edges[i + 1]
    lo, hi = start, len(edges) - 1   # the rejected line is one of lo..hi-1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            with warnings.catch_warnings():   # a run of empty lines holds no data
                warnings.simplefilter("ignore")
                _load_rows(data[edges[lo]:edges[mid]])
            lo = mid
        except (ValueError, UnicodeDecodeError):
            hi = mid
    return lo + 1, data[edges[lo]:edges[lo + 1]]


def _row_line(data: bytes, start: int, row: int) -> int:
    """The 1-based file line of data row `row` (from 0) of a record read from
    line index start: the reader skips empty lines."""
    lines = (n for n, line in enumerate(io.BytesIO(data))
             if n >= start and line.rstrip(b"\r\n"))
    return next(itertools.islice(lines, row, None)) + 1


def _blocks(read: Callable[[int], bytes]) -> Iterator[bytes]:
    """What read(BLOCK_BYTES) returns until it returns nothing, in blocks
    that each end at a line break, the last at the end of the input.  A
    quote may open a cell that holds a line break, so at the first quote
    it raises ValueError, and the input is then parsed whole."""
    parts = []   # what was read since the last line break
    while chunk := read(BLOCK_BYTES):
        if b'"' in chunk:
            raise ValueError("a quoted cell may hold a line break")
        if cut := chunk.rfind(b"\n") + 1:
            block = b"".join((*parts, memoryview(chunk)[:cut]))
            parts = [chunk[cut:]]
            del chunk   # while a block is parsed, its bytes are held once
            yield block
        else:
            parts.append(chunk)
    if block := b"".join(parts):
        yield block


def _first_bad_row(values: np.ndarray) -> int | None:
    """The index of the first row of values that holds a non-finite value."""
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    return int(bad[0]) if len(bad) else None


def _block_columns(blocks: Iterator[bytes], size: int
                   ) -> tuple[np.ndarray, np.ndarray, int | None] | None:
    """The mv column, the time steps between rows and the first row with a
    non-finite value (or None) of a CSV of size bytes read in blocks; None
    if the reader rejects a block or no line holds samples: the whole-file
    parse then names the error.  It keeps the mv column and the time steps,
    not the rows.  Each is written in place into an array with room for
    every row that size bytes can hold, of which only the pages written
    become resident, and is cut to the rows read at the end."""
    mv, dt = np.empty(size // MIN_ROW_BYTES + 1), np.empty(size // MIN_ROW_BYTES + 1)
    head, start, rows, last, bad = b"", None, 0, 0.0, None
    try:
        with warnings.catch_warnings():   # a block of blank lines holds no data
            warnings.simplefilter("ignore")
            for block in blocks:
                if start is None:   # blank lines and the header may fill blocks
                    head += block
                    if (start := _first_data_line(head)) is None:
                        continue
                    block, head = head, b""
                values = _load_rows(block, skiprows=start)
                del block   # neither it nor its rows are held while the next is read
                start, end, t = 0, rows + len(values), values[:, 0]
                if end == rows:
                    continue
                if bad is None and (row := _first_bad_row(values)) is not None:
                    bad = rows + row
                if end > len(mv):   # the file grew while it was read
                    mv.resize(end, refcheck=False)
                    dt.resize(end, refcheck=False)
                mv[rows:end] = values[:, 1]
                np.subtract(t[1:], t[:-1], out=dt[rows:end - 1])   # dt[i] = t[i + 1] - t[i]
                if rows:
                    dt[rows - 1] = t[0] - last
                rows, last = end, t[-1]
                del values, t
    except ValueError:   # a UnicodeDecodeError too
        return None
    if start is None:
        return None
    mv.resize(rows, refcheck=False)   # shrinking frees the unused tail in place
    dt.resize(max(rows - 1, 0), refcheck=False)
    return mv, dt, bad


def _record(mv: np.ndarray, dt: np.ndarray, bad: int | None, patient_id: str,
            row_error: Callable[[int | None, float | None], EcgRecord]) -> EcgRecord:
    """The record of the mv column, after the checks that follow reading:
    dt holds the time steps between rows, which the checks overwrite, and
    bad the first row with a non-finite value (or None).  A failed check
    that names a row returns row_error(bad row or None, median step or
    None), which raises the error with the row's line (or parses anew an
    input that changed since it was read)."""
    if bad is not None:
        return row_error(bad, None)
    if len(mv) < 2:
        raise DataError("record CSV needs at least two rows to infer a sampling rate")
    # reductions, not masks: every step is finite here
    if dt.min() <= 0:
        raise DataError("record CSV time column must be strictly increasing")
    step = float(np.median(dt, overwrite_input=True))   # reorders dt
    dt -= step
    if np.abs(dt, out=dt).max() > MAX_DT_DEVIATION * step:
        return row_error(None, step)
    rate = 1.0 / step
    if not 0.5 < rate < 2 ** 31:
        raise DataError(f"inferred sampling rate {rate:.6g} Hz does not round to a positive integer")
    return EcgRecord(patient_id=patient_id, sampling_rate_hz=round(rate), samples=mv)


def parse_csv(data: bytes | str | RecordFile, patient_id: str = "unknown") -> EcgRecord:
    """Parse a UTF-8 `time_s,mv` CSV with uniform sampling.

    The rate is inferred as round(1/median_step); rows whose step deviates
    more than 1% from the median are rejected as non-uniform.  An error that
    points at a row names its 1-based line in the file.

    The input is read and parsed in blocks of about BLOCK_BYTES, so a
    RecordFile is never resident whole.  If the reader rejects a block, or
    the input holds a quote, it is read whole again and parsed in one reader
    call; so is it when a check that names a row fails after reading.
    """
    if isinstance(data, str):   # a lone surrogate becomes bytes that fail to decode below
        data = data.encode(errors="surrogatepass")
    if isinstance(data, bytes):
        read, whole = io.BytesIO(data).read, lambda: data
    else:
        read, whole = data.read, data.reread
    columns = _block_columns(_blocks(read), len(data))
    if columns is None:
        return _parse_whole(whole(), patient_id)
    return _record(*columns, patient_id, lambda *_: _parse_whole(whole(), patient_id))


def _parse_whole(data: bytes, patient_id: str) -> EcgRecord:
    """parse_csv over the whole input in one reader call: the reference that
    names a rejected line."""
    try:
        start = _first_data_line(data)
        if start is None:
            raise DataError("empty record CSV")
        values = _load_rows(data, skiprows=start)
    except UnicodeDecodeError as exc:   # exc.object is the line that failed
        line = data.count(b"\n", 0, data.find(exc.object)) + 1
        raise DataError(f"record file is not UTF-8 at line {line}: {exc}") from exc
    except ValueError as exc:
        line, text = _rejected_line(data, start)
        text = text.rstrip(b"\r\n")[:80]
        raise DataError(f"record CSV has a malformed row at line {line}: {text!r}") from exc

    def row_error(bad: int | None, step: float | None):
        if bad is not None:
            raise DataError(f"record CSV line {_row_line(data, start, bad)} holds a "
                            "non-finite value")
        dt = np.diff(values[:, 0])
        worst = int(np.argmax(np.abs(dt - step)))
        raise DataError(
            f"non-uniform sampling: step {dt[worst]:.6g}s to line "
            f"{_row_line(data, start, worst + 1)} deviates >1% from median {step:.6g}s"
        )

    return _record(values[:, 1], np.diff(values[:, 0]), _first_bad_row(values), patient_id,
                   row_error)


def serialize_csv(record: EcgRecord) -> str:
    """Serialize with 17 significant digits so parse_csv round-trips bit-exactly."""
    fs, n = record.sampling_rate_hz, len(record.samples)
    parts = [",".join(RECORD_HEADER) + "\n"]
    for lo in range(0, n, SERIALIZE_ROWS):   # one % per block of rows
        rows = np.empty((min(SERIALIZE_ROWS, n - lo), 2))
        rows[:, 0] = np.arange(lo, lo + len(rows)) / fs   # i / fs, as Python divides ints
        rows[:, 1] = record.samples[lo:lo + len(rows)]
        parts.append(("%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist()))
    return "".join(parts)


def load_annotations(text: str) -> list[SeizureAnnotation]:
    """Parse the `onset_s,offset_s,type` sidecar into a sorted, validated list."""
    rows = _rows(text, ANNOTATION_HEADER)
    annotations = []
    for i, row in enumerate(rows):
        if len(row) < 2:
            raise DataError(f"annotation row {i + 1} needs onset and offset")
        try:
            onset, offset = float(row[0]), float(row[1])
        except ValueError as exc:
            raise DataError(f"annotation row {i + 1} is not numeric: {row}") from exc
        kind = SeizureType.OTHER
        if len(row) >= 3 and row[2].strip():
            try:
                kind = SeizureType(row[2].strip().upper())
            except ValueError as exc:
                raise DataError(f"annotation row {i + 1}: unknown seizure type {row[2]!r}") from exc
        annotations.append(SeizureAnnotation(onset_s=onset, offset_s=offset, seizure_type=kind))
    validate_annotations(annotations)
    return annotations


def serialize_annotations(annotations: list[SeizureAnnotation]) -> str:
    lines = [",".join(ANNOTATION_HEADER)]
    for ann in annotations:
        lines.append(f"{ann.onset_s:.17g},{ann.offset_s:.17g},{ann.seizure_type.value}")
    return "\n".join(lines) + "\n"
