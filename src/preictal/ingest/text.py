"""Text formats: `time_s,mv` sample CSV and `onset_s,offset_s,type` annotation CSV."""
from __future__ import annotations

import csv
import io
import itertools
import warnings

import numpy as np

from ..errors import DataError
from .records import EcgRecord, SeizureAnnotation, SeizureType, validate_annotations

RECORD_HEADER = ("time_s", "mv")
ANNOTATION_HEADER = ("onset_s", "offset_s", "type")

# per-row sample spacing may deviate at most this much from the median step
MAX_DT_DEVIATION = 0.01


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


def parse_csv(data: bytes | str, patient_id: str = "unknown") -> EcgRecord:
    """Parse a UTF-8 `time_s,mv` CSV with uniform sampling.

    The rate is inferred as round(1/median_step); rows whose step deviates
    more than 1% from the median are rejected as non-uniform.  An error that
    points at a row names its 1-based line in the file.
    """
    if isinstance(data, str):   # a lone surrogate becomes bytes that fail to decode below
        data = data.encode(errors="surrogatepass")
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
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if len(bad):
        raise DataError(f"record CSV line {_row_line(data, start, bad[0])} "
                        f"holds a non-finite value")
    t, mv = values[:, 0], values[:, 1]
    if len(t) < 2:
        raise DataError("record CSV needs at least two rows to infer a sampling rate")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise DataError("record CSV time column must be strictly increasing")
    step = float(np.median(dt))
    if np.any(np.abs(dt - step) > MAX_DT_DEVIATION * step):
        worst = int(np.argmax(np.abs(dt - step)))
        raise DataError(
            f"non-uniform sampling: step {dt[worst]:.6g}s to line "
            f"{_row_line(data, start, worst + 1)} "
            f"deviates >1% from median {step:.6g}s"
        )
    rate = 1.0 / step
    if not 0.5 < rate < 2 ** 31:
        raise DataError(f"inferred sampling rate {rate:.6g} Hz does not round to a positive integer")
    return EcgRecord(patient_id=patient_id, sampling_rate_hz=round(rate), samples=mv)


def serialize_csv(record: EcgRecord) -> str:
    """Serialize with 17 significant digits so parse_csv round-trips bit-exactly."""
    fs = record.sampling_rate_hz
    lines = [",".join(RECORD_HEADER)]
    for i, v in enumerate(record.samples):
        lines.append(f"{i / fs:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"


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
