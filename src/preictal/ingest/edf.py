"""Minimal EDF reader/writer for continuous single-channel extraction.

Supports the plain-EDF subset used by clinical ECG exports: ASCII headers,
16-bit little-endian samples, identical samples-per-record for every data
record, one selected channel.  EDF+ discontinuities and TAL annotation
channels are out of scope.  Field offsets follow the public EDF standard;
see docs/formats.md for the byte layout.
"""
from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import DataError, NumericError
from .records import EcgRecord

MAIN_HEADER_BYTES = 256
SIGNAL_HEADER_BYTES = 256


def _width(n: int):
    """A header field of n ASCII bytes; its declared type parses and formats it."""
    return field(metadata={"width": n})


# The two header blocks, each field in file order with its byte width.
@dataclass
class EdfSignalHeader:
    label: str = _width(16)
    transducer: str = _width(80)
    physical_dim: str = _width(8)
    physical_min: float = _width(8)
    physical_max: float = _width(8)
    digital_min: int = _width(8)
    digital_max: int = _width(8)
    prefiltering: str = _width(80)
    samples_per_record: int = _width(8)
    reserved: str = _width(32)


@dataclass
class EdfHeader:
    version: str = _width(8)
    patient_id: str = _width(80)
    recording_id: str = _width(80)
    start_date: str = _width(8)
    start_time: str = _width(8)
    header_bytes: int = _width(8)
    reserved: str = _width(44)
    n_records: int = _width(8)
    record_duration_s: float = _width(8)
    n_signals: int = _width(4)
    signals: list[EdfSignalHeader] = field(default_factory=list)


def _layout(cls) -> list:
    return [f for f in fields(cls) if "width" in f.metadata]


def _unpack(cls, data: bytes, pos: int, count: int) -> list:
    """`count` headers of `cls` stored from `pos` as EDF does: one field for
    all `count` headers, then the next field."""
    headers = [{} for _ in range(count)]
    for f in _layout(cls):
        width = f.metadata["width"]
        for i, header in enumerate(headers):
            raw = data[pos + i * width:pos + (i + 1) * width]
            try:
                text = raw.decode("ascii").strip()
            except UnicodeDecodeError as exc:
                raise DataError(f"EDF header field '{f.name}' is not ASCII") from exc
            try:
                header[f.name] = f.type(text)
            except ValueError as exc:
                raise DataError(f"EDF header field '{f.name}' is not "
                                f"{'an integer' if f.type is int else 'a number'}: "
                                f"{text!r}") from exc
        pos += count * width
    return [cls(**header) for header in headers]


def _pack(headers: list) -> bytes:
    """The inverse of _unpack: the headers' fields, one field at a time."""
    out = []
    for f in _layout(type(headers[0])):
        width = f.metadata["width"]
        for header in headers:
            value = getattr(header, f.name)
            text = _format_number(value, width, f.name) if f.type is float else str(value)
            if not text.isascii() or len(text) > width:
                raise DataError(f"EDF field '{f.name}' value {text!r} is not ASCII "
                                f"of at most {width} bytes")
            out.append(text.encode("ascii").ljust(width))
    return b"".join(out)


def parse_edf_header(data: bytes) -> EdfHeader:
    """Parse the 256-byte main header and the per-signal header block."""
    if len(data) < MAIN_HEADER_BYTES:
        raise DataError(f"EDF file too short for main header ({len(data)} < {MAIN_HEADER_BYTES} bytes)")
    header = _unpack(EdfHeader, data, 0, 1)[0]
    n_signals = header.n_signals
    if n_signals <= 0:
        raise DataError(f"EDF must declare at least one signal, got {n_signals}")
    expected = MAIN_HEADER_BYTES + n_signals * SIGNAL_HEADER_BYTES
    if header.header_bytes != expected:
        raise DataError(f"EDF header_bytes field is {header.header_bytes}, expected {expected} "
                        f"for {n_signals} signal(s)")
    if len(data) < expected:
        raise DataError("EDF file truncated inside signal headers")
    header.signals = _unpack(EdfSignalHeader, data, MAIN_HEADER_BYTES, n_signals)
    counts = [s.samples_per_record for s in header.signals]
    if min(counts) < 0:
        raise DataError(f"EDF signal {counts.index(min(counts))} declares a negative "
                        f"samples_per_record ({min(counts)})")
    return header


def parse_edf(data: bytes, channel_name: str) -> EcgRecord:
    """Extract one channel as an EcgRecord with physical scaling applied.

    physical = phys_min + (digital - dig_min) * (phys_max - phys_min)
                                              / (dig_max - dig_min)
    """
    header = parse_edf_header(data)
    labels = [s.label for s in header.signals]
    if channel_name not in labels:
        raise DataError(f"channel {channel_name!r} not in EDF (available: {labels})")
    ch = labels.index(channel_name)
    sig = header.signals[ch]

    if sig.digital_max == sig.digital_min:
        raise NumericError(
            f"channel {channel_name!r} has degenerate digital range "
            f"[{sig.digital_min}, {sig.digital_max}]"
        )
    if header.n_records < 0:
        raise DataError("EDF with unknown record count (-1) is not supported")
    if not header.record_duration_s > 0:   # also rejects nan
        raise DataError(f"non-positive data record duration {header.record_duration_s}")

    fs = sig.samples_per_record / header.record_duration_s
    if not 0 < fs < 2 ** 31 or abs(fs - round(fs)) > 1e-9:
        raise DataError(
            f"channel {channel_name!r}: samples_per_record/duration = {fs} is not an integer rate"
        )

    counts = [s.samples_per_record for s in header.signals]
    per_record, first = sum(counts), sum(counts[:ch])
    record_bytes = 2 * per_record
    body_bytes = len(data) - header.header_bytes
    if body_bytes < header.n_records * record_bytes:
        short = body_bytes // record_bytes
        raise DataError(f"EDF data record {short} truncated "
                        f"({body_bytes - short * record_bytes} of {record_bytes} bytes)")
    # one view of the data records; only the channel's columns are copied
    records = np.frombuffer(data, dtype="<i2", count=header.n_records * per_record,
                            offset=header.header_bytes).reshape(header.n_records, per_record)
    physical = records[:, first:first + sig.samples_per_record].astype(np.float64).ravel()
    physical -= sig.digital_min
    physical *= (sig.physical_max - sig.physical_min) / (sig.digital_max - sig.digital_min)
    physical += sig.physical_min

    return EcgRecord(
        patient_id=header.patient_id or "unknown",
        sampling_rate_hz=int(round(fs)),
        samples=physical,
    )


def _format_number(value: float, width: int, name: str) -> str:
    """Shortest decimal form that fits the field and parses back equal."""
    if value == int(value):
        text = str(int(value))
    else:
        text = repr(float(value))
        for digits in range(width, 0, -1):
            if len(text) <= width:
                break
            text = f"{value:.{digits}g}"
    if len(text) > width or float(text) != value:
        raise DataError(f"EDF field '{name}' cannot represent {value!r} in {width} chars")
    return text


def write_edf(record: EcgRecord, *, channel_label: str = "ECG", physical_dim: str = "mV",
              physical_min: float = -5.0, physical_max: float = 5.0,
              digital_min: int = -32768, digital_max: int = 32767,
              record_duration_s: float = 1.0, start_date: str = "01.01.01",
              start_time: str = "00.00.00", recording_id: str = "") -> bytes:
    """Serialize a record as single-channel EDF (quantizing to the digital range).

    Intended for fixtures and round-trip checks; samples are clipped to the
    physical range and quantized, so reading back is exact only to one
    digital step.
    """
    fs = record.sampling_rate_hz
    spr = int(round(fs * record_duration_s))
    if spr <= 0 or abs(spr - fs * record_duration_s) > 1e-9:
        raise DataError(f"record_duration_s {record_duration_s} does not give integer samples at {fs} Hz")
    n_full = len(record.samples) // spr
    if n_full == 0:
        raise DataError("record shorter than one data record")
    if digital_max == digital_min:
        raise NumericError("degenerate digital range")

    scale = (physical_max - physical_min) / (digital_max - digital_min)
    clipped = np.clip(record.samples[:n_full * spr], physical_min, physical_max)
    digital = np.round((clipped - physical_min) / scale).astype(np.int64) + digital_min
    digital = np.clip(digital, digital_min, digital_max).astype("<i2")

    signal = EdfSignalHeader(
        label=channel_label, transducer="", physical_dim=physical_dim,
        physical_min=physical_min, physical_max=physical_max,
        digital_min=digital_min, digital_max=digital_max, prefiltering="",
        samples_per_record=spr, reserved="")
    header = EdfHeader(
        version="0", patient_id=record.patient_id, recording_id=recording_id,
        start_date=start_date, start_time=start_time,
        header_bytes=MAIN_HEADER_BYTES + SIGNAL_HEADER_BYTES, reserved="",
        n_records=n_full, record_duration_s=record_duration_s, n_signals=1, signals=[signal])
    return _pack([header]) + _pack(header.signals) + digital.tobytes()
