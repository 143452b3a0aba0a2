"""Minimal EDF reader/writer for continuous single-channel extraction.

Supports the plain-EDF subset used by clinical ECG exports: ASCII headers,
16-bit little-endian samples, identical samples-per-record for every data
record, one selected channel.  EDF+ discontinuities and TAL annotation
channels are out of scope.  Field offsets follow the public EDF standard;
see docs/formats.md for the byte layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, NumericError
from .records import EcgRecord

MAIN_HEADER_BYTES = 256
SIGNAL_HEADER_BYTES = 256

# (name, width) in file order
_MAIN_FIELDS = [
    ("version", 8),
    ("patient_id", 80),
    ("recording_id", 80),
    ("start_date", 8),
    ("start_time", 8),
    ("header_bytes", 8),
    ("reserved", 44),
    ("n_records", 8),
    ("record_duration_s", 8),
    ("n_signals", 4),
]

# (name, width per signal) in file order
_SIGNAL_FIELDS = [
    ("label", 16),
    ("transducer", 80),
    ("physical_dim", 8),
    ("physical_min", 8),
    ("physical_max", 8),
    ("digital_min", 8),
    ("digital_max", 8),
    ("prefiltering", 80),
    ("samples_per_record", 8),
    ("reserved", 32),
]


@dataclass
class EdfSignalHeader:
    label: str
    transducer: str
    physical_dim: str
    physical_min: float
    physical_max: float
    digital_min: int
    digital_max: int
    prefiltering: str
    samples_per_record: int


@dataclass
class EdfHeader:
    version: str
    patient_id: str
    recording_id: str
    start_date: str
    start_time: str
    header_bytes: int
    n_records: int
    record_duration_s: float
    signals: list[EdfSignalHeader]


def _ascii_field(raw: bytes, name: str) -> str:
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise DataError(f"EDF header field '{name}' is not ASCII") from exc
    return text.strip()


def _int_field(raw: bytes, name: str) -> int:
    text = _ascii_field(raw, name)
    try:
        return int(text)
    except ValueError as exc:
        raise DataError(f"EDF header field '{name}' is not an integer: {text!r}") from exc


def _float_field(raw: bytes, name: str) -> float:
    text = _ascii_field(raw, name)
    try:
        return float(text)
    except ValueError as exc:
        raise DataError(f"EDF header field '{name}' is not a number: {text!r}") from exc


def parse_edf_header(data: bytes) -> EdfHeader:
    """Parse the 256-byte main header and the per-signal header block."""
    if len(data) < MAIN_HEADER_BYTES:
        raise DataError(f"EDF file too short for main header ({len(data)} < {MAIN_HEADER_BYTES} bytes)")
    raw: dict[str, bytes] = {}
    pos = 0
    for name, width in _MAIN_FIELDS:
        raw[name] = data[pos:pos + width]
        pos += width

    n_signals = _int_field(raw["n_signals"], "n_signals")
    if n_signals <= 0:
        raise DataError(f"EDF must declare at least one signal, got {n_signals}")
    header_bytes = _int_field(raw["header_bytes"], "header_bytes")
    expected = MAIN_HEADER_BYTES + n_signals * SIGNAL_HEADER_BYTES
    if header_bytes != expected:
        raise DataError(f"EDF header_bytes field is {header_bytes}, expected {expected} for {n_signals} signal(s)")
    if len(data) < expected:
        raise DataError("EDF file truncated inside signal headers")

    # each signal-header field is stored for all signals consecutively
    per_signal: dict[str, list[bytes]] = {}
    for name, width in _SIGNAL_FIELDS:
        per_signal[name] = [data[pos + i * width:pos + (i + 1) * width] for i in range(n_signals)]
        pos += n_signals * width

    signals = []
    for i in range(n_signals):
        signals.append(EdfSignalHeader(
            label=_ascii_field(per_signal["label"][i], "label"),
            transducer=_ascii_field(per_signal["transducer"][i], "transducer"),
            physical_dim=_ascii_field(per_signal["physical_dim"][i], "physical_dim"),
            physical_min=_float_field(per_signal["physical_min"][i], "physical_min"),
            physical_max=_float_field(per_signal["physical_max"][i], "physical_max"),
            digital_min=_int_field(per_signal["digital_min"][i], "digital_min"),
            digital_max=_int_field(per_signal["digital_max"][i], "digital_max"),
            prefiltering=_ascii_field(per_signal["prefiltering"][i], "prefiltering"),
            samples_per_record=_int_field(per_signal["samples_per_record"][i], "samples_per_record"),
        ))

    return EdfHeader(
        version=_ascii_field(raw["version"], "version"),
        patient_id=_ascii_field(raw["patient_id"], "patient_id"),
        recording_id=_ascii_field(raw["recording_id"], "recording_id"),
        start_date=_ascii_field(raw["start_date"], "start_date"),
        start_time=_ascii_field(raw["start_time"], "start_time"),
        header_bytes=header_bytes,
        n_records=_int_field(raw["n_records"], "n_records"),
        record_duration_s=_float_field(raw["record_duration_s"], "record_duration_s"),
        signals=signals,
    )


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

    record_samples = [s.samples_per_record for s in header.signals]
    record_bytes = 2 * sum(record_samples)
    offset_in_record = 2 * sum(record_samples[:ch])
    body = data[header.header_bytes:]

    chunks = []
    for rec in range(header.n_records):
        start = rec * record_bytes
        if len(body) < start + record_bytes:
            raise DataError(f"EDF data record {rec} truncated ({len(body) - start} of {record_bytes} bytes)")
        chunk = body[start + offset_in_record:start + offset_in_record + 2 * sig.samples_per_record]
        chunks.append(np.frombuffer(chunk, dtype="<i2"))
    digital = np.concatenate(chunks).astype(np.float64) if chunks else np.empty(0)

    scale = (sig.physical_max - sig.physical_min) / (sig.digital_max - sig.digital_min)
    physical = sig.physical_min + (digital - sig.digital_min) * scale

    return EcgRecord(
        patient_id=header.patient_id or "unknown",
        sampling_rate_hz=int(round(fs)),
        samples=physical,
    )


def _pack(text: str, width: int, name: str) -> bytes:
    raw = text.encode("ascii")
    if len(raw) > width:
        raise DataError(f"EDF field '{name}' value {text!r} exceeds {width} bytes")
    return raw.ljust(width)


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

    head = b"".join([
        _pack("0", 8, "version"),
        _pack(record.patient_id, 80, "patient_id"),
        _pack(recording_id, 80, "recording_id"),
        _pack(start_date, 8, "start_date"),
        _pack(start_time, 8, "start_time"),
        _pack(str(MAIN_HEADER_BYTES + SIGNAL_HEADER_BYTES), 8, "header_bytes"),
        _pack("", 44, "reserved"),
        _pack(str(n_full), 8, "n_records"),
        _pack(_format_number(record_duration_s, 8, "record_duration_s"), 8, "record_duration_s"),
        _pack("1", 4, "n_signals"),
        _pack(channel_label, 16, "label"),
        _pack("", 80, "transducer"),
        _pack(physical_dim, 8, "physical_dim"),
        _pack(_format_number(physical_min, 8, "physical_min"), 8, "physical_min"),
        _pack(_format_number(physical_max, 8, "physical_max"), 8, "physical_max"),
        _pack(str(digital_min), 8, "digital_min"),
        _pack(str(digital_max), 8, "digital_max"),
        _pack("", 80, "prefiltering"),
        _pack(str(spr), 8, "samples_per_record"),
        _pack("", 32, "reserved"),
    ])
    return head + digital.tobytes()
