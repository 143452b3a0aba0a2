"""The record and annotation parsers raise only the typed errors that the CLI
maps to exit codes, whatever text or bytes they are given."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preictal.errors import DataError, NumericError
from preictal.ingest import (EcgRecord, SeizureAnnotation, load_annotations,
                             parse_csv, parse_edf, serialize_annotations,
                             serialize_csv, write_edf)
from test_ingest_edf_layout import THREE_SIGNALS

_RECORD = EcgRecord(patient_id="p", sampling_rate_hz=8,
                    samples=np.sin(np.arange(24.0)))


def _parse_edf(data: bytes):
    return parse_edf(data, "ECG")


_EDF = write_edf(_RECORD)
# valid (parser, input) pairs; the fuzz tests below replace, cut and flip the input
VALID = [
    (parse_csv, serialize_csv(_RECORD).encode()),
    (load_annotations, serialize_annotations([SeizureAnnotation(1.0, 2.5),
                                              SeizureAnnotation(4.0, 9.0)]).encode()),
    (_parse_edf, _EDF),
    (_parse_edf, THREE_SIGNALS),   # "ECG" is the middle of 3 signals of 4, 2 and 3 samples
]
TEXT_PARSERS = st.sampled_from([parse_csv, load_annotations])
BASES = st.sampled_from(VALID)
CSV_TEXT = st.text(alphabet="0123456789.,-+eEinfatINFA \"\n\r", max_size=200)


def _only_typed_errors(parse, data: bytes | str):
    if parse is not _parse_edf and isinstance(data, bytes):
        data = data.decode("latin-1")
    try:
        parse(data)
    except (DataError, NumericError):
        pass


@settings(max_examples=300, deadline=None)
@given(TEXT_PARSERS, st.one_of(st.text(max_size=200), CSV_TEXT))
def test_arbitrary_text(parse, text):
    _only_typed_errors(parse, text)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=800))
def test_arbitrary_edf_bytes(data):
    _only_typed_errors(_parse_edf, data)


@settings(max_examples=300, deadline=None)
@given(BASES, st.data())
def test_truncated_input(base, data):
    parse, blob = base
    _only_typed_errors(parse, blob[:data.draw(st.integers(0, len(blob)))])


@settings(max_examples=500, deadline=None)
@given(BASES, st.data())
def test_byte_flipped_input(base, data):
    parse, blob = base
    blob = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(blob) - 1))
        blob[i] ^= data.draw(st.integers(1, 255))
    _only_typed_errors(parse, bytes(blob))


@pytest.mark.parametrize("parse, text", [
    (parse_csv, "0," + "1" * 131_073 + "\n"),            # past the csv module's field limit
    (load_annotations, "0," + "1" * 131_073 + "\n"),
    (parse_csv, "0,1\n1e-320,1\n"),                      # sampling rate overflows
    (parse_csv, "0,1\nnan,1\n"),
])
def test_malformed_text_is_data_error(parse, text):
    with pytest.raises(DataError):
        parse(text)


@pytest.mark.parametrize("duration", [b"1e-320  ", b"nan     ", b"1e-300  "])
def test_edf_record_duration_out_of_range(duration):
    with pytest.raises(DataError):   # record duration field: bytes 244..251
        _parse_edf(_EDF[:244] + duration + _EDF[252:])
