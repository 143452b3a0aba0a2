"""The syntax `parse_csv` accepts: numbers as Python's `float()` reads them,
an optional header, quoting, CRLF and extra columns; rows it rejects name
their line in the file."""
import io
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preictal.errors import DataError, NumericError
from preictal.ingest import parse_csv
from preictal.ingest import text as csv_text

ROWS = "0,1.5\n0.125,-2\n0.25,3e-3\n0.375,4\n"
SAMPLES = np.array([1.5, -2.0, 3e-3, 4.0])
FORMATS = [repr, lambda x: f"{x:.17g}", lambda x: f"{x:.6e}",
           lambda x: repr(x) if repr(x).startswith("-") else f"+{x!r}",
           lambda x: f"  {x!r}\t"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=30),
       st.sampled_from(FORMATS))
def test_numbers_read_as_python_float(values, fmt):
    cells = [fmt(v) for v in values]
    rec = parse_csv("".join(f"{i / 8!r},{c}\n" for i, c in enumerate(cells)))
    assert rec.samples.tobytes() == np.array([float(c) for c in cells]).tobytes()


ACCEPTED = [
    "TIME_S,MV\n" + ROWS,
    "  time_s , mv  \n" + ROWS,
    '"time_s","mv"\n' + ROWS,
    "\n\r\n\ntime_s,mv\n\n" + ROWS,
    ("time_s,mv\n" + ROWS).replace("\n", "\r\n"),
    "".join(f"{row},extra{i}\n" for i, row in enumerate(ROWS.splitlines())),
    ROWS.replace("0.25,3e-3", '"0.25","3e-3"'),
]
MALFORMED = [
    ROWS + " , \n0.5,1\n",       # blank cells: skipped by earlier versions
    ROWS + "   \n0.5,1\n",       # a whitespace-only line, likewise
    ROWS.replace("-2", "1_0"),   # float() reads 1_0 as 10
    ROWS + "0.5\n",              # one column
]


@pytest.mark.parametrize("text", ACCEPTED)
def test_accepted_syntax(text):
    rec = parse_csv(text)
    assert rec.sampling_rate_hz == 8
    assert np.array_equal(rec.samples, SAMPLES)
    assert np.array_equal(parse_csv(text.encode()).samples, SAMPLES)


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_row_named(text):
    with pytest.raises(DataError, match=r"malformed row at line \d+"):
        parse_csv(text)


def test_non_utf8_bytes_name_their_line():
    with pytest.raises(DataError, match="not UTF-8 at line 3"):
        parse_csv(b"time_s,mv\n0,1\n0.125,\xff\n0.25,1\n")


@pytest.mark.parametrize("text", ["", "\n\n", "time_s,mv\n", "\r\ntime_s,mv\r\n\r\n"])
def test_empty_input_warns_nothing(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="empty record CSV"):
            parse_csv(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789.,-+e \"\n\r\t", max_size=120))
def test_no_warning_escapes(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            parse_csv(text)
        except (DataError, NumericError):
            pass


def test_cr_only_line_ends_rejected():   # earlier versions read them as line ends
    with pytest.raises(DataError, match="malformed row"):
        parse_csv(ROWS.replace("\n", "\r"))


# a header and four good rows, so the fifth data row is file line 6
@pytest.mark.parametrize("bad, message", [
    (" , ", "malformed row at line 6: b' , '"),   # a conversion error
    ("2", "malformed row at line 6: b'2'"),       # a column-count error
    ("2,inf", "line 6 holds a non-finite value"),
    ("0.5,1_0", "malformed row at line 6"),
])
def test_rejected_row_names_its_file_line(bad, message):
    with pytest.raises(DataError, match=re.escape(message)):
        parse_csv("time_s,mv\n" + ROWS + bad + "\n0.625,1\n")


@pytest.mark.parametrize("bad, message", [
    (" , ", "malformed row at line 10"),
    ("2", "malformed row at line 10"),
    ("2,inf", "line 10 holds a non-finite value"),
    ("0.5,1\n\n0.7,1", "step 0.2s to line 12 deviates"),
])
def test_line_count_includes_blank_lines_and_crlf(bad, message):
    # line 1 blank, 2 the header, 3 blank, 4-7 the rows (two end in CRLF), 8-9 blank
    text = "\n" + "time_s,mv\n\n" + ROWS.replace("\n", "\r\n", 2) + "\n\n" + bad + "\n"
    with pytest.raises(DataError, match=re.escape(message)):
        parse_csv(text)
    with pytest.raises(DataError, match=re.escape(message)):
        parse_csv(text.encode())


def test_malformed_last_line_without_newline():
    with pytest.raises(DataError, match=re.escape("malformed row at line 5: b'0.5'")):
        parse_csv(ROWS + "0.5")


def test_first_of_two_malformed_lines_named():
    rows = [f"{i / 8!r},1" for i in range(200)]
    rows[150], rows[37] = "x,1", "0.5,"
    with pytest.raises(DataError, match="malformed row at line 39"):
        parse_csv("time_s,mv\n" + "\n".join(rows) + "\n")


def _outcome(parse, data):
    """parse(data)'s rate and samples, bitwise, or its DataError text."""
    try:
        rec = parse(data)
    except DataError as exc:
        return str(exc)
    return rec.sampling_rate_hz, rec.samples.tobytes()


def _parses_as_one(data: bytes, block_bytes: int):
    """parse_csv in blocks of block_bytes gives what it gives in its default
    blocks, and what one reader call over the whole input gives."""
    whole = _outcome(lambda d: csv_text._parse_whole(d, "unknown"), data)
    assert _outcome(parse_csv, data) == whole
    with pytest.MonkeyPatch.context() as m:
        m.setattr(csv_text, "BLOCK_BYTES", block_bytes)
        assert _outcome(parse_csv, data) == whole


# reads end inside the header, CRLF ends and runs of blank lines; inputs
# with quoted fields (some spanning lines) are parsed whole; the quote
# after a literal one (a"b) opens a field that holds the next line, so the
# record is sampled at 4 Hz
BLOCK_CASES = ACCEPTED + MALFORMED + [
    ROWS.replace("\n", "\n\n\n\n"),
    ROWS.replace("0.125,-2\n", '"0.125","-2","a\n,b\n""c"""\n'),
    '0,1.5,a"b,"c\n0.125,-2,"\n0.25,3e-3\n0.5,4\n',
    ROWS + "0.5,1",
    "time_s,mv\n" + ROWS + "0.5,\xff\n",
    "time_s,mv\n" + ROWS + "0.5,inf\n0.625,1\n",
    "time_s,mv\n" + ROWS + "0.5,1\n\n0.7,1\n",
    "time_s,mv\n" + ROWS.replace("0.25,", "0.5,"),
    "time_s,mv\ntime_s,mv\n" + ROWS,
    "time_s,mv\n\n\n",
]


@pytest.mark.parametrize("block_bytes", [1, 2, 3, 5, 7, 16])
@pytest.mark.parametrize("text", BLOCK_CASES)
def test_small_blocks_parse_as_one(text, block_bytes):
    _parses_as_one(text.encode("latin-1"), block_bytes)


CELLS = st.sampled_from(["0", "0.125", "-2", "3e-3", "1_0", "inf", "x", "", " ",
                         '"0.25"', '"a\n,b"', '""', 'a"b', '"c', '"', "\xff"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(CELLS, min_size=1, max_size=4), max_size=8),
       st.sampled_from(["\n", "\r\n", "\n\n"]), st.integers(1, 9))
def test_blocks_of_any_size_parse_as_one(rows, end, block_bytes):
    lines = [f"{i / 8!r},{','.join(cells)}" for i, cells in enumerate(rows)]
    _parses_as_one(("time_s,mv" + end + end.join(lines) + end).encode("latin-1"), block_bytes)


def test_columns_grow_past_the_rows_the_size_allows(monkeypatch):
    # a file that grows while it is read holds more rows than its size when
    # opened could
    monkeypatch.setattr(csv_text, "BLOCK_BYTES", 8)
    data = ("time_s,mv\n" + ROWS).encode()
    for size in (0, len(data)):
        mv, dt, bad = csv_text._block_columns(csv_text._blocks(io.BytesIO(data).read), size)
        assert mv.tobytes() == SAMPLES.tobytes() and bad is None
        assert dt.tobytes() == np.diff([0, 0.125, 0.25, 0.375]).tobytes()


def test_blocks_stop_reading_at_the_first_quote(monkeypatch):
    monkeypatch.setattr(csv_text, "BLOCK_BYTES", 4)
    data = io.BytesIO(b'0,1.5,a"b\n' + b"0.125,-2\n" * 1000)
    with pytest.raises(ValueError):
        list(csv_text._blocks(data.read))
    assert data.tell() == 8


def test_a_long_line_is_read_in_linear_time(monkeypatch):
    # 2 MiB without a line break in 64-byte reads: growing one buffer per
    # read would copy about 34 GB
    monkeypatch.setattr(csv_text, "BLOCK_BYTES", 64)
    text = ROWS.replace("\n", "\r").encode() * (1 << 16)
    began = time.perf_counter()
    assert list(csv_text._blocks(io.BytesIO(text).read)) == [text]
    assert time.perf_counter() - began < 5
