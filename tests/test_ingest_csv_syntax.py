"""The syntax `parse_csv` accepts: numbers as Python's `float()` reads them,
an optional header, quoting, CRLF and extra columns; rows it rejects name
their line in the file."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preictal.errors import DataError, NumericError
from preictal.ingest import parse_csv

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


@pytest.mark.parametrize("text", [
    "TIME_S,MV\n" + ROWS,
    "  time_s , mv  \n" + ROWS,
    '"time_s","mv"\n' + ROWS,
    "\n\r\n\ntime_s,mv\n\n" + ROWS,
    ("time_s,mv\n" + ROWS).replace("\n", "\r\n"),
    "".join(f"{row},extra{i}\n" for i, row in enumerate(ROWS.splitlines())),
    ROWS.replace("0.25,3e-3", '"0.25","3e-3"'),
])
def test_accepted_syntax(text):
    rec = parse_csv(text)
    assert rec.sampling_rate_hz == 8
    assert np.array_equal(rec.samples, SAMPLES)
    assert np.array_equal(parse_csv(text.encode()).samples, SAMPLES)


@pytest.mark.parametrize("text", [
    ROWS + " , \n0.5,1\n",       # blank cells: skipped by earlier versions
    ROWS + "   \n0.5,1\n",       # a whitespace-only line, likewise
    ROWS.replace("-2", "1_0"),   # float() reads 1_0 as 10
    ROWS + "0.5\n",              # one column
])
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
