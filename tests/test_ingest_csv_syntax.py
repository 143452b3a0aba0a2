"""The syntax `parse_csv` accepts: numbers as Python's `float()` reads them,
an optional header, quoting, CRLF and extra columns; rows it rejects name
their row."""
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
    # numpy's message names the row: from 0 in a conversion error, from 1
    # in a column-count error
    with pytest.raises(DataError, match=r"malformed row: .* row \d+"):
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
