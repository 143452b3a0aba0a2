import numpy as np
import pytest

from preictal.cli import main
from preictal.errors import DataError
from preictal.ingest import (EcgRecord, SeizureType, load_annotations, parse_csv,
                             serialize_annotations, serialize_csv)
from preictal.ingest import text as csv_text


def rows_at(fs, n, values=None):
    vals = values if values is not None else np.zeros(n)
    return "\n".join(f"{i / fs},{v}" for i, v in enumerate(vals))


def test_uniform_rate_inferred():
    rec = parse_csv(rows_at(512, 512))
    assert rec.sampling_rate_hz == 512


def test_alternating_step_rejected():
    times = np.cumsum([0] + [1 / 512, 1 / 256] * 10)
    text = "\n".join(f"{t},0.0" for t in times)
    with pytest.raises(DataError, match="non-uniform"):
        parse_csv(text)


def test_empty_rejected():
    with pytest.raises(DataError, match="empty"):
        parse_csv("")


def test_non_numeric_rejected():
    with pytest.raises(DataError, match="malformed"):
        parse_csv("0.0,1.0\n0.001953125,abc")


def test_decreasing_time_rejected():
    with pytest.raises(DataError, match="strictly increasing"):
        parse_csv("0.0,1.0\n0.5,1.0\n0.25,1.0")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_mv_rejected(tmp_path, value):
    values = ["0.5"] * 16
    values[2] = value
    text = rows_at(8, 16, values)
    with pytest.raises(DataError, match="line 3 holds a non-finite"):
        parse_csv(text)
    record, config = tmp_path / "rec.csv", tmp_path / "run.cfg"
    record.write_text(text)
    config.write_text(f"record = {record}\nout = {tmp_path}/out\n")
    assert main(["convert", "--config", str(config)]) == 3


def test_serialize_roundtrip_bit_exact():
    rng = np.random.default_rng(2)
    rec = EcgRecord(patient_id="p", sampling_rate_hz=512,
                    samples=rng.normal(0, 1, 777))
    back = parse_csv(serialize_csv(rec))
    assert back.sampling_rate_hz == 512
    assert np.array_equal(back.samples, rec.samples)


@pytest.mark.parametrize("n, fs, block_rows", [(1, 512, 7), (29, 3, 7), (65537, 512, None)])
def test_serialize_matches_a_row_at_a_time(monkeypatch, n, fs, block_rows):
    special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1 / 3]
    samples = np.resize(special, n)
    samples[len(special):] = np.random.default_rng(3).normal(size=max(0, n - len(special)))
    rec = EcgRecord(patient_id="p", sampling_rate_hz=fs, samples=samples)
    if block_rows:
        monkeypatch.setattr(csv_text, "SERIALIZE_ROWS", block_rows)
    rows = "".join(f"{i / fs:.17g},{v:.17g}\n" for i, v in enumerate(rec.samples))
    assert serialize_csv(rec).encode() == ("time_s,mv\n" + rows).encode()


def test_annotation_single_row():
    anns = load_annotations("100,160,IAS")
    assert len(anns) == 1
    assert (anns[0].onset_s, anns[0].offset_s) == (100.0, 160.0)
    assert anns[0].seizure_type is SeizureType.IAS


def test_annotation_ordering_error():
    with pytest.raises(DataError, match="onset < offset"):
        load_annotations("100,90,IAS")


def test_annotation_overlap_error():
    with pytest.raises(DataError, match="overlap"):
        load_annotations("100,160,IAS\n150,200,IAS")


def test_annotation_header_and_roundtrip():
    text = "onset_s,offset_s,type\n10,20,FBTC\n30,40,WIAS\n"
    anns = load_annotations(text)
    assert [a.seizure_type for a in anns] == [SeizureType.FBTC, SeizureType.WIAS]
    assert load_annotations(serialize_annotations(anns)) == anns


def test_unknown_seizure_type():
    with pytest.raises(DataError, match="unknown seizure type"):
        load_annotations("10,20,XYZ")
