"""EDF files with several signals of unequal samples per record, and the header
bytes write_edf packs, checked against files built by hand."""
import numpy as np
import pytest

from preictal.errors import DataError
from preictal.ingest import EcgRecord, parse_edf, parse_edf_header, write_edf
from test_ingest_edf import make_edf


def make_multi_edf(channels, n_records):
    """Hand-rolled EDF of 1 s data records.  channels: [(label, samples_per_record,
    (phys_min, phys_max), (dig_min, dig_max), digital samples)]."""
    def pad(value, w):
        return str(value).encode("ascii").ljust(w)

    labels, counts, phys, dig, samples = zip(*channels)
    n = len(channels)
    head = b"".join([
        pad("0", 8), pad("P3", 80), pad("rec", 80),
        pad("01.01.01", 8), pad("00.00.00", 8),
        pad(256 * (1 + n), 8), pad("", 44),
        pad(n_records, 8), pad(1, 8), pad(n, 4),
    ])
    # each signal-header field for all signals, then the next field
    per_field = [(labels, 16), ([""] * n, 80), (["mV"] * n, 8),
                 ([p[0] for p in phys], 8), ([p[1] for p in phys], 8),
                 ([d[0] for d in dig], 8), ([d[1] for d in dig], 8),
                 ([""] * n, 80), (counts, 8), ([""] * n, 32)]
    head += b"".join(pad(v, w) for values, w in per_field for v in values)
    body = b"".join(np.asarray(s[r * spr:(r + 1) * spr], dtype="<i2").tobytes()
                    for r in range(n_records) for s, spr in zip(samples, counts))
    return head + body


# three data records of signals with 4, 2 and 3 samples each
THREE_SIGNALS = make_multi_edf([
    ("A", 4, (-5, 5), (-32768, 32767), [100 * i for i in range(12)]),
    ("ECG", 2, (-50, 50), (-100, 100), [-100, 7, 1, 100, -3, 64]),   # physical = digital / 2
    ("C", 3, (-10, 10), (-10, 10), [-i for i in range(9)]),   # physical = digital
], n_records=3)


def _with_count(blob, signal, count):
    """blob with the samples_per_record field of one signal replaced."""
    pos = 256 + 3 * (16 + 80 + 8 * 5 + 80) + 8 * signal
    return blob[:pos] + str(count).encode().ljust(8) + blob[pos + 8:]


def test_middle_signal_of_unequal_records():
    rec = parse_edf(THREE_SIGNALS, "ECG")
    assert rec.sampling_rate_hz == 2
    assert rec.samples.tolist() == [-50.0, 3.5, 0.5, 50.0, -1.5, 32.0]
    assert parse_edf(THREE_SIGNALS, "C").samples.tolist() == [-i for i in range(9)]
    assert [s.samples_per_record for s in parse_edf_header(THREE_SIGNALS).signals] == [4, 2, 3]


def test_header_holds_every_field():
    # the main header's reserved field: bytes 192..235
    header = parse_edf_header(THREE_SIGNALS[:192] + b"EDF+C".ljust(44) + THREE_SIGNALS[236:])
    assert (header.n_signals, header.n_records, header.reserved) == (3, 3, "EDF+C")
    assert [s.reserved for s in header.signals] == ["", "", ""]


@pytest.mark.parametrize("counts", [(4, -2, 3), (4, -4, 3), (-1, 2, 3)])
@pytest.mark.parametrize("channel", ["A", "ECG", "C"])
def test_negative_samples_per_record_rejected(counts, channel):
    blob = THREE_SIGNALS
    for i, count in enumerate(counts):
        blob = _with_count(blob, i, count)
    with pytest.raises(DataError, match="negative samples_per_record"):
        parse_edf(blob, channel)


@pytest.mark.parametrize("phys", [(-5, 5), (-2.5, 3.25)])
def test_write_edf_header_matches_hand_packed(phys):
    rec = EcgRecord(patient_id="P0", sampling_rate_hz=4, samples=np.zeros(8))
    blob = write_edf(rec, physical_min=phys[0], physical_max=phys[1], recording_id="rec")
    assert blob[:512] == make_edf([0] * 8, phys=phys, n_records=2, fs=4)[:512]
