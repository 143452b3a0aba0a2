"""Fast self-tests of the benchmark's independent checkers, on hand-worked
examples; they run no workload.

    python3 -m pytest bench/test_checks.py -q
"""
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from spans import LAYER_METRICS


def test_moving_average_centred_with_cut_edges():
    assert checks.moving_average([0, 0, 3, 0, 0], 3).tolist() == [0, 1, 1, 1, 0]
    assert checks.moving_average([1, 2, 3, 4], 3).tolist() == [1.5, 2, 3, 3.5]
    assert checks.moving_average([4, 8], 5).tolist() == [6, 6]
    assert checks.moving_average([2, 7, 1], 1).tolist() == [2, 7, 1]


def test_tau_is_mu_plus_k_sigma():
    assert checks.tau(1.0, 0.5, 3.0) == 2.5
    assert abs(checks.tau(0.1, 0.02, 2.0) - 0.14) < 1e-15


def test_phases_from_annotation_times():
    # one seizure on [5, 6], 2 s pre-ictal, 2 s post-ictal, 1 s segments at 0..9
    phases = checks.phases_from_annotations(range(10), 1.0, [(5.0, 6.0)], 2.0, 2.0)
    assert phases.tolist() == [0, 0, 0, 1, 1, 2, 2, 3, 3, 0]
    # the second seizure's pre-ictal interval wins over the first's post-ictal one
    phases = checks.phases_from_annotations(range(10), 1.0, [(2.0, 3.0), (7.0, 8.0)], 2.0, 3.0)
    assert phases.tolist() == [1, 1, 2, 2, 3, 1, 1, 2, 2, 3]


def test_confusion_counts_preictal_as_positive_and_skips_ictal():
    counts = checks.confusion([1, 0, 1, 0, 1, 1], [1, 1, 0, 0, 2, 3])
    assert counts == {"tp": 1, "fn": 1, "fp": 1, "tn": 1}


def test_scalogram_row_of_an_impulse_is_the_squared_kernel():
    x = np.zeros(64)
    x[32] = 1.0
    row = checks.scalogram_row(x, 1)           # every 4th translation: 0, 4, ..., 60
    expected = np.zeros(16)
    expected[8] = 1.0                          # psi(0)^2
    expected[7] = expected[9] = 225 * math.exp(-16)     # psi(4)^2 = (-15 e^-8)^2
    expected[6] = expected[10] = 3969 * math.exp(-64)   # psi(8)^2 = (-63 e^-32)^2
    np.testing.assert_allclose(row, expected, rtol=1e-12, atol=1e-300)
    row2 = checks.scalogram_row(x, 2, stride=1)
    assert row2[32] == pytest.approx(0.5)                # (psi(0) / sqrt 2)^2
    assert row2[36] == pytest.approx(9 * math.exp(-4) / 2)   # (psi(2) / sqrt 2)^2


def test_dft_spectrogram_of_a_constant():
    # periodic Hann = 0.5 - 0.25 e^{+} - 0.25 e^{-}: bin 0 sums to 256, bin 1 to -128
    spec = checks.dft_spectrogram(np.ones(512))
    assert spec.shape == (5, 257)
    np.testing.assert_allclose(spec[:, 0], 256.0 ** 2)
    np.testing.assert_allclose(spec[:, 1], 128.0 ** 2)
    assert float(np.max(spec[:, 2:])) < 1e-18


def test_dwt_reconstruct_of_a_constant():
    # a constant has no detail; each level scales the approximation by sqrt 2
    vector = np.concatenate([np.full(8, 2 * math.sqrt(2)), np.zeros(56)])
    np.testing.assert_allclose(checks.dwt_reconstruct(vector), np.ones(64), atol=1e-12)
    level = checks._periodized_level(16, checks.SYM4_DEC_LO)
    np.testing.assert_allclose(level @ level.T, np.eye(16), atol=1e-12)


def test_read_arrays_and_digests(tmp_path):
    blob = (b"MDL1" + struct.pack("<IH", 1, 6) + b"scores" + struct.pack("<I", 1)
            + struct.pack("<H", 1) + b"e" + struct.pack("<BI", 1, 2)
            + np.array([0.5, 2.0], dtype="<f8").tobytes())
    tag, arrays = checks.read_arrays(blob)
    assert tag == "scores" and arrays["e"].tolist() == [0.5, 2.0]
    (tmp_path / "a").write_bytes(blob)
    (tmp_path / "manifest.json").write_text("{}")
    assert list(checks.digests(tmp_path)) == ["a"]
    assert checks.tree_bytes(tmp_path) == len(blob) + 2


def test_benchmark_json_lists_the_workloads_and_traced_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS
