"""Independent checkers for the benchmark's outputs.

Nothing here imports the program. Every reader and reference computation is
written from docs/formats.md and the method's definitions, so a fault in the
program cannot hide behind the same fault in its checker. Each check returns
a list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

ICTAL, PREICTAL, POSTICTAL, INTERICTAL = 2, 1, 3, 0

# published Symlet-4 decomposition low-pass taps
SYM4_DEC_LO = np.array([
    -0.07576571478927333, -0.02963552764599851, 0.49761866763201545,
    0.8037387518059161, 0.29785779560527736, -0.09921954357684722,
    -0.012603967262037833, 0.0322231006040427,
])

# relative tolerance for a float64 result computed in another summation order
REL_TOL = 1e-9


# ---- readers for the program's file formats ---------------------------------

def read_segments(data: bytes) -> dict:
    """ESG1: 24-byte header, then per segment <q start, <B phase, 7 pad, samples."""
    if data[:4] != b"ESG1":
        raise ValueError("segments.bin: bad magic")
    _, fs, window, hop, count = struct.unpack_from("<5I", data, 4)
    rec = np.dtype([("start", "<i8"), ("phase", "u1"), ("pad", "V7"),
                    ("samples", "<f8", (window,))])
    body = np.frombuffer(data, dtype=rec, offset=24, count=count)
    return {"fs": fs, "window": window, "hop": hop, "start": body["start"].astype(np.int64),
            "phase": body["phase"].astype(np.int64), "samples": body["samples"]}


def read_features(data: bytes) -> tuple[str, np.ndarray]:
    """FTR1: magic, version, tag + 3 pad, ndim, shape, count, then float64 items."""
    if data[:4] != b"FTR1":
        raise ValueError("features.bin: bad magic")
    tag, ndim = struct.unpack_from("<B3xI", data, 8)
    shape = struct.unpack_from(f"<{ndim}I", data, 16)
    pos = 16 + 4 * ndim
    (count,) = struct.unpack_from("<I", data, pos)
    feats = np.frombuffer(data, dtype="<f8", offset=pos + 4).reshape(count, *shape)
    return ("dwt", "scalogram", "spectrogram")[tag], feats


def read_arrays(data: bytes) -> tuple[str, dict[str, np.ndarray]]:
    """MDL1: magic, version, length-prefixed tag, shape table, raw float64 data."""
    if data[:4] != b"MDL1":
        raise ValueError("parameter file: bad magic")
    pos = 8
    (n,) = struct.unpack_from("<H", data, pos)
    tag = data[pos + 2:pos + 2 + n].decode()
    pos += 2 + n
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4
    table = []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", data, pos)
        name = data[pos + 2:pos + 2 + n].decode()
        pos += 2 + n
        ndim = data[pos]
        shape = struct.unpack_from(f"<{ndim}I", data, pos + 1)
        pos += 1 + 4 * ndim
        table.append((name, shape))
    arrays = {}
    for name, shape in table:
        size = int(np.prod(shape)) if shape else 1
        arrays[name] = np.frombuffer(data, dtype="<f8", offset=pos, count=size).reshape(shape)
        pos += 8 * size
    return tag, arrays


def decode_edf(data: bytes) -> np.ndarray:
    """Physical values of the single signal of an EDF file, from the header
    fields at their standard offsets and the documented scaling."""
    ns = int(data[252:256])
    if ns != 1:
        raise ValueError(f"expected one signal, got {ns}")
    sig = data[256:512]
    pmin, pmax = float(sig[104:112]), float(sig[112:120])
    dmin, dmax = int(sig[120:128]), int(sig[128:136])
    n_records, spr = int(data[236:244]), int(sig[216:224])
    digital = np.frombuffer(data, dtype="<i2", offset=512, count=n_records * spr)
    return pmin + (digital.astype(np.float64) - dmin) * (pmax - pmin) / (dmax - dmin)


def read_errors_csv(text: str) -> dict[str, np.ndarray]:
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    return {"raw": np.array([float(r[1]) for r in rows]),
            "smoothed": np.array([float(r[2]) for r in rows]),
            "flag": np.array([int(r[3]) for r in rows], dtype=bool)}


# ---- reference computations ----------------------------------------------------

def moving_average(x, w: int) -> np.ndarray:
    """Centred moving average over w points; at the edges the window is cut to
    the series and the mean is over the points it still holds."""
    x = [float(v) for v in x]
    half, n = w // 2, len(x)
    out = []
    for i in range(n):
        window = x[max(0, i - half):min(n, i + half + 1)]
        out.append(sum(window) / len(window))
    return np.array(out)


def tau(mu: float, sigma: float, k: float) -> float:
    return mu + k * sigma


def phases_from_annotations(start_s, window_s: float, annotations, preictal_len_s: float,
                            postictal_len_s: float) -> np.ndarray:
    """Segment [s, s + window) is ictal if it overlaps [onset, offset], else
    pre-ictal if it overlaps [onset - preictal_len, onset), else post-ictal if
    it overlaps (offset, offset + postictal_len], else inter-ictal."""
    out = []
    for s in start_s:
        e = s + window_s
        phase = INTERICTAL
        for onset, offset in annotations:
            if s <= offset and e > onset:
                phase = ICTAL
                break
            if s < onset and e > onset - preictal_len_s:
                phase = PREICTAL
            elif phase == INTERICTAL and s <= offset + postictal_len_s and e > offset:
                phase = POSTICTAL
        out.append(phase)
    return np.array(out, dtype=np.int64)


def confusion(flags, phases) -> dict[str, int]:
    flags, phases = np.asarray(flags, dtype=bool), np.asarray(phases)
    pos, neg = phases == PREICTAL, phases == INTERICTAL
    return {"tp": int(np.sum(pos & flags)), "fn": int(np.sum(pos & ~flags)),
            "fp": int(np.sum(neg & flags)), "tn": int(np.sum(neg & ~flags))}


def mexican_hat(t):
    t = np.asarray(t, dtype=np.float64)
    return (1.0 - t * t) * np.exp(-0.5 * t * t)


def scalogram_row(x, scale: int, stride: int = 4) -> np.ndarray:
    """Energy row of one integer scale: direct convolution with the Mexican-hat
    kernel sampled on [-8a, 8a] and scaled by 1/sqrt(a), centred on the
    signal, squared, every stride-th translation."""
    m = np.arange(-8 * scale, 8 * scale + 1)
    kernel = mexican_hat(m / scale) / np.sqrt(scale)
    full = np.convolve(np.asarray(x, dtype=np.float64), kernel)
    same = full[8 * scale:8 * scale + len(x)]
    return same[::stride] ** 2


def dft_spectrogram(x, window: int = 512, hop: int = 128) -> np.ndarray:
    """|X(t, f)|^2 by a direct DFT of periodic-Hann frames of the signal
    mirror-padded (edge sample not repeated) by window/2 on each side."""
    x = np.asarray(x, dtype=np.float64)
    pad = window // 2
    padded = np.concatenate([x[pad:0:-1], x, x[-2:-pad - 2:-1]])
    n = np.arange(window)
    hann = 0.5 - 0.5 * np.cos(2 * np.pi * n / window)
    basis = np.exp(-2j * np.pi * np.outer(n, np.arange(window // 2 + 1)) / window)
    frames = np.array([padded[s:s + window] * hann
                       for s in range(0, len(x) + 1, hop)])
    spec = frames @ basis
    return spec.real ** 2 + spec.imag ** 2


def _periodized_level(n: int, taps: np.ndarray) -> np.ndarray:
    """Rows 2n'-k (mod n) of one periodized analysis level; orthogonal."""
    g = ((-1.0) ** np.arange(len(taps))) * taps[::-1]
    mat = np.zeros((n, n))
    for row in range(n // 2):
        for k in range(len(taps)):
            mat[row, (2 * row - k) % n] += taps[k]
            mat[n // 2 + row, (2 * row - k) % n] += g[k]
    return mat


def dwt_reconstruct(vector, levels: int = 3) -> np.ndarray:
    """Invert cA_L || cD_L || ... || cD_1 with the published taps."""
    v = np.asarray(vector, dtype=np.float64)
    size = len(v) >> levels
    approx = v[:size]
    while size < len(v):
        detail = v[size:2 * size]
        approx = _periodized_level(2 * size, SYM4_DEC_LO).T @ np.concatenate([approx, detail])
        size *= 2
    return approx


# ---- checks on one pipeline output directory -----------------------------------------

def _close(a, b, rel=REL_TOL) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = max(float(np.max(np.abs(b))) if b.size else 0.0, 1e-300)
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= rel * scale


def check_record(out: Path, expected_samples: np.ndarray, exact: bool) -> list[str]:
    got = np.load(out / "record.npy")
    if got.shape != expected_samples.shape:
        return [f"record.npy shape {got.shape}, expected {expected_samples.shape}"]
    if exact:
        same = np.array_equal(got.view(np.uint64), expected_samples.view(np.uint64))
    else:
        same = float(np.max(np.abs(got - expected_samples))) <= 1e-12
    return [] if same else ["record.npy differs from the samples written"]


def check_features(feature_rows: dict[int, np.ndarray], segments: np.ndarray,
                   representation: str) -> list[str]:
    """Compare sampled feature rows with an independent transform of their segments."""
    problems = []
    for i, row in feature_rows.items():
        x = segments[i]
        if representation == "spectrogram":
            ok = _close(row, dft_spectrogram(x))
        elif representation == "scalogram":
            ref = np.stack([scalogram_row(x, a) for a in range(1, row.shape[0] + 1)])
            ok = _close(row, ref)
        else:
            back = dwt_reconstruct(row)
            ok = (_close(back, x)
                  and abs(float(row @ row) - float(x @ x)) <= REL_TOL * float(x @ x))
        if not ok:
            problems.append(f"{representation} row of segment {i} differs from the "
                            f"independent transform")
    return problems


def sample_indices(count: int) -> list[int]:
    return sorted({0, count // 2, count - 1})


def check_pipeline(out: Path, expect: dict) -> list[str]:
    """Check one `all` run's artifacts against recomputations from its inputs.

    expect: annotations [(onset, offset)], k, w, preictal_len_s,
    postictal_len_s, window_s, representation.
    """
    problems = []
    segs = read_segments((out / "segments.bin").read_bytes())
    start_s = segs["start"] / segs["fs"]
    anns = expect["annotations"]
    phases = phases_from_annotations(start_s, expect["window_s"], anns,
                                     expect["preictal_len_s"], expect["postictal_len_s"])
    if not np.array_equal(phases, segs["phase"]):
        problems.append("segment phases differ from those derived from the annotation times")

    rep, feats = read_features((out / "features.bin").read_bytes())
    if rep != expect["representation"]:
        problems.append(f"features.bin holds {rep}, expected {expect['representation']}")
    rows = {i: feats[i] for i in sample_indices(len(feats))}
    problems += check_features(rows, segs["samples"], rep)

    _, scores = read_arrays((out / "scores.params").read_bytes())
    evaluation = json.loads((out / "evaluation.json").read_text())
    errors = read_errors_csv((out / "errors.csv").read_text())
    th = evaluation["threshold"]
    w, k = expect["w"], expect["k"]
    train_smooth = moving_average(scores["train_errors"], w)
    if not (_close(th["mu"], np.mean(train_smooth)) and _close(th["sigma"], np.std(train_smooth))):
        problems.append("threshold mu/sigma differ from the smoothed training errors")
    if th["k"] != k or th["tau"] != tau(th["mu"], th["sigma"], k):
        problems.append("tau != mu + k*sigma")
    test_smooth = moving_average(scores["test_errors"], w)
    if not (_close(errors["smoothed"], test_smooth) and _close(errors["raw"], scores["test_errors"])):
        problems.append("errors.csv differs from the centred moving average of the test errors")
    decided = np.abs(test_smooth - th["tau"]) > REL_TOL * abs(th["tau"])
    flags = test_smooth > th["tau"]
    if not np.array_equal(flags[decided], errors["flag"][decided]):
        problems.append("anomaly flags differ from smoothed error > tau")
    test_idx = scores["test_indices"].astype(np.int64)
    counts = confusion(errors["flag"], phases[test_idx])
    got = {key: evaluation["confusion"][key] for key in counts}
    if got != counts:
        problems.append(f"confusion counts {got} differ from the recount {counts}")
    m = evaluation["metrics"]
    if counts["tn"] + counts["fp"]:
        if m["specificity"] != counts["tn"] / (counts["tn"] + counts["fp"]):
            problems.append("specificity != tn / (tn + fp)")
        if abs(m["specificity"] + m["fpr_ratio"] - 1.0) > 1e-12:
            problems.append("specificity + fpr_ratio != 1")

    svg = (out / "report.svg").read_text()
    if svg.count('class="threshold"') != 1:
        problems.append("report.svg must hold exactly one threshold line")
    onsets = svg.count('class="onset"')
    if onsets != len(anns):
        problems.append(f"report.svg holds {onsets} onset markers, expected {len(anns)}")
    return problems


def digests(root: Path, skip: tuple[str, ...] = ("manifest.json",)) -> dict[str, str]:
    """sha256 of every file under root, by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name not in skip}


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
