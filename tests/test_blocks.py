"""The ordered fan-out: extraction and scoring keep their bytes at any CPU
count, errors cross threads with their type, and small inputs start no
thread."""
import os
import sys
import threading
import time

import numpy as np
import pytest

from preictal import blocks
from preictal.errors import DataError
from preictal.features import BLOCK_ROWS, extract_features
from preictal.ingest import EcgRecord
from preictal.models import ARCHITECTURES, TrainPlan, build, instantiate, score
from preictal.models.training import SCORE_BATCH, TrainedModel
from preictal.preprocess import SegmentationConfig, SegmentSet, segment

CPU_COUNTS = (1, 2, 3)


def _segments(count: int) -> SegmentSet:
    fs = 512
    rec = EcgRecord(patient_id="t", sampling_rate_hz=fs,
                    samples=np.random.default_rng(count).normal(size=fs * count))
    return segment(rec, SegmentationConfig(1, 0, fs))


def _untrained(kind: str, representation: str) -> TrainedModel:
    spec = build(kind, representation, 512)
    return TrainedModel(spec=spec, model=instantiate(spec, seed=0), stats=None,
                        plan=TrainPlan())


def _per_cpu_count(monkeypatch, compute) -> list[bytes]:
    out = []
    for cpus in CPU_COUNTS:
        monkeypatch.setattr(blocks, "cpu_count", lambda: cpus)
        out.append(compute().tobytes())
    return out


def test_fan_out_runs_each_block_once_in_block_order(monkeypatch):
    # more threads than CPUs, switching often: a lost or repeated block shows
    monkeypatch.setattr(blocks, "cpu_count", lambda: 8)
    spans = list(blocks.row_blocks(2000, 7))
    ran = []

    def run(lo, hi):
        ran.append(lo)
        time.sleep(0.0005 * (lo % 3))   # uneven blocks finish out of order
        return lo, hi

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = blocks.fan_out(run, spans, 7)
    finally:
        sys.setswitchinterval(interval)
    assert got == spans
    assert sorted(ran) == [lo for lo, _ in spans]


# a one-row tail, and an input below two full blocks (it runs serially)
@pytest.mark.parametrize("count", [2 * BLOCK_ROWS + 1, BLOCK_ROWS + 5])
@pytest.mark.parametrize("representation", ["dwt", "scalogram", "spectrogram"])
def test_extract_bytes_do_not_depend_on_cpu_count(monkeypatch, representation, count):
    segs = _segments(count)
    got = _per_cpu_count(monkeypatch, lambda: extract_features(segs, representation))
    assert got[0] == got[1] == got[2]


# a one-row tail folded into the batch before it, and an input below two full batches
@pytest.mark.parametrize("count", [3 * SCORE_BATCH + 1, SCORE_BATCH + 16])
@pytest.mark.parametrize("kind", ARCHITECTURES)
def test_score_bytes_do_not_depend_on_cpu_count(monkeypatch, kind, count):
    trained = _untrained(kind, "spectrogram")
    x = np.random.default_rng(count).normal(size=(count, 5, 257))
    got = _per_cpu_count(monkeypatch, lambda: score(trained, x))
    assert got[0] == got[1] == got[2]


def test_worker_error_reaches_caller_as_data_error(monkeypatch):
    monkeypatch.setattr(blocks, "cpu_count", lambda: 2)

    def run(lo, hi):
        if threading.current_thread() is threading.main_thread():
            return lo
        raise DataError(f"bad block {lo}")

    with pytest.raises(DataError, match="bad block"):
        blocks.fan_out(run, blocks.row_blocks(64, 4), 4)


def test_bytes_kept_where_the_platform_has_no_cpu_affinity(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    segs = _segments(2 * BLOCK_ROWS + 1)
    trained = _untrained("lstm_ae", "spectrogram")
    x = np.random.default_rng(1).normal(size=(3 * SCORE_BATCH + 1, 5, 257))
    want = extract_features(segs, "scalogram").tobytes(), score(trained, x).tobytes()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert blocks.cpu_count() == (os.cpu_count() or 1)
    assert (extract_features(segs, "scalogram").tobytes(), score(trained, x).tobytes()) == want


def test_one_full_batch_starts_no_thread(monkeypatch):
    monkeypatch.setattr(blocks, "cpu_count", lambda: 4)

    def refuse(self):
        raise AssertionError("a thread was started")

    trained = _untrained("lstm_ae", "scalogram")
    x = np.random.default_rng(0).normal(size=(48, 128, 128))
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert score(trained, x).shape == (48,)


def test_nested_fan_out_starts_no_thread(monkeypatch):
    # the outer fan-out holds every CPU: a fan-out from inside one of its
    # blocks runs in a plain loop on the block's own thread
    monkeypatch.setattr(blocks, "cpu_count", lambda: 2)
    started = []
    start = threading.Thread.start

    def counting(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)

    def inner(lo, hi):
        return threading.current_thread(), lo

    def outer(lo, hi):
        ran = blocks.fan_out(inner, blocks.row_blocks(8, 2), 2)
        assert {thread for thread, _ in ran} == {threading.current_thread()}
        return [lo for _, lo in ran]

    assert blocks.fan_out(outer, blocks.row_blocks(4, 1), 1) == [[0, 2, 4, 6]] * 4
    assert len(started) == 1   # the outer fan-out's one pool thread
    # once it ends, a fan-out uses the pool again
    assert {thread for thread, _ in blocks.fan_out(inner, blocks.row_blocks(8, 2), 2)} \
        != {threading.current_thread()}


def test_concurrent_fan_outs_run_one_pool_at_a_time(monkeypatch):
    # callers on four threads, more pool threads than CPUs, switching often:
    # each caller gets its own blocks back in order, and no two pools overlap
    monkeypatch.setattr(blocks, "cpu_count", lambda: 8)
    guard, in_pool, most = threading.Lock(), [0], [0]

    def run(lo, hi):
        pooled = threading.current_thread().name.startswith("ThreadPoolExecutor")
        with guard:
            in_pool[0] += pooled
            most[0] = max(most[0], in_pool[0])
        time.sleep(0.0002)
        with guard:
            in_pool[0] -= pooled
        return lo, hi

    spans = list(blocks.row_blocks(400, 5))
    results = {}

    def caller(k):
        results[k] = [blocks.fan_out(run, spans, 5) for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert results == {k: [spans] * 5 for k in range(4)}
    assert most[0] <= 7   # one pool of cpu_count - 1 threads at most
