"""Row blocks, and one ordered fan-out of them over the available CPUs.

Extraction, scoring and the attention core work on independent rows in
fixed blocks.  `fan_out` runs the blocks on the calling thread plus pool
threads and returns their results in block order.  The block edges do not
depend on the CPU count, and each block is computed by the same calls on any
thread, so the results keep their bytes at any CPU count.  Each busy thread
holds one block's temporaries, so memory grows with the thread count, not
with the row count.  One fan-out runs at a time: a fan-out started while
another runs (from inside one of its blocks, or from another thread) runs its
blocks in a plain loop, so the threads never outnumber the CPUs.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

_running = threading.Lock()   # held while a fan-out's pool threads run


def row_blocks(count: int, size: int, min_rows: int = 1):
    """(lo, hi) bounds of consecutive blocks of size rows covering
    range(count); a last block of fewer than min_rows rows joins the one
    before it."""
    lo = 0
    while lo < count:
        hi = lo + size
        if count - hi < min_rows:
            hi = count
        yield lo, hi
        lo = hi


def cpu_count() -> int:
    """The CPUs this process may run on (all of them where the platform
    cannot say)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def fan_out(run, blocks, size: int) -> list:
    """[run(lo, hi) for lo, hi in blocks], in block order.

    With n the smaller of the CPU count and the number of blocks of at least
    size rows, thread k of n takes blocks k, k + n, k + 2n, ...: the calling
    thread is thread 0, and n - 1 pool threads take the rest.  Below two, the
    blocks run in a plain loop on the calling thread, so an input of one full
    block starts no thread; so does a call made while another fan-out runs.
    An error raised in a block reaches the caller.
    """
    blocks = list(blocks)
    n = min(cpu_count(), sum(hi - lo >= size for lo, hi in blocks))
    if n < 2 or not _running.acquire(blocking=False):
        return [run(lo, hi) for lo, hi in blocks]

    def stripe(k):
        return [run(lo, hi) for lo, hi in blocks[k::n]]

    try:
        with ThreadPoolExecutor(n - 1) as pool:
            workers = [pool.submit(stripe, k) for k in range(1, n)]
            parts = [stripe(0)] + [worker.result() for worker in workers]
    finally:
        _running.release()
    return [parts[i % n][i // n] for i in range(len(blocks))]
