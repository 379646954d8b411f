"""Order-preserving map over replication indices, optionally multi-process.

Callables handed to :func:`pmap` must be picklable (module-level functions
or ``functools.partial`` over them) and must derive any randomness from the
replication index, so the result is identical for every worker count.

The process keeps at most one worker pool.  It is forked at the first call
with ``workers > 1`` and ``count > 1``, reused by every later call with the
same worker count, replaced (the old one shut down first) when the count
changes, dropped when a worker dies, and joined at interpreter exit.  The
workers are copies of the process as it was at that fork: module
attributes patched afterwards do not reach them.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

_pool: ProcessPoolExecutor | None = None
_pool_workers = 0


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    global _pool, _pool_workers
    if _pool is None or _pool_workers != workers:
        if _pool is not None:
            _pool.shutdown()
        _pool, _pool_workers = ProcessPoolExecutor(max_workers=workers), workers
    return _pool


def pmap(fn: Callable[[int], object], count: int, workers: int = 1) -> Sequence:
    global _pool
    if count <= 0:
        return []
    if workers is None or workers <= 1 or count == 1:
        return [fn(i) for i in range(count)]
    pool = _shared_pool(workers)
    # replications can take well under a millisecond, so each worker gets
    # two contiguous shares: few round trips, and the second evens out load
    chunk = math.ceil(count / (2 * workers))
    try:
        return list(pool.map(fn, range(count), chunksize=chunk))
    except BrokenProcessPool:
        pool.shutdown()
        _pool = None
        raise
