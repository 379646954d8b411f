import os
import subprocess
import sys
import textwrap
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import active_children
from pathlib import Path

import pytest

from graphlimits._parallel import pmap

SRC = Path(__file__).resolve().parent.parent / "src"


def _square(i):
    return (i, i * i)


def _pid(i):
    return os.getpid()


def _exit_at_three(i):
    if i == 3:
        os._exit(1)
    return i


def _worker_pids():
    return {p.pid for p in active_children()}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 5, 17, 50])
def test_pmap_equals_the_serial_map_in_order(workers, count):
    assert pmap(_square, count, workers) == [_square(i) for i in range(count)]


def test_consecutive_calls_share_the_pool_workers():
    first = set(pmap(_pid, 20, 2))
    workers = _worker_pids()
    assert len(workers) == 2 and first <= workers
    assert os.getpid() not in first
    second = set(pmap(_pid, 20, 2))
    assert second <= workers and _worker_pids() == workers


def test_a_new_worker_count_replaces_the_pool():
    pmap(_pid, 20, 2)
    old = _worker_pids()
    served = set(pmap(_pid, 20, 3))
    new = _worker_pids()
    assert len(old) == 2 and len(new) == 3
    assert served <= new and not old & new


def test_a_dead_worker_breaks_one_call_only():
    with pytest.raises(BrokenProcessPool):
        pmap(_exit_at_three, 10, 2)
    assert pmap(_square, 10, 2) == [_square(i) for i in range(10)]
    assert len(_worker_pids()) == 2


def test_no_worker_outlives_its_process():
    script = textwrap.dedent("""
        import os
        from multiprocessing import active_children
        from graphlimits._parallel import pmap

        def pid(i):
            return os.getpid()

        served = set(pmap(pid, 20, 2)) | set(pmap(pid, 20, 2))
        print(*sorted(served | {p.pid for p in active_children()}))
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    pids = [int(p) for p in done.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
