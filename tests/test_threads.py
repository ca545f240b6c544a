import os

import netinfer._threads as threads


def _with_env(value, fn):
    old = os.environ.get("NETINFER_THREADS")
    try:
        if value is None:
            os.environ.pop("NETINFER_THREADS", None)
        else:
            os.environ["NETINFER_THREADS"] = value
        return fn()
    finally:
        if old is None:
            os.environ.pop("NETINFER_THREADS", None)
        else:
            os.environ["NETINFER_THREADS"] = old


def test_worker_count_env_parsing():
    assert _with_env("1", threads.worker_count) == 1
    assert _with_env("4", threads.worker_count) == 4
    auto = _with_env("0", threads.worker_count)
    assert 1 <= auto <= threads._AUTO_CAP
    assert _with_env(None, threads.worker_count) == auto
    assert _with_env("garbage", threads.worker_count) == auto


def test_worker_count_clamped():
    # only sizes the pool; nothing is started at this value
    assert _with_env("100000", threads.worker_count) == threads.MAX_WORKERS
    assert _with_env(str(threads.MAX_WORKERS), threads.worker_count) == threads.MAX_WORKERS


def test_parallel_map_preserves_order():
    # 0 and 1 items, fewer items than workers, and counts the worker count
    # does not divide: every result comes back in submission order
    for value in ("1", "2", "4"):
        for n in (0, 1, 2, 3, 5, 7, 9, 25):
            got = _with_env(value, lambda: threads.parallel_map(lambda x: x * x, range(n)))
            assert got == [x * x for x in range(n)]
