"""Worker-pool sizing and a deterministic ordered parallel map.

The NETINFER_THREADS environment variable caps parallelism package-wide:
unset or "0" means auto (bounded by the CPU count), "1" forces serial
execution, and larger requests are clamped to MAX_WORKERS. Work is split
into one contiguous chunk per worker, and results are always returned in
submission order, so output is independent of scheduling and of the
thread count.
"""

import os
from concurrent.futures import ThreadPoolExecutor

_AUTO_CAP = 8
# The pool is the only level of threading (entropy kernels run serially in
# each pool thread), so a run holds at most MAX_WORKERS worker threads.
MAX_WORKERS = 32


def worker_count() -> int:
    raw = os.environ.get("NETINFER_THREADS", "0").strip()
    try:
        requested = int(raw)
    except ValueError:
        requested = 0
    if requested < 0:
        requested = 0
    if requested == 0:
        return max(1, min(os.cpu_count() or 1, _AUTO_CAP))
    return min(requested, MAX_WORKERS)


def parallel_map(fn, items):
    """Map fn over items in order, one contiguous chunk per pool worker."""
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(it) for it in items]
    ends = [len(items) * k // workers for k in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        chunks = pool.map(lambda a, b: [fn(it) for it in items[a:b]],
                          ends[:-1], ends[1:])
        return [r for chunk in chunks for r in chunk]
