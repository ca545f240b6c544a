"""Worker-pool sizing and a deterministic ordered parallel map.

The NETINFER_THREADS environment variable caps parallelism package-wide:
unset or "0" means auto (bounded by the CPU count), "1" forces serial
execution, and larger requests are clamped to MAX_WORKERS. Results are
always returned in submission order, so output is independent of
scheduling.
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
    """Map fn over items, threaded when the configured pool allows it."""
    items = list(items)
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))
