"""The worker count of a run, read only by perfbench's records.

Surrogates are drawn serially on the calling thread, so it is always 1.
"""


def worker_count() -> int:
    return 1
