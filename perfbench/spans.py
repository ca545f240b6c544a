"""Spans around each layer's public entry points, recorded from outside netinfer.

A wrapper replaces a name in the module that looks it up at call time (for
example `netinfer.cli.load_csv`, not `netinfer.timeseries.load_csv`), so the
library itself is untouched and the originals come back when tracing ends.
Every traced call runs on the thread that opened the op; the surrogate pool
and cKDTree threads only run code below the wrapped names.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict

from netinfer import cli, scores, search

# (module or class, attribute, span name, note): a note maps (args, result)
# to a number summed per span name.
_TARGETS = (
    (cli, "simulate", "cli.simulate", None),
    (cli, "load_csv", "cli.load_csv", None),
    (cli, "discretize", "cli.discretize", None),
    (cli, "delay_embed", "cli.delay_embed", None),
    (cli, "exhaustive_search", "cli.exhaustive_search",
     lambda args, result: result.visited),
    (cli, "greedy_hill_climb", "cli.greedy_hill_climb",
     lambda args, result: result.visited),
    (scores, "conditional_entropy", "scores.conditional_entropy", None),
    (scores, "surrogate_te_samples", "scores.surrogate_te_samples",
     lambda args, result: len(result)),
    (scores.Scorer, "local", "scores.Scorer.local", None),
)
ENUM_SPAN = "search.enumerate_dags.next"
ROOT_SPAN = "cli.main"

_MARK = "__perfbench_span__"


class Tracer:
    """Spans of the ops run since the last `take()`.

    A span is [name, start, end, parent index, op id, note].
    """

    def __init__(self):
        self.spans: list[list] = []
        self.scorers: list = []
        self.off_thread_calls = 0
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self.op_id = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.op_id, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, note=0):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = note
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")

    def on_own_thread(self) -> bool:
        if threading.get_ident() == self._thread:
            return True
        self.off_thread_calls += 1
        return False

    @contextlib.contextmanager
    def op(self):
        """The root span of one op; its children are the wrapped calls."""
        self.op_id += 1
        idx = self.open(ROOT_SPAN)
        try:
            yield
        finally:
            self.close(idx)

    def take(self):
        spans, scorers = self.spans, self.scorers
        self.spans, self.scorers = [], []
        return spans, scorers


def _wrap(tracer: Tracer, fn, name: str, note):
    def wrapper(*args, **kwargs):
        if not tracer.on_own_thread():
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(idx, note(args, result) if note and result is not None
                         else 0)

    setattr(wrapper, _MARK, name)
    return wrapper


def _wrap_local(tracer: Tracer, fn):
    def local(self, *args, **kwargs):
        # keep the op's scorers, whose cache counters are read after the op
        if not any(s is self for s in tracer.scorers):
            tracer.scorers.append(self)
        return fn(self, *args, **kwargs)

    return local


def _wrap_enumerate(tracer: Tracer, fn):
    def enumerate_dags(*args, **kwargs):
        dags = fn(*args, **kwargs)
        while True:
            if not tracer.on_own_thread():
                yield from dags
                return
            idx = tracer.open(ENUM_SPAN)
            try:
                dag = next(dags)
            except StopIteration:
                tracer.close(idx)
                return
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, 1)
            yield dag

    setattr(enumerate_dags, _MARK, ENUM_SPAN)
    return enumerate_dags


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every traced name with its wrapper, and restore all on exit."""
    saved = []
    try:
        for owner, attr, name, note in _TARGETS:
            original = getattr(owner, attr)
            fn = original
            if attr == "local":
                fn = _wrap_local(tracer, fn)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, fn, name, note))
        saved.append((search, "enumerate_dags", search.enumerate_dags))
        setattr(search, "enumerate_dags",
                _wrap_enumerate(tracer, search.enumerate_dags))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def wrappers_left() -> list[str]:
    """Traced names that still hold a wrapper; empty once tracing has ended."""
    owners = [(owner, attr) for owner, attr, _, _ in _TARGETS]
    owners.append((search, "enumerate_dags"))
    return [f"{getattr(o, '__name__', o)}.{a}" for o, a in owners
            if hasattr(getattr(o, a), _MARK)]


class OpProfile:
    """Calls, inclusive time, self time and note sums per span name, for one op."""

    def __init__(self, spans: list[list]):
        n = len(spans)
        child = [0.0] * n
        for span in spans:
            if span[3] is not None:
                child[span[3]] += span[2] - span[1]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.notes = defaultdict(int)
        roots = 0
        for i, (name, start, end, parent, _, note) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - child[i]
            self.notes[name] += note
            roots += parent is None
        if roots != 1 or spans[0][0] != ROOT_SPAN:
            raise RuntimeError("an op must have exactly one root span")
        self.self_sum_s = sum(self.self_s.values())

